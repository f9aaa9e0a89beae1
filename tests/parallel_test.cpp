// Parallel exploration engine (core::ParallelExplorer, docs/
// parallelism.md): the -j1 == -jN determinism contract across every ISA
// and search strategy, plus unit coverage for the shared SMT query cache
// (smt/qcache.h) and cross-pool term import that make it possible.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/observer.h"
#include "driver/cli.h"
#include "driver/session.h"
#include "obs/progress.h"
#include "smt/printer.h"
#include "smt/qcache.h"
#include "smt/solver.h"
#include "smt/term.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "workloads/programs.h"

namespace adlsym {
namespace {

using driver::Session;
using driver::cli::dispatch;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------
// Query-cache key canonicalization
// ---------------------------------------------------------------------

TEST(QueryCacheKey, AlphaEquivalentConstraintSetsShareAKey) {
  // Same structure built in two *different* pools under different
  // variable names: the α-renaming to dense slots must erase both.
  smt::TermManager tm1;
  smt::TermManager tm2;
  const auto c1 =
      tm1.mkEq(tm1.mkAdd(tm1.mkVar(8, "x"), tm1.mkConst(8, 3)),
               tm1.mkConst(8, 5));
  const auto c2 =
      tm2.mkEq(tm2.mkAdd(tm2.mkVar(8, "batman"), tm2.mkConst(8, 3)),
               tm2.mkConst(8, 5));
  std::vector<smt::TermRef> slots1, slots2;
  const std::string k1 = smt::QueryCache::canonicalKey({}, {c1}, &slots1);
  const std::string k2 = smt::QueryCache::canonicalKey({}, {c2}, &slots2);
  EXPECT_EQ(k1, k2);
  // The slot table maps back into the *caller's* pool.
  ASSERT_EQ(slots1.size(), 1u);
  ASSERT_EQ(slots2.size(), 1u);
  EXPECT_EQ(smt::toString(slots1[0]), "x");
  EXPECT_EQ(smt::toString(slots2[0]), "batman");
}

TEST(QueryCacheKey, DistinctStructuresGetDistinctKeys) {
  smt::TermManager tm;
  const auto x = tm.mkVar(8, "x");
  const auto eq5 = tm.mkEq(x, tm.mkConst(8, 5));
  const auto eq6 = tm.mkEq(x, tm.mkConst(8, 6));
  const auto lt5 = tm.mkUlt(x, tm.mkConst(8, 5));
  const auto wide = tm.mkEq(tm.mkVar(16, "w"), tm.mkConst(16, 5));
  const std::string kEq5 = smt::QueryCache::canonicalKey({}, {eq5}, nullptr);
  const std::string kEq6 = smt::QueryCache::canonicalKey({}, {eq6}, nullptr);
  const std::string kLt5 = smt::QueryCache::canonicalKey({}, {lt5}, nullptr);
  const std::string kWide = smt::QueryCache::canonicalKey({}, {wide}, nullptr);
  EXPECT_NE(kEq5, kEq6);   // different constant
  EXPECT_NE(kEq5, kLt5);   // different operator
  EXPECT_NE(kEq5, kWide);  // different variable width
  EXPECT_NE(kEq6, kLt5);
}

TEST(QueryCacheKey, SetSemanticsOrderAndDuplicatesDoNotMatter) {
  smt::TermManager tm;
  const auto x = tm.mkVar(8, "x");
  const auto a = tm.mkEq(x, tm.mkConst(8, 1));
  const auto b = tm.mkUlt(x, tm.mkConst(8, 9));
  EXPECT_EQ(smt::QueryCache::canonicalKey({}, {a, b}, nullptr),
            smt::QueryCache::canonicalKey({}, {b, a}, nullptr));
  EXPECT_EQ(smt::QueryCache::canonicalKey({}, {a, a, b}, nullptr),
            smt::QueryCache::canonicalKey({}, {a, b}, nullptr));
  // Permanent vs assumption placement is invisible: the key covers the
  // union.
  EXPECT_EQ(smt::QueryCache::canonicalKey({a}, {b}, nullptr),
            smt::QueryCache::canonicalKey({}, {a, b}, nullptr));
}

TEST(QueryCacheKey, ConstantTrueAssumptionsAreSkipped) {
  smt::TermManager tm;
  const auto c = tm.mkEq(tm.mkVar(8, "x"), tm.mkConst(8, 7));
  EXPECT_EQ(smt::QueryCache::canonicalKey({}, {tm.mkTrue(), c}, nullptr),
            smt::QueryCache::canonicalKey({}, {c}, nullptr));
}

TEST(QueryCacheKey, SortKeyMemoGivesTheSameKeyAndSlots) {
  // Random DAGs: every new node picks its operands among earlier nodes,
  // so subterms are shared. Queries draw constraints from a common pool
  // (repeated and interleaved across calls, split between permanent and
  // assumption sets) and run through one long-lived memo; each key and
  // slot table must equal the memo-less computation.
  smt::TermManager tm;
  Rng rng(21);
  std::vector<smt::TermRef> nodes;
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    nodes.push_back(tm.mkVar(8, name));
  }
  for (int i = 0; i < 60; ++i) {
    const smt::TermRef x = nodes[rng.below(nodes.size())];
    const smt::TermRef y = rng.below(4) == 0
                               ? tm.mkConst(8, rng.below(256))
                               : nodes[rng.below(nodes.size())];
    switch (rng.below(4)) {
      case 0: nodes.push_back(tm.mkAdd(x, y)); break;
      case 1: nodes.push_back(tm.mkXor(x, y)); break;
      case 2: nodes.push_back(tm.mkMul(x, y)); break;
      default: nodes.push_back(tm.mkIte(tm.mkUlt(x, y), y, x)); break;
    }
  }
  std::vector<smt::TermRef> constraints;
  for (int i = 0; i < 30; ++i) {
    const smt::TermRef x = nodes[rng.below(nodes.size())];
    const smt::TermRef y = nodes[rng.below(nodes.size())];
    constraints.push_back(rng.below(2) == 0 ? tm.mkEq(x, y) : tm.mkUlt(x, y));
  }
  smt::QueryCache::SortKeyMemo memo;
  for (int q = 0; q < 400; ++q) {
    std::vector<smt::TermRef> permanent, assumptions;
    for (size_t k = rng.below(3); k > 0; --k) {
      permanent.push_back(constraints[rng.below(constraints.size())]);
    }
    for (size_t k = rng.below(6); k > 0; --k) {
      assumptions.push_back(constraints[rng.below(constraints.size())]);
    }
    std::vector<smt::TermRef> slotsPlain, slotsMemo;
    const std::string plain = smt::QueryCache::canonicalKey(
        permanent, assumptions, &slotsPlain);
    const std::string withMemo = smt::QueryCache::canonicalKey(
        permanent, assumptions, &slotsMemo, &memo);
    ASSERT_EQ(plain, withMemo) << "query " << q;
    ASSERT_EQ(slotsPlain.size(), slotsMemo.size()) << "query " << q;
    for (size_t i = 0; i < slotsPlain.size(); ++i) {
      EXPECT_EQ(slotsPlain[i].id(), slotsMemo[i].id()) << "query " << q;
    }
  }
  // One entry per distinct constraint keyed, never more.
  EXPECT_GT(memo.size(), 0u);
  EXPECT_LE(memo.size(), constraints.size());
}

// ---------------------------------------------------------------------
// Query-cache single-flight protocol + accounting
// ---------------------------------------------------------------------

TEST(QueryCacheFlight, MissThenPublishThenHit) {
  smt::QueryCache qc;
  const std::string k = "k0";
  auto first = qc.acquire(k);
  EXPECT_FALSE(first.hit);  // we are now the owner
  qc.publish(k, smt::CheckResult::Sat, {7, 9});
  auto second = qc.acquire(k);
  ASSERT_TRUE(second.hit);
  EXPECT_EQ(second.result, smt::CheckResult::Sat);
  EXPECT_EQ(second.slotValues, (std::vector<uint64_t>{7, 9}));
  const auto st = qc.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_DOUBLE_EQ(st.hitRate(), 0.5);
}

TEST(QueryCacheFlight, AbandonMakesTheNextCallerTheOwner) {
  smt::QueryCache qc;
  const std::string k = "unknowable";
  EXPECT_FALSE(qc.acquire(k).hit);
  qc.abandon(k);  // Unknown verdict: nothing cached
  EXPECT_FALSE(qc.acquire(k).hit);  // a fresh miss, not a hit
  qc.publish(k, smt::CheckResult::Unsat, {});
  auto out = qc.acquire(k);
  ASSERT_TRUE(out.hit);
  EXPECT_EQ(out.result, smt::CheckResult::Unsat);
  EXPECT_TRUE(out.slotValues.empty());
  const auto st = qc.stats();
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.entries, 1u);
}

TEST(QueryCacheFlight, CapacityEvictsCompletedEntriesFifo) {
  smt::QueryCache qc(/*capacity=*/2);
  for (const char* k : {"a", "b", "c"}) {
    EXPECT_FALSE(qc.acquire(k).hit);
    qc.publish(k, smt::CheckResult::Unsat, {});
  }
  auto st = qc.stats();
  EXPECT_EQ(st.capacity, 2u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.evictions, 1u);  // "a" fell off the FIFO
  EXPECT_FALSE(qc.acquire("a").hit);  // evicted: caller owns it again
  qc.abandon("a");
  ASSERT_TRUE(qc.acquire("b").hit);  // survivors still served
  ASSERT_TRUE(qc.acquire("c").hit);
  st = qc.stats();
  EXPECT_EQ(st.misses, 4u);
  EXPECT_EQ(st.hits, 2u);
}

TEST(QueryCacheFlight, ConcurrentWaiterBlocksThenGetsTheOwnersModel) {
  smt::QueryCache qc;
  const std::string k = "shared";
  std::promise<void> owned;
  std::thread owner([&] {
    auto o = qc.acquire(k);
    ASSERT_FALSE(o.hit);
    owned.set_value();  // waiter may now race us to the key
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    qc.publish(k, smt::CheckResult::Sat, {42});
  });
  owned.get_future().wait();
  auto waited = qc.acquire(k);  // blocks until the owner publishes
  owner.join();
  ASSERT_TRUE(waited.hit);
  EXPECT_EQ(waited.result, smt::CheckResult::Sat);
  EXPECT_EQ(waited.slotValues, (std::vector<uint64_t>{42}));
  const auto st = qc.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.inflightWaits, 1u);
}

// ---------------------------------------------------------------------
// Cross-pool term migration (work stealing moves states between pools)
// ---------------------------------------------------------------------

TEST(TermImport, PreservesStructureAcrossPools) {
  smt::TermManager src;
  smt::TermManager dst;
  const auto x = src.mkVar(8, "x");
  const auto y = src.mkVar(8, "y");
  const auto t = src.mkEq(src.mkAdd(x, src.mkConst(8, 3)), src.mkMul(y, x));
  std::unordered_map<smt::TermId, smt::TermId> memo;
  const auto imported = dst.import(t, memo);
  EXPECT_EQ(smt::toString(imported), smt::toString(t));
  EXPECT_EQ(imported.width(), t.width());
  // The memo makes re-imports free and identity-preserving: the shared
  // subterm x must land on the same destination node both times.
  const auto again = dst.import(t, memo);
  EXPECT_EQ(again.id(), imported.id());
  const auto xDst = dst.import(x, memo);
  EXPECT_EQ(smt::toString(xDst), "x");
  // And the canonical key is pool-independent.
  EXPECT_EQ(smt::QueryCache::canonicalKey({}, {t}, nullptr),
            smt::QueryCache::canonicalKey({}, {imported}, nullptr));
}

// ---------------------------------------------------------------------
// Live observers fired from worker threads
// ---------------------------------------------------------------------

TEST(ThreadSafeObservers, ProgressMeterCountsEveryBeatUnderContention) {
  // Manual clock advancing one full interval per read: with the meter's
  // internal lock serializing clock reads, the first onStepEnd starts
  // the meter and every later one beats — an exact, schedule-independent
  // count. A race would tear it (and TSan would flag the access).
  telemetry::ManualClock clk(1000000);  // +1 simulated second per read
  telemetry::Telemetry tel(clk);
  std::ostringstream sink;
  obs::ProgressMeter meter(&tel, sink, /*intervalSeconds=*/1.0);
  core::LockedObserverMux mux;
  mux.add(&meter);
  constexpr int kThreads = 4;
  constexpr int kStepsPerThread = 250;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&mux] {
      core::ExploreObserver::StepInfo info;
      info.pc = 4;
      info.numSuccessors = 1;
      for (int i = 0; i < kStepsPerThread; ++i) {
        info.totalSteps = static_cast<uint64_t>(i);
        mux.onStepEnd(info);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(meter.beats(),
            static_cast<uint64_t>(kThreads * kStepsPerThread - 1));
  EXPECT_NE(sink.str().find("[progress]"), std::string::npos);
}

// ---------------------------------------------------------------------
// End-to-end determinism: -j1 == -j2 == -j8 per ISA x strategy
// ---------------------------------------------------------------------

struct RunArtifacts {
  int exitCode = 0;
  std::string stdoutText;
  std::string statsJson;
  std::string forestJson;
};

class ParallelDeterminism : public ::testing::Test {
 protected:
  // One image per ISA, lowered from the same portable workload: three
  // symbolic input bits -> 8 paths, enough forks for stealing and for
  // witness-generation queries to exercise the shared cache.
  static std::string imageFor(const std::string& isa) {
    auto s = Session::forPortable(workloads::progBitcount(3), isa);
    const std::string path =
        testing::TempDir() + "parallel_" + isa + ".img";
    std::ofstream(path) << s->image().serialize();
    return path;
  }

  static RunArtifacts explore(const std::string& isa,
                              const std::string& imgPath,
                              const std::string& strategy, unsigned jobs,
                              const std::vector<std::string>& extra = {}) {
    const std::string tag = isa + "_" + strategy + "_j" +
                            std::to_string(jobs) + "_" +
                            std::to_string(extra.size());
    const std::string statsPath = testing::TempDir() + tag + ".stats.json";
    const std::string forestPath = testing::TempDir() + tag + ".forest.json";
    std::vector<std::string> args = {"explore",
                                     isa,
                                     imgPath,
                                     "--strategy",
                                     strategy,
                                     "--jobs",
                                     std::to_string(jobs),
                                     "--clock=manual",
                                     "--stats-json=" + statsPath,
                                     "--path-forest=" + forestPath};
    args.insert(args.end(), extra.begin(), extra.end());
    const auto r = dispatch(args);
    return {r.exitCode, r.output, slurp(statsPath), slurp(forestPath)};
  }

  // The whole contract in one assertion block: exit code, the printed
  // path table (witness values included), the stats document and the
  // path forest (per-path generated test inputs included) must be
  // byte-identical for every jobs value.
  static void expectIdenticalAcrossJobs(const std::string& isa,
                                        const std::string& strategy) {
    const std::string img = imageFor(isa);
    const RunArtifacts base = explore(isa, img, strategy, 1);
    ASSERT_FALSE(base.statsJson.empty()) << isa << "/" << strategy;
    ASSERT_FALSE(base.forestJson.empty()) << isa << "/" << strategy;
    EXPECT_NE(base.statsJson.find("\"schema\":\"adlsym-stats-v8\""),
              std::string::npos);
    EXPECT_NE(base.statsJson.find("\"qcache\":{\"enabled\":true"),
              std::string::npos);
    EXPECT_NE(base.forestJson.find("\"schema\":\"adlsym-pathforest-v1\""),
              std::string::npos);
    for (const unsigned jobs : {2u, 8u}) {
      const RunArtifacts r = explore(isa, img, strategy, jobs);
      const std::string where =
          isa + "/" + strategy + " -j1 vs -j" + std::to_string(jobs);
      EXPECT_EQ(base.exitCode, r.exitCode) << where;
      EXPECT_EQ(base.stdoutText, r.stdoutText) << where;
      EXPECT_EQ(base.statsJson, r.statsJson) << where;
      EXPECT_EQ(base.forestJson, r.forestJson) << where;
    }
  }
};

TEST_F(ParallelDeterminism, Acc8AllStrategies) {
  for (const char* s : {"dfs", "bfs", "random", "coverage"}) {
    expectIdenticalAcrossJobs("acc8", s);
  }
}

TEST_F(ParallelDeterminism, M16AllStrategies) {
  for (const char* s : {"dfs", "bfs", "random", "coverage"}) {
    expectIdenticalAcrossJobs("m16", s);
  }
}

TEST_F(ParallelDeterminism, Rv32eAllStrategies) {
  for (const char* s : {"dfs", "bfs", "random", "coverage"}) {
    expectIdenticalAcrossJobs("rv32e", s);
  }
}

TEST_F(ParallelDeterminism, Stk16AllStrategies) {
  for (const char* s : {"dfs", "bfs", "random", "coverage"}) {
    expectIdenticalAcrossJobs("stk16", s);
  }
}

TEST_F(ParallelDeterminism, QcacheOffIsStillDeterministic) {
  const std::string img = imageFor("rv32e");
  const RunArtifacts a = explore("rv32e", img, "dfs", 1, {"--qcache=off"});
  const RunArtifacts b = explore("rv32e", img, "dfs", 4, {"--qcache=off"});
  EXPECT_EQ(a.exitCode, b.exitCode);
  EXPECT_EQ(a.stdoutText, b.stdoutText);
  EXPECT_EQ(a.statsJson, b.statsJson);
  EXPECT_EQ(a.forestJson, b.forestJson);
  EXPECT_NE(a.statsJson.find("\"qcache\":{\"enabled\":false}"),
            std::string::npos);
}

TEST_F(ParallelDeterminism, QcacheServesWitnessQueries) {
  // Each fork's feasibility check populates the cache; the final witness
  // solve over the same path condition must then hit it, so a forking
  // workload always reports hits > 0 — and the canonical counts say so
  // identically for every jobs value (covered by the matrix above).
  const std::string img = imageFor("rv32e");
  const RunArtifacts r = explore("rv32e", img, "dfs", 2);
  EXPECT_EQ(r.statsJson.find("\"hits\":0,"), std::string::npos);
  EXPECT_NE(r.statsJson.find("\"hits\":"), std::string::npos);
  EXPECT_NE(r.statsJson.find("\"hit_rate\":"), std::string::npos);
}

TEST_F(ParallelDeterminism, ParallelAgreesWithSequentialOnPathCounts) {
  // Witness models may differ between the incremental sequential solver
  // and the fresh-mode parallel one, but the path census is engine-
  // independent: same paths, steps, forks, statuses.
  const std::string img = imageFor("rv32e");
  const std::string seqStats = testing::TempDir() + "seq_rv32e.stats.json";
  const auto seq = dispatch({"explore", "rv32e", img, "--clock=manual",
                             "--stats-json=" + seqStats});
  const RunArtifacts par = explore("rv32e", img, "dfs", 4);
  EXPECT_EQ(seq.exitCode, par.exitCode);
  const std::string seqJson = slurp(seqStats);
  for (const char* field :
       {"\"paths\":", "\"exited\":", "\"defects\":", "\"total_steps\":",
        "\"total_forks\":", "\"states_dropped\":", "\"covered_pcs\":"}) {
    const auto cut = [&](const std::string& doc) {
      const size_t at = doc.find(field);
      EXPECT_NE(at, std::string::npos) << field;
      return doc.substr(at, doc.find(',', at) - at);
    };
    EXPECT_EQ(cut(seqJson), cut(par.statsJson)) << field;
  }
}

}  // namespace
}  // namespace adlsym
