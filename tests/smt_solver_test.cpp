#include <gtest/gtest.h>

#include <algorithm>

#include "smt/presolver.h"
#include "smt/solver.h"
#include "support/bits.h"
#include "support/rng.h"

namespace adlsym::smt {
namespace {

class SolverTest : public ::testing::Test {
 protected:
  TermManager tm;
  SmtSolver s{tm};
  TermRef c(unsigned w, uint64_t v) { return tm.mkConst(w, v); }
};

TEST_F(SolverTest, LinearEquation) {
  TermRef x = tm.mkVar(8, "x");
  // 3x + 7 == 52  ->  x == 15
  TermRef eq = tm.mkEq(tm.mkAdd(tm.mkMul(x, c(8, 3)), c(8, 7)), c(8, 52));
  ASSERT_EQ(s.check({eq}), CheckResult::Sat);
  const uint64_t xv = s.modelValue(x);
  EXPECT_EQ((3 * xv + 7) % 256, 52u);
}

TEST_F(SolverTest, Factoring) {
  TermRef x = tm.mkVar(16, "x");
  TermRef y = tm.mkVar(16, "y");
  TermRef eq = tm.mkEq(tm.mkMul(x, y), c(16, 7 * 13));
  TermRef c1 = tm.mkUgt(x, c(16, 1));
  TermRef c2 = tm.mkUgt(y, c(16, 1));
  TermRef c3 = tm.mkUlt(x, c(16, 50));
  TermRef c4 = tm.mkUlt(y, c(16, 50));
  ASSERT_EQ(s.check({eq, c1, c2, c3, c4}), CheckResult::Sat);
  EXPECT_EQ((s.modelValue(x) * s.modelValue(y)) & 0xffff, 91u);
}

TEST_F(SolverTest, UnsatContradiction) {
  TermRef x = tm.mkVar(8, "x");
  EXPECT_EQ(s.check({tm.mkUlt(x, c(8, 4)), tm.mkUgt(x, c(8, 4))}),
            CheckResult::Unsat);
  // Same solver remains usable.
  EXPECT_EQ(s.check({tm.mkUlt(x, c(8, 4))}), CheckResult::Sat);
  EXPECT_LT(s.modelValue(x), 4u);
}

TEST_F(SolverTest, AssertAlwaysPersists) {
  TermRef x = tm.mkVar(8, "x");
  s.assertAlways(tm.mkUgt(x, c(8, 250)));
  ASSERT_EQ(s.check({}), CheckResult::Sat);
  EXPECT_GT(s.modelValue(x), 250u);
  EXPECT_EQ(s.check({tm.mkUlt(x, c(8, 100))}), CheckResult::Unsat);
}

TEST_F(SolverTest, AssertFalseMakesPermanentlyUnsat) {
  s.assertAlways(tm.mkFalse());
  EXPECT_EQ(s.check({}), CheckResult::Unsat);
  EXPECT_EQ(s.check({tm.mkTrue()}), CheckResult::Unsat);
}

TEST_F(SolverTest, SignedComparisonModels) {
  TermRef x = tm.mkVar(8, "x");
  // x <s 0 and x >s -100: x in (-100, 0)
  ASSERT_EQ(s.check({tm.mkSlt(x, c(8, 0)), tm.mkSgt(x, c(8, 0x9c))}),
            CheckResult::Sat);
  const int64_t v = asSigned(s.modelValue(x), 8);
  EXPECT_LT(v, 0);
  EXPECT_GT(v, -100);
}

TEST_F(SolverTest, ModelOfUnconstrainedVarDefaultsZero) {
  TermRef x = tm.mkVar(8, "x");
  ASSERT_EQ(s.check({tm.mkTrue()}), CheckResult::Sat);
  // x was never blasted: it reads as 0 from the snapshot model.
  EXPECT_EQ(s.modelValue(x), 0u);
}

TEST_F(SolverTest, ModelSurvivesLaterBlasting) {
  TermRef x = tm.mkVar(8, "x");
  ASSERT_EQ(s.check({tm.mkEq(x, c(8, 77))}), CheckResult::Sat);
  EXPECT_EQ(s.modelValue(x), 77u);
  // Evaluate a brand-new term under the same model: requires the snapshot,
  // not the (now disturbed) SAT trail.
  TermRef y = tm.mkVar(8, "y_new");
  TermRef t = tm.mkAdd(x, y);
  EXPECT_EQ(s.modelValue(t), 77u);  // y_new defaults to 0
  EXPECT_EQ(s.modelValue(x), 77u);
}

TEST_F(SolverTest, DivisionConstraints) {
  TermRef x = tm.mkVar(8, "x");
  // x / 10 == 7 and x % 10 == 3  ->  x == 73
  ASSERT_EQ(s.check({tm.mkEq(tm.mkUDiv(x, c(8, 10)), c(8, 7)),
                     tm.mkEq(tm.mkURem(x, c(8, 10)), c(8, 3))}),
            CheckResult::Sat);
  EXPECT_EQ(s.modelValue(x), 73u);
}

TEST_F(SolverTest, ShiftConstraints) {
  TermRef x = tm.mkVar(8, "x");
  TermRef sh = tm.mkVar(8, "sh");
  // (x << sh) == 0x80 with sh == 7 forces x odd.
  ASSERT_EQ(s.check({tm.mkEq(tm.mkShl(x, sh), c(8, 0x80)),
                     tm.mkEq(sh, c(8, 7))}),
            CheckResult::Sat);
  EXPECT_EQ(s.modelValue(x) & 1, 1u);
}

TEST_F(SolverTest, IteConstraints) {
  TermRef x = tm.mkVar(8, "x");
  TermRef sel = tm.mkUlt(x, c(8, 10));
  TermRef v = tm.mkIte(sel, c(8, 1), c(8, 2));
  ASSERT_EQ(s.check({tm.mkEq(v, c(8, 2))}), CheckResult::Sat);
  EXPECT_GE(s.modelValue(x), 10u);
}

TEST_F(SolverTest, StatsAccumulate) {
  TermRef x = tm.mkVar(8, "x");
  (void)s.check({tm.mkEq(x, c(8, 1))});
  (void)s.check({tm.mkEq(x, c(8, 2))});
  (void)s.check({tm.mkAnd(tm.mkEq(x, c(8, 1)), tm.mkEq(x, c(8, 2)))});
  EXPECT_EQ(s.stats().queries, 3u);
  EXPECT_EQ(s.stats().sat, 2u);
  EXPECT_EQ(s.stats().unsat, 1u);
  EXPECT_GT(s.blastStats().termsBlasted, 0u);
}

TEST_F(SolverTest, WideWidths) {
  TermRef x = tm.mkVar(64, "x64");
  ASSERT_EQ(s.check({tm.mkEq(tm.mkMul(x, c(64, 3)), c(64, 0x123456789abcull))}),
            CheckResult::Sat);
  EXPECT_EQ(s.modelValue(x) * 3, 0x123456789abcull);
}

TEST_F(SolverTest, RejectsWrongWidthAssumption) {
  TermRef x = tm.mkVar(8, "x");
  EXPECT_THROW((void)s.check({x}), Error);  // width 8, not 1
}

TEST_F(SolverTest, QueryCacheHitsAndReplaysModels) {
  TermRef x = tm.mkVar(8, "x");
  TermRef q = tm.mkEq(x, c(8, 33));
  ASSERT_EQ(s.check({q}), CheckResult::Sat);
  EXPECT_EQ(s.cacheHits(), 0u);
  // Identical query: served from the cache, including the model.
  ASSERT_EQ(s.check({q}), CheckResult::Sat);
  EXPECT_EQ(s.cacheHits(), 1u);
  EXPECT_EQ(s.modelValue(x), 33u);
  // Order and duplicates don't matter for the key.
  TermRef p = tm.mkUlt(x, c(8, 100));
  ASSERT_EQ(s.check({q, p}), CheckResult::Sat);
  ASSERT_EQ(s.check({p, q, p}), CheckResult::Sat);
  EXPECT_EQ(s.cacheHits(), 2u);
  // Unsat results are cached too.
  TermRef bad = tm.mkEq(x, c(8, 44));
  EXPECT_EQ(s.check({q, bad}), CheckResult::Unsat);
  EXPECT_EQ(s.check({q, bad}), CheckResult::Unsat);
  EXPECT_EQ(s.cacheHits(), 3u);
}

TEST_F(SolverTest, QueryCacheInvalidatedByAssertAlways) {
  TermRef x = tm.mkVar(8, "x");
  TermRef q = tm.mkUlt(x, c(8, 10));
  ASSERT_EQ(s.check({q}), CheckResult::Sat);
  s.assertAlways(tm.mkEq(x, c(8, 200)));  // contradicts q
  EXPECT_EQ(s.check({q}), CheckResult::Unsat);  // must NOT hit the old entry
}

TEST_F(SolverTest, QueryCacheCanBeDisabled) {
  s.setQueryCacheEnabled(false);
  TermRef x = tm.mkVar(8, "x");
  TermRef q = tm.mkEq(x, c(8, 1));
  ASSERT_EQ(s.check({q}), CheckResult::Sat);
  ASSERT_EQ(s.check({q}), CheckResult::Sat);
  EXPECT_EQ(s.cacheHits(), 0u);
}

// ---- one query pipeline under every solver configuration ---------------

enum class Mode { Incremental, Fresh, FreshShared };

TEST(SolverModes, EveryConfigurationGivesTheSameVerdicts) {
  // {incremental, fresh, fresh + shared QueryCache} x {prefilter on, off}
  // x {check, checkNoModel}: one query list issued twice, so every cache
  // kind sees misses on the first pass and only hits on the repeat.
  TermManager tm;
  const TermRef x = tm.mkVar(8, "x");
  const TermRef y = tm.mkVar(8, "y");
  auto k = [&](uint64_t v) { return tm.mkConst(8, v); };
  const TermRef perm = tm.mkNe(y, k(0));
  // Pairwise distinct under both the sorted-id and the canonical key.
  const std::vector<std::vector<TermRef>> queries = {
      {tm.mkUlt(x, k(5))},
      {tm.mkUlt(x, k(5)), tm.mkUgt(x, k(10))},
      {tm.mkEq(tm.mkMul(x, y), k(91)), tm.mkUgt(x, k(1)), tm.mkUgt(y, k(1))},
      {tm.mkEq(tm.mkMul(x, k(2)), k(7))},
      {tm.mkEq(tm.mkAdd(x, y), k(3)), tm.mkEq(tm.mkXor(x, y), k(1))},
      {tm.mkEq(y, k(0))},
      {},
      {tm.mkUlt(x, k(5)), tm.mkFalse()},  // short-circuited, never cached
  };
  const uint64_t cacheable = queries.size() - 1;
  std::vector<CheckResult> expected;
  for (const Mode mode : {Mode::Incremental, Mode::Fresh, Mode::FreshShared}) {
    for (const bool prefilter : {true, false}) {
      for (const bool needModel : {true, false}) {
        SCOPED_TRACE(testing::Message()
                     << "mode " << int(mode) << " prefilter " << prefilter
                     << " needModel " << needModel);
        SmtSolver s(tm);
        PreSolver pre(tm);
        QueryCache shared;
        s.assertAlways(perm);
        s.setFreshMode(mode != Mode::Incremental);
        if (mode == Mode::FreshShared) s.setSharedCache(&shared);
        if (prefilter) s.setPreSolver(&pre);
        std::vector<CheckResult> verdicts;
        for (int pass = 0; pass < 2; ++pass) {
          for (const auto& q : queries) {
            const CheckResult r = needModel ? s.check(q) : s.checkNoModel(q);
            verdicts.push_back(r);
            if (needModel && r == CheckResult::Sat) {
              EXPECT_EQ(s.modelValue(perm), 1u);
              for (const TermRef a : q) EXPECT_EQ(s.modelValue(a), 1u);
            }
          }
          EXPECT_EQ(s.cacheHits(),
                    pass == 0 || mode == Mode::Fresh ? 0u : cacheable)
              << "pass " << pass;
        }
        const SolverTelemetry t = s.telemetrySnapshot();
        EXPECT_TRUE(t.prefilterReconciled());
        EXPECT_EQ(t.preShortcircuit, 2u);
        EXPECT_EQ(t.preConsulted > 0, prefilter);
        if (expected.empty()) {
          expected = verdicts;
        } else {
          EXPECT_EQ(verdicts, expected);
        }
      }
    }
  }
  EXPECT_NE(std::count(expected.begin(), expected.end(), CheckResult::Sat), 0);
  EXPECT_NE(std::count(expected.begin(), expected.end(), CheckResult::Unsat),
            0);
}

TEST(SolverModes, ModelReaderRestoresAndBackfillsPrefilteredEntries) {
  // A checkNoModel miss the prefilter decides Sat caches no model; the
  // first check() of that key restores one and backfills the entry, so a
  // second check() replays the same model from the cache.
  TermManager tm;
  const TermRef x = tm.mkVar(8, "x");
  const std::vector<TermRef> q = {tm.mkUlt(x, tm.mkConst(8, 5))};
  for (const Mode mode : {Mode::Incremental, Mode::FreshShared}) {
    SmtSolver s(tm);
    PreSolver pre(tm);
    QueryCache shared;
    s.setFreshMode(mode != Mode::Incremental);
    if (mode == Mode::FreshShared) s.setSharedCache(&shared);
    s.setPreSolver(&pre);
    ASSERT_EQ(s.checkNoModel(q), CheckResult::Sat);
    ASSERT_EQ(s.stats().preSat, 1u);
    ASSERT_EQ(s.check(q), CheckResult::Sat);
    EXPECT_EQ(s.stats().preModelRestores, 1u);
    const uint64_t v = s.modelValue(x);
    EXPECT_LT(v, 5u);
    ASSERT_EQ(s.check(q), CheckResult::Sat);
    EXPECT_EQ(s.stats().preModelRestores, 1u);  // replayed, not restored
    EXPECT_EQ(s.modelValue(x), v);
    EXPECT_EQ(s.cacheHits(), 2u);
  }
}

// ---- the reused scratch core answers like a new solver per query -------

TermRef randomOperand(Rng& rng, TermManager& tm,
                      const std::vector<TermRef>& vars, int depth) {
  if (depth == 0 || rng.below(4) == 0) {
    return rng.below(3) == 0 ? tm.mkConst(8, rng.below(256))
                             : vars[rng.below(vars.size())];
  }
  const TermRef a = randomOperand(rng, tm, vars, depth - 1);
  const TermRef b = randomOperand(rng, tm, vars, depth - 1);
  switch (rng.below(9)) {
    case 0: return tm.mkAdd(a, b);
    case 1: return tm.mkSub(a, b);
    case 2: return tm.mkMul(a, b);
    case 3: return tm.mkXor(a, b);
    case 4: return tm.mkAnd(a, b);
    case 5: return tm.mkOr(a, b);
    case 6: return tm.mkShl(a, b);
    case 7: return tm.mkUDiv(a, b);
    default: return tm.mkIte(tm.mkUlt(a, b), a, b);
  }
}

TermRef randomPredicate(Rng& rng, TermManager& tm,
                        const std::vector<TermRef>& vars) {
  const TermRef a = randomOperand(rng, tm, vars, 2);
  const TermRef b = randomOperand(rng, tm, vars, 2);
  switch (rng.below(5)) {
    case 0: return tm.mkEq(a, b);
    case 1: return tm.mkNe(a, b);
    case 2: return tm.mkUlt(a, b);
    case 3: return tm.mkSle(a, b);
    default: return tm.mkUge(a, b);
  }
}

/// A seeded query stream: assumption sets drawn from a pool of random
/// predicates, so constraints repeat and interleave across queries.
std::vector<std::vector<TermRef>> randomQueries(TermManager& tm,
                                                uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<TermRef> vars;
  for (const char* name : {"x", "y", "z", "w"}) {
    vars.push_back(tm.mkVar(8, name));
  }
  std::vector<TermRef> pool;
  for (int i = 0; i < 40; ++i) pool.push_back(randomPredicate(rng, tm, vars));
  std::vector<std::vector<TermRef>> queries(n);
  for (auto& q : queries) {
    const size_t k = 1 + rng.below(5);
    for (size_t i = 0; i < k; ++i) q.push_back(pool[rng.below(pool.size())]);
  }
  return queries;
}

struct Answer {
  CheckResult result;
  std::unordered_map<uint32_t, uint64_t> model;
  QueryCost cost;
};

Answer ask(SmtSolver& s, const std::vector<TermRef>& q) {
  const QueryCost before = s.stats().canon;
  Answer a;
  a.result = s.check(q);
  if (a.result == CheckResult::Sat) a.model = s.lastModel();
  a.cost.terms = s.stats().canon.terms - before.terms;
  a.cost.gates = s.stats().canon.gates - before.gates;
  a.cost.conflicts = s.stats().canon.conflicts - before.conflicts;
  return a;
}

void expectSameAnswer(const Answer& a, const Answer& b, size_t i) {
  EXPECT_EQ(a.result, b.result) << "query " << i;
  EXPECT_EQ(a.model, b.model) << "query " << i;
  EXPECT_EQ(a.cost.terms, b.cost.terms) << "query " << i;
  EXPECT_EQ(a.cost.gates, b.cost.gates) << "query " << i;
  EXPECT_EQ(a.cost.conflicts, b.cost.conflicts) << "query " << i;
}

class ScratchReuseTest : public ::testing::TestWithParam<bool> {};

TEST_P(ScratchReuseTest, OneSolverPerSequenceMatchesOnePerQuery) {
  // GetParam(): attach the abstract prefilter, whose Sat verdicts make
  // check() restore the model on the scratch core off the books.
  const bool prefilter = GetParam();
  TermManager tm;
  const auto queries = randomQueries(tm, prefilter ? 11 : 12, 300);
  const TermRef perm = tm.mkNe(tm.mkVar(8, "x"), tm.mkConst(8, 0));
  SmtSolver longLived(tm);
  PreSolver longPre(tm);
  longLived.setFreshMode(true);
  longLived.assertAlways(perm);
  if (prefilter) longLived.setPreSolver(&longPre);
  unsigned sat = 0, unsat = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    SmtSolver once(tm);
    PreSolver oncePre(tm);
    once.setFreshMode(true);
    once.assertAlways(perm);
    if (prefilter) once.setPreSolver(&oncePre);
    const Answer a = ask(longLived, queries[i]);
    expectSameAnswer(a, ask(once, queries[i]), i);
    (a.result == CheckResult::Sat ? sat : unsat) += 1;
  }
  EXPECT_GT(sat, 0u);
  EXPECT_GT(unsat, 0u);
  if (prefilter) {
    EXPECT_GT(longLived.stats().preModelRestores, 0u);
  }
  // The scratch core's aggregates cover every query it solved.
  EXPECT_GT(longLived.telemetrySnapshot().satCore.propagations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Prefilter, ScratchReuseTest, ::testing::Bool());

TEST(ScratchReuse, ParanoidChecksOnTheScratchCoreAgreeWithNewSolvers) {
  // Paranoid mode re-solves every incremental query on the scratch core
  // and throws on a divergent verdict; checkFresh verdicts must match a
  // new solver's for the whole sequence.
  TermManager tm;
  const auto queries = randomQueries(tm, 13, 120);
  SmtSolver paranoid(tm);
  paranoid.setParanoid(true);
  for (size_t i = 0; i < queries.size(); ++i) {
    SmtSolver once(tm);
    const CheckResult r = paranoid.check(queries[i]);
    EXPECT_EQ(r, once.checkFresh(queries[i])) << "query " << i;
    EXPECT_EQ(paranoid.checkFresh(queries[i]), r) << "query " << i;
  }
}

TEST(ScratchReuse, IncrementalReductionsKeepVerdictsOfCheckFresh) {
  // Factor a stream of primes over one shared 26-bit multiplier circuit
  // on one incremental solver: learned clauses pile up across queries and
  // the SAT core's reduceDB() compacts its arena several times. Every
  // verdict must equal checkFresh's.
  TermManager tm;
  const TermRef x = tm.mkVar(26, "x");
  const TermRef y = tm.mkVar(26, "y");
  const TermRef product = tm.mkMul(x, y);
  const std::vector<TermRef> bounds = {
      tm.mkUlt(tm.mkConst(26, 1), x), tm.mkUlt(tm.mkConst(26, 1), y),
      tm.mkUlt(x, tm.mkConst(26, 8192)), tm.mkUlt(y, tm.mkConst(26, 8192))};
  SmtSolver s(tm);
  uint64_t reductions = 0;
  // Primes in reach of two factors below 8192: every query is Unsat.
  const uint64_t primes[] = {48000013, 36000007, 24000001, 56000003,
                             40000003, 30000001, 44000003, 52000007};
  for (size_t round = 0; round < std::size(primes) && reductions < 3;
       ++round) {
    std::vector<TermRef> q = bounds;
    q.push_back(tm.mkEq(product, tm.mkConst(26, primes[round])));
    const uint64_t deleted0 = s.satStats().deletedClauses;
    ASSERT_EQ(s.check(q), CheckResult::Unsat) << "round " << round;
    EXPECT_EQ(s.checkFresh(q), CheckResult::Unsat) << "round " << round;
    if (s.satStats().deletedClauses > deleted0) ++reductions;
  }
  EXPECT_GE(reductions, 3u);
}

}  // namespace
}  // namespace adlsym::smt
