// Exploration-driver behavior: strategies, budgets, determinism, and
// path-count laws on programs with known path structure.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/testgen.h"
#include "driver/session.h"
#include "support/telemetry.h"
#include "workloads/programs.h"

namespace adlsym::core {
namespace {

using driver::Session;
using driver::SessionOptions;

TEST(Explorer, PathCountLaws) {
  // progEarlyExit(b) has exactly b+1 paths; progBitcount(k) exactly 2^k.
  for (unsigned b : {1u, 3u, 5u}) {
    auto s = Session::forPortable(workloads::progEarlyExit(b), "rv32e");
    EXPECT_EQ(s->explore().paths.size(), b + 1) << "bound " << b;
  }
  for (unsigned k : {1u, 3u, 5u}) {
    auto s = Session::forPortable(workloads::progBitcount(k), "rv32e");
    EXPECT_EQ(s->explore().paths.size(), size_t{1} << k) << "bits " << k;
  }
}

TEST(Explorer, AllStrategiesFindAllPaths) {
  // On a finite program every strategy must enumerate the same path set.
  for (const SearchStrategy strat :
       {SearchStrategy::DFS, SearchStrategy::BFS, SearchStrategy::Random,
        SearchStrategy::Coverage}) {
    SessionOptions opt;
    opt.explorer.strategy = strat;
    auto s = Session::forPortable(workloads::progBitcount(4), "rv32e", opt);
    const auto summary = s->explore();
    EXPECT_EQ(summary.paths.size(), 16u) << strategyName(strat);
    // Outputs = popcounts: multiset {0,1,1,2,...}.
    std::vector<uint64_t> outs;
    for (const auto& p : summary.paths) outs.push_back(p.outputs.at(0));
    std::sort(outs.begin(), outs.end());
    EXPECT_EQ(std::count(outs.begin(), outs.end(), 2u), 6);  // C(4,2)
    EXPECT_EQ(outs.front(), 0u);
    EXPECT_EQ(outs.back(), 4u);
  }
}

TEST(Explorer, DeterministicAcrossRuns) {
  auto run = [] {
    SessionOptions opt;
    opt.explorer.strategy = SearchStrategy::Random;
    opt.explorer.rngSeed = 7;
    auto s = Session::forPortable(workloads::progMax(4), "rv32e", opt);
    std::string log;
    for (const auto& p : s->explore().paths) log += formatPath(p) + "\n";
    return log;
  };
  EXPECT_EQ(run(), run());
}

TEST(Explorer, MaxPathsBudget) {
  SessionOptions opt;
  opt.explorer.maxPaths = 3;
  auto s = Session::forPortable(workloads::progBitcount(6), "rv32e", opt);
  const auto summary = s->explore();
  // maxPaths bounds *completed* paths; the leftover frontier is reported
  // as Truncated{paths} instead of silently vanishing.
  unsigned completed = 0;
  for (const auto& p : summary.paths) {
    completed += p.status != PathStatus::Truncated ? 1 : 0;
  }
  EXPECT_LE(completed, 3u);
  EXPECT_EQ(summary.stopReason, "max-paths");
  EXPECT_GT(summary.statesTruncated, 0u);
  // Every forked state is accounted for.
  EXPECT_EQ(1 + summary.totalForks, summary.paths.size() +
                                        summary.statesDropped +
                                        summary.statesMerged);
}

TEST(Explorer, MaxStepsPerPathProducesBudgetStatus) {
  // Infinite loop: the path must end as Budget, not hang.
  SessionOptions opt;
  opt.explorer.maxStepsPerPath = 50;
  opt.explorer.maxTotalSteps = 1000;
  Session s("rv32e", R"(
  loop:
    addi x1, x1, 1
    jal x0, loop
  )", opt);
  const auto summary = s.explore();
  ASSERT_GE(summary.paths.size(), 1u);
  EXPECT_EQ(summary.paths[0].status, PathStatus::Budget);
  EXPECT_LE(summary.totalSteps, 1001u);
}

TEST(Explorer, TotalStepBudgetClosesFrontier) {
  SessionOptions opt;
  opt.explorer.maxTotalSteps = 20;
  auto s = Session::forPortable(workloads::progBitcount(8), "rv32e", opt);
  const auto summary = s->explore();
  EXPECT_LE(summary.totalSteps, 21u);
  // Remaining frontier states are accounted as Truncated{steps} paths.
  unsigned truncated = 0;
  for (const auto& p : summary.paths) {
    if (p.status == PathStatus::Truncated) {
      ++truncated;
      EXPECT_EQ(p.truncReason, TruncReason::Steps);
    }
  }
  EXPECT_GT(truncated, 0u);
  EXPECT_EQ(summary.statesTruncated, truncated);
  EXPECT_EQ(summary.stopReason, "max-steps");
}

TEST(Explorer, StopAtFirstDefect) {
  SessionOptions opt;
  opt.explorer.stopAtFirstDefect = true;
  Session s("rv32e", R"(
    in8 x1
    addi x2, x0, 100
    divu x3, x2, x1
    in8 x4
    divu x3, x2, x4
    halti 0
  )", opt);
  const auto summary = s.explore();
  EXPECT_EQ(summary.numDefects(), 1u);  // stopped before the second one
}

TEST(Explorer, CoverageCounts) {
  auto s = Session::forPortable(workloads::progFib(5), "rv32e");
  const auto summary = s->explore();
  EXPECT_GT(summary.coveredPcs, 5u);
  EXPECT_EQ(summary.paths.size(), 1u);
  EXPECT_GT(summary.totalSteps, 20u);
}

TEST(Explorer, StateMergingCollapsesDiamonds) {
  // bitcount is a chain of k independent diamonds: with merging the
  // exponential path count collapses (one merged path per reconvergence).
  SessionOptions merged;
  merged.explorer.mergeStates = true;
  // Merging needs reconverging states to coexist on the frontier, so it
  // pairs with breadth-first scheduling (DFS completes one side of a
  // diamond before the other side reaches the join).
  merged.explorer.strategy = SearchStrategy::BFS;
  SessionOptions plain;
  for (const unsigned k : {4u, 6u}) {
    auto sm = Session::forPortable(workloads::progBitcount(k), "rv32e", merged);
    auto sp = Session::forPortable(workloads::progBitcount(k), "rv32e", plain);
    const auto rm = sm->explore();
    const auto rp = sp->explore();
    EXPECT_EQ(rp.paths.size(), size_t{1} << k);
    EXPECT_LT(rm.paths.size(), rp.paths.size() / 2) << "k=" << k;
    EXPECT_GT(rm.statesMerged, 0u);
    // Every merged-path witness still replays to its predicted outputs.
    for (const auto& p : rm.paths) {
      ASSERT_EQ(p.status, PathStatus::Exited);
      const auto r = sm->replay(p.test);
      EXPECT_EQ(r.outputs, p.outputs) << formatPath(p);
      EXPECT_EQ(r.exitCode, *p.exitCode);
    }
  }
}

TEST(Explorer, StateMergingPreservesDefectDetection) {
  SessionOptions merged;
  merged.explorer.mergeStates = true;
  merged.explorer.strategy = SearchStrategy::BFS;
  Session s("rv32e", R"(
    in8 x1
    addi x2, x0, 5
    bltu x1, x2, small
    addi x3, x0, 1
    jal x0, join
  small:
    addi x3, x0, 2
  join:
    addi x4, x0, 100
    sub x5, x1, x1      ; x5 = 0 on every path
    divu x6, x4, x5     ; definite division by zero after the merge
    halti 0
  )", merged);
  const auto summary = s.explore();
  EXPECT_GE(summary.statesMerged, 1u);
  ASSERT_EQ(summary.numDefects(), 1u);
  for (const auto& p : summary.paths) {
    if (!p.defect) continue;
    EXPECT_EQ(p.defect->kind, DefectKind::DivByZero);
    const auto r = s.replay(p.defect->witness);
    ASSERT_TRUE(r.defect.has_value());
    EXPECT_EQ(r.defect->kind, DefectKind::DivByZero);
  }
}

TEST(Explorer, StateMergingRespectsIncompatibleTraces) {
  // Outputs diverge in *count* across the branches: no merge may happen,
  // and results must match the unmerged exploration.
  SessionOptions merged;
  merged.explorer.mergeStates = true;
  merged.explorer.strategy = SearchStrategy::BFS;
  const char* src = R"(
    in8 x1
    beq x1, x0, quiet
    out x1              ; only this arm emits
  quiet:
    out x1
    halti 0
  )";
  Session sm("rv32e", src, merged);
  Session sp("rv32e", src);
  const auto rm = sm.explore();
  const auto rp = sp.explore();
  EXPECT_EQ(rm.paths.size(), rp.paths.size());
  EXPECT_EQ(rm.statesMerged, 0u);
}

TEST(Explorer, TelemetryTimesEveryStepAndQuery) {
  // The registry holds timings, not counts: the summary and the solver
  // stats own those. Each timing histogram still records once per event
  // its owner counts.
  telemetry::ManualClock clk;
  telemetry::Telemetry tel(clk);
  SessionOptions opt;
  opt.telemetry = &tel;
  auto s = Session::forPortable(workloads::progBitcount(4), "rv32e", opt);
  const auto summary = s->explore();
  auto& m = tel.metrics();
  EXPECT_GT(summary.totalSteps, 0u);
  EXPECT_EQ(m.histogram("engine.decode_us").count(), summary.totalSteps);
  EXPECT_GT(m.gauge("explore.frontier_peak").value, 0);
  EXPECT_GT(s->solver().stats().queries, 0u);
  EXPECT_EQ(m.histogram("solver.query_us").count(),
            s->solver().stats().queries);
}

TEST(Explorer, MaxWallSecondsUsesInjectableClock) {
  // Each clock read advances 0.1 simulated seconds, so the 0.5 s budget
  // closes the frontier after a deterministic number of steps — no real
  // time is involved.
  auto run = [] {
    telemetry::ManualClock clk(100000);
    telemetry::Telemetry tel(clk);
    SessionOptions opt;
    opt.telemetry = &tel;
    opt.explorer.maxWallSeconds = 0.5;
    Session s("rv32e", R"(
    loop:
      addi x1, x1, 1
      jal x0, loop
    )", opt);
    return s.explore();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_GE(a.paths.size(), 1u);
  EXPECT_EQ(a.paths[0].status, PathStatus::Truncated);
  EXPECT_EQ(a.paths[0].truncReason, TruncReason::Wall);
  EXPECT_EQ(a.stopReason, "wall");
  EXPECT_EQ(a.totalSteps, b.totalSteps);
  EXPECT_DOUBLE_EQ(a.wallSeconds, b.wallSeconds);
  EXPECT_GT(a.wallSeconds, 0.5);
}

TEST(Explorer, DfsDivesBfsSweeps) {
  // On progEarlyExit, DFS completes the deepest path late, BFS finds the
  // shortest path (immediate zero) first.
  SessionOptions dfs;
  dfs.explorer.strategy = SearchStrategy::DFS;
  SessionOptions bfs;
  bfs.explorer.strategy = SearchStrategy::BFS;
  auto sd = Session::forPortable(workloads::progEarlyExit(4), "rv32e", dfs);
  auto sb = Session::forPortable(workloads::progEarlyExit(4), "rv32e", bfs);
  const auto rd = sd->explore();
  const auto rb = sb->explore();
  ASSERT_EQ(rd.paths.size(), 5u);
  ASSERT_EQ(rb.paths.size(), 5u);
  // BFS: first completed path is the one that exits immediately (count 0).
  EXPECT_EQ(rb.paths.front().outputs.at(0), 0u);
  // DFS: the last completed path is the full-length run under our
  // ordering; its loop count is maximal.
  uint64_t maxOut = 0;
  for (const auto& p : rd.paths) maxOut = std::max(maxOut, p.outputs.at(0));
  EXPECT_EQ(maxOut, 4u);
}

}  // namespace
}  // namespace adlsym::core
