#include <gtest/gtest.h>

#include "smt/sat.h"
#include "support/rng.h"

namespace adlsym::smt {
namespace {

Lit pos(uint32_t v) { return Lit(v, false); }
Lit neg(uint32_t v) { return Lit(v, true); }

TEST(Sat, TrivialSat) {
  SatSolver s;
  const uint32_t a = s.newVar();
  s.addUnit(pos(a));
  EXPECT_EQ(s.solve(), SatResult::Sat);
  EXPECT_TRUE(s.modelValue(a));
}

TEST(Sat, TrivialUnsat) {
  SatSolver s;
  const uint32_t a = s.newVar();
  s.addUnit(pos(a));
  EXPECT_FALSE(s.addUnit(neg(a)));
  EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, EmptyClauseViaSimplification) {
  SatSolver s;
  const uint32_t a = s.newVar();
  s.addUnit(neg(a));
  // Clause {a} simplifies to empty at level 0.
  EXPECT_FALSE(s.addClause({pos(a)}));
  EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, TautologyAndDuplicatesIgnored) {
  SatSolver s;
  const uint32_t a = s.newVar();
  const uint32_t b = s.newVar();
  EXPECT_TRUE(s.addClause({pos(a), neg(a)}));       // tautology
  EXPECT_TRUE(s.addClause({pos(b), pos(b), pos(b)}));  // collapses to unit
  EXPECT_EQ(s.solve(), SatResult::Sat);
  EXPECT_TRUE(s.modelValue(b));
}

TEST(Sat, PropagationChain) {
  SatSolver s;
  std::vector<uint32_t> v;
  for (int i = 0; i < 10; ++i) v.push_back(s.newVar());
  // v0 and a chain v_i -> v_{i+1}.
  s.addUnit(pos(v[0]));
  for (int i = 0; i + 1 < 10; ++i) s.addBinary(neg(v[i]), pos(v[i + 1]));
  EXPECT_EQ(s.solve(), SatResult::Sat);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(s.modelValue(v[i]));
}

TEST(Sat, PigeonholeUnsat) {
  // 4 pigeons in 3 holes: classic small UNSAT requiring real search.
  SatSolver s;
  const int P = 4;
  const int H = 3;
  uint32_t x[4][3];
  for (int p = 0; p < P; ++p) {
    for (int h = 0; h < H; ++h) x[p][h] = s.newVar();
  }
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> some;
    for (int h = 0; h < H; ++h) some.push_back(pos(x[p][h]));
    s.addClause(some);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        s.addBinary(neg(x[p1][h]), neg(x[p2][h]));
      }
    }
  }
  EXPECT_EQ(s.solve(), SatResult::Unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Sat, AssumptionsAreTemporary) {
  SatSolver s;
  const uint32_t a = s.newVar();
  const uint32_t b = s.newVar();
  s.addBinary(neg(a), pos(b));  // a -> b
  EXPECT_EQ(s.solve({pos(a), neg(b)}), SatResult::Unsat);
  EXPECT_EQ(s.solve({pos(a)}), SatResult::Sat);
  EXPECT_TRUE(s.modelValue(b));
  EXPECT_EQ(s.solve({neg(b)}), SatResult::Sat);  // still sat without a
  EXPECT_FALSE(s.modelValue(a));
  EXPECT_EQ(s.solve(), SatResult::Sat);  // and with none
}

TEST(Sat, ConflictingAssumptionsDirectly) {
  SatSolver s;
  const uint32_t a = s.newVar();
  EXPECT_EQ(s.solve({pos(a), neg(a)}), SatResult::Unsat);
  EXPECT_EQ(s.solve({pos(a)}), SatResult::Sat);
}

TEST(Sat, IncrementalClausesAfterSolve) {
  SatSolver s;
  const uint32_t a = s.newVar();
  const uint32_t b = s.newVar();
  s.addBinary(pos(a), pos(b));
  EXPECT_EQ(s.solve(), SatResult::Sat);
  // Add clauses after a Sat answer (the bit-blaster does this constantly).
  const uint32_t c = s.newVar();
  s.addBinary(neg(a), pos(c));
  s.addBinary(neg(b), pos(c));
  EXPECT_EQ(s.solve(), SatResult::Sat);
  EXPECT_TRUE(s.modelValue(c));
}

TEST(Sat, ConflictBudgetReturnsUnknown) {
  // A hard pigeonhole with a tiny budget must give up, not hang or crash.
  SatSolver s;
  const int P = 8;
  const int H = 7;
  std::vector<std::vector<uint32_t>> x(P, std::vector<uint32_t>(H));
  for (auto& row : x) {
    for (auto& v : row) v = s.newVar();
  }
  for (int p = 0; p < P; ++p) {
    std::vector<Lit> some;
    for (int h = 0; h < H; ++h) some.push_back(pos(x[p][h]));
    s.addClause(some);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        s.addBinary(neg(x[p1][h]), neg(x[p2][h]));
      }
    }
  }
  s.setConflictBudget(10);
  EXPECT_EQ(s.solve(), SatResult::Unknown);
  s.setConflictBudget(0);
  EXPECT_EQ(s.solve(), SatResult::Unsat);
}

// Random 3-SAT instances, cross-checked against a brute-force evaluator.
class SatRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SatRandomTest, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const unsigned numVars = 10;
  const unsigned numClauses = 35 + static_cast<unsigned>(rng.below(20));
  std::vector<std::vector<Lit>> clauses;
  SatSolver s;
  for (unsigned v = 0; v < numVars; ++v) s.newVar();
  for (unsigned i = 0; i < numClauses; ++i) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k) {
      cl.push_back(Lit(static_cast<uint32_t>(rng.below(numVars)),
                       rng.below(2) == 0));
    }
    clauses.push_back(cl);
    s.addClause(cl);
  }
  // Brute force over all 2^10 assignments.
  bool expectSat = false;
  for (uint32_t m = 0; m < (1u << numVars) && !expectSat; ++m) {
    bool all = true;
    for (const auto& cl : clauses) {
      bool any = false;
      for (const Lit l : cl) {
        const bool val = ((m >> l.var()) & 1) != 0;
        if (val != l.sign()) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    expectSat = all;
  }
  const SatResult r = s.solve();
  EXPECT_EQ(r, expectSat ? SatResult::Sat : SatResult::Unsat);
  if (r == SatResult::Sat) {
    // Verify the model actually satisfies every clause.
    for (const auto& cl : clauses) {
      bool any = false;
      for (const Lit l : cl) any = any || s.modelValue(l);
      EXPECT_TRUE(any);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random3Sat, SatRandomTest, ::testing::Range(0, 40));

// ---- reset(): a reused core is indistinguishable from a new one ---------

void expectSameCore(const SatSolver& a, const SatSolver& b) {
  EXPECT_EQ(a.numVars(), b.numVars());
  EXPECT_EQ(a.numClauses(), b.numClauses());
  EXPECT_EQ(a.arenaSize(), b.arenaSize());
  const SatSolver::Stats& x = a.stats();
  const SatSolver::Stats& y = b.stats();
  EXPECT_EQ(x.conflicts, y.conflicts);
  EXPECT_EQ(x.decisions, y.decisions);
  EXPECT_EQ(x.propagations, y.propagations);
  EXPECT_EQ(x.restarts, y.restarts);
  EXPECT_EQ(x.learned, y.learned);
  EXPECT_EQ(x.deletedClauses, y.deletedClauses);
  EXPECT_EQ(x.deadlineAborts, y.deadlineAborts);
}

std::vector<Lit> randomClause(Rng& rng, uint32_t numVars, unsigned len) {
  std::vector<Lit> cl;
  for (unsigned k = 0; k < len; ++k) {
    cl.push_back(Lit(static_cast<uint32_t>(rng.below(numVars)),
                     rng.below(2) == 0));
  }
  return cl;
}

// Drive `s` through one seeded random problem: clauses of length 1-5
// (duplicates and tautologies included), two solves under random
// assumptions with clauses added in between, some under a conflict
// budget. Records every verdict and Sat model into `trace`, and counts
// verdicts by kind into `kinds`.
void runRandomProblem(SatSolver& s, uint64_t seed,
                      std::vector<uint64_t>& trace, unsigned kinds[3]) {
  Rng rng(seed);
  const uint32_t numVars = 8 + static_cast<uint32_t>(rng.below(72));
  const unsigned numClauses =
      numVars * 3 + static_cast<unsigned>(rng.below(numVars * 2 + 1));
  for (uint32_t v = 0; v < numVars; ++v) s.newVar();
  if (rng.below(8) == 0) s.setConflictBudget(1 + rng.below(4));
  for (int round = 0; round < 2; ++round) {
    for (unsigned i = 0; i < numClauses / (round + 1); ++i) {
      const unsigned len = 1 + static_cast<unsigned>(
                                   rng.below(64) == 0 ? 0 : 1 + rng.below(4));
      s.addClause(randomClause(rng, numVars, len));
    }
    const std::vector<Lit> assumptions =
        randomClause(rng, numVars, static_cast<unsigned>(rng.below(5)));
    const SatResult r = s.solve(assumptions);
    trace.push_back(static_cast<uint64_t>(r));
    ++kinds[static_cast<int>(r)];
    if (r == SatResult::Sat) {
      for (uint32_t v = 0; v < numVars; ++v) trace.push_back(s.modelValue(v));
    }
  }
}

TEST(SatReset, ReusedCoreMatchesNewCoreOnRandomProblems) {
  SatSolver reused;
  unsigned kinds[3] = {0, 0, 0};  // indexed by SatResult
  for (uint64_t seed = 0; seed < 1200; ++seed) {
    SatSolver fresh;
    reused.reset();
    std::vector<uint64_t> freshTrace, reusedTrace;
    runRandomProblem(fresh, seed, freshTrace, kinds);
    runRandomProblem(reused, seed, reusedTrace, kinds);
    ASSERT_EQ(freshTrace, reusedTrace) << "seed " << seed;
    expectSameCore(fresh, reused);
  }
  // The stream covers every verdict.
  EXPECT_GT(kinds[static_cast<int>(SatResult::Sat)], 0u);
  EXPECT_GT(kinds[static_cast<int>(SatResult::Unsat)], 0u);
  EXPECT_GT(kinds[static_cast<int>(SatResult::Unknown)], 0u);
}

// Random 3-SAT near the phase transition: hard enough to need thousands of
// conflicts per instance at 120 variables.
std::vector<std::vector<Lit>> hard3Sat(Rng& rng, uint32_t base,
                                       uint32_t numVars) {
  std::vector<std::vector<Lit>> clauses;
  const unsigned numClauses = numVars * 426 / 100;
  for (unsigned i = 0; i < numClauses; ++i) {
    std::vector<Lit> cl = randomClause(rng, numVars, 3);
    for (Lit& l : cl) l = Lit(base + l.var(), l.sign());
    clauses.push_back(cl);
  }
  return clauses;
}

TEST(SatReset, ReductionsCompactTheArenaOfAnIncrementalCore) {
  // One long-lived core solves a stream of hard instances, each guarded
  // by a selector literal and solved under it, so learned clauses pile
  // up across solves and reduceDB() runs several times. Verdicts must
  // match a new core per instance, and the arena must shrink when
  // reductions delete clauses instead of growing monotonically.
  const uint32_t numVars = 120;
  SatSolver incr;
  for (uint32_t v = 0; v < numVars; ++v) incr.newVar();
  Rng rng(7);
  bool shrank = false;
  unsigned reductions = 0;
  for (int round = 0; round < 60 && reductions < 3; ++round) {
    const auto clauses = hard3Sat(rng, 0, numVars);
    SatSolver fresh;
    for (uint32_t v = 0; v < numVars; ++v) fresh.newVar();
    const Lit sel = Lit(incr.newVar(), false);
    for (const auto& cl : clauses) {
      fresh.addClause(cl);
      std::vector<Lit> guarded = cl;
      guarded.push_back(~sel);
      incr.addClause(guarded);
    }
    const uint64_t deleted0 = incr.stats().deletedClauses;
    const size_t arena0 = incr.arenaSize();
    ASSERT_EQ(incr.solve({sel}), fresh.solve()) << "round " << round;
    incr.addUnit(~sel);  // retire the instance
    if (incr.stats().deletedClauses > deleted0) ++reductions;
    if (incr.arenaSize() < arena0) shrank = true;
  }
  EXPECT_GE(reductions, 3u);
  EXPECT_TRUE(shrank);
}

}  // namespace
}  // namespace adlsym::smt
