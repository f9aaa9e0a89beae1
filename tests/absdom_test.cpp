// Soundness fuzzing for the abstract domain (analysis/absdom.h) and the
// pre-solver built on it (smt/presolver.h). The contract under test is
// containment: for any concrete operand values inside the operand
// abstractions, the concrete result lies inside the abstract result — and
// downstream of it, that a PreSolver verdict never contradicts either the
// bit-blasting solver or a concrete witness. Everything runs on the
// deterministic xorshift PRNG (support/rng.h), so a failure reproduces
// bit-for-bit from the printed iteration seed.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "analysis/absdom.h"
#include "smt/presolver.h"
#include "smt/solver.h"
#include "smt/term.h"
#include "support/rng.h"

namespace adlsym::analysis {
namespace {

using smt::CheckResult;
using smt::Kind;
using smt::TermManager;
using smt::TermRef;

// ---------------------------------------------------- random DAG builder --

/// Grows a random term DAG over a fixed set of variables, through the
/// real simplifying builders (the same path every engine query takes).
struct DagGen {
  TermManager& tm;
  Rng& rng;
  std::vector<TermRef> vars;
  std::vector<TermRef> pool;

  DagGen(TermManager& t, Rng& r, unsigned numVars, unsigned maxWidth)
      : tm(t), rng(r) {
    for (unsigned i = 0; i < numVars; ++i) {
      const unsigned w = 1 + static_cast<unsigned>(rng.below(maxWidth));
      TermRef v = tm.mkVar(w, "v" + std::to_string(i));
      vars.push_back(v);
      pool.push_back(v);
    }
    // A few constants so comparisons against constants (the refinement
    // extractor's bread and butter) actually occur.
    for (unsigned i = 0; i < 3; ++i) {
      const unsigned w = 1 + static_cast<unsigned>(rng.below(maxWidth));
      pool.push_back(tm.mkConst(w, rng.next()));
    }
  }

  TermRef pick() { return pool[rng.below(pool.size())]; }
  TermRef pickAs(unsigned width) { return tm.mkResize(pick(), width); }

  /// Add one random operator application to the pool and return it.
  TermRef grow() {
    const TermRef a = pick();
    const unsigned w = a.width();
    TermRef t;
    switch (rng.below(22)) {
      case 0: t = tm.mkNot(a); break;
      case 1: t = tm.mkNeg(a); break;
      case 2: t = tm.mkAnd(a, pickAs(w)); break;
      case 3: t = tm.mkOr(a, pickAs(w)); break;
      case 4: t = tm.mkXor(a, pickAs(w)); break;
      case 5: t = tm.mkAdd(a, pickAs(w)); break;
      case 6: t = tm.mkSub(a, pickAs(w)); break;
      case 7: t = tm.mkMul(a, pickAs(w)); break;
      case 8: t = tm.mkUDiv(a, pickAs(w)); break;
      case 9: t = tm.mkURem(a, pickAs(w)); break;
      case 10: t = tm.mkSDiv(a, pickAs(w)); break;
      case 11: t = tm.mkSRem(a, pickAs(w)); break;
      case 12: t = tm.mkShl(a, pickAs(w)); break;
      case 13: t = tm.mkLShr(a, pickAs(w)); break;
      case 14: t = tm.mkAShr(a, pickAs(w)); break;
      case 15: t = tm.mkEq(a, pickAs(w)); break;
      case 16: t = tm.mkUlt(a, pickAs(w)); break;
      case 17: t = tm.mkUle(a, pickAs(w)); break;
      case 18: t = tm.mkSlt(a, pickAs(w)); break;
      case 19: {
        const TermRef b = pick();
        if (a.width() + b.width() <= 64) {
          t = tm.mkConcat(a, b);
        } else {
          t = tm.mkSle(a, pickAs(w));
        }
        break;
      }
      case 20: {
        const unsigned hi = static_cast<unsigned>(rng.below(w));
        const unsigned lo = static_cast<unsigned>(rng.below(hi + 1));
        t = tm.mkExtract(a, hi, lo);
        break;
      }
      default:
        t = tm.mkIte(pickAs(1), a, pickAs(w));
        break;
    }
    pool.push_back(t);
    return t;
  }

  /// A random width-1 constraint term.
  TermRef constraint() {
    const TermRef t = pool[vars.size() + rng.below(pool.size() - vars.size())];
    return tm.mkResize(t, 1);
  }
};

uint64_t maskOf(unsigned width) {
  return width >= 64 ? ~0ull : (1ull << width) - 1;
}

/// A random abstraction guaranteed to contain `v`: full top, a singleton,
/// a wrapped arc around v, random known bits of v, or a reduced product
/// of the last two.
AbsValue absContaining(Rng& rng, unsigned width, uint64_t v) {
  const uint64_t m = maskOf(width);
  switch (rng.below(5)) {
    case 0: return AbsValue::top(width);
    case 1: return AbsValue::constant(width, v);
    case 2: {
      // Keep the total span below the modulus, or the inclusive-arc
      // encoding collapses instead of covering the whole circle.
      const uint64_t da = rng.below(8);
      const uint64_t db = rng.below(8);
      if (da + db >= m) return AbsValue::range(width, 0, m);
      return AbsValue::range(width, (v - da) & m, (v + db) & m);
    }
    case 3: {
      const uint64_t care = rng.next() & m;
      return AbsValue::fromBits(width, care, v & care);
    }
    default: {
      AbsValue a;
      a.bits = TernaryPattern{width, rng.next() & m, 0};
      a.bits.value = v & a.bits.care;
      const uint64_t da = rng.below(8);
      const uint64_t db = rng.below(8);
      a.lo = da + db >= m ? 0 : (v - da) & m;
      a.hi = da + db >= m ? m : (v + db) & m;
      return absReduce(a);
    }
  }
}

// ------------------------------------------------- containment soundness --

TEST(AbsDomFuzz, TransferFunctionsContainConcreteValues) {
  Rng rng(0xabcdef12345678ull);
  const int kIters = 12000;
  for (int iter = 0; iter < kIters; ++iter) {
    TermManager tm;
    DagGen gen(tm, rng, /*numVars=*/1 + rng.below(4), /*maxWidth=*/16);
    const unsigned nodes = 1 + static_cast<unsigned>(rng.below(20));
    TermRef root;
    for (unsigned i = 0; i < nodes; ++i) root = gen.grow();

    // One concrete assignment + per-var abstractions containing it.
    std::vector<uint64_t> assign(gen.vars.size());
    TermAbsEvaluator eval(tm);
    for (size_t i = 0; i < gen.vars.size(); ++i) {
      assign[i] = rng.next() & maskOf(gen.vars[i].width());
      eval.bind(gen.vars[i].id(),
                absContaining(rng, gen.vars[i].width(), assign[i]));
    }
    const uint64_t concrete = tm.evalWith(
        root, [&](uint32_t varIdx) { return assign[varIdx]; });

    const std::optional<AbsValue> abs = eval.eval(root);
    ASSERT_TRUE(abs.has_value()) << "budget cannot bind at 20 nodes";
    ASSERT_FALSE(abs->bot) << "iter " << iter << ": nonempty input product "
                           << "evaluated to bottom";
    ASSERT_TRUE(abs->contains(concrete))
        << "iter " << iter << ": concrete " << concrete << " outside "
        << abs->str();
  }
}

TEST(AbsDomFuzz, JoinAndMeetRespectMembership) {
  Rng rng(0x5eed5eed5eedull);
  for (int iter = 0; iter < 4000; ++iter) {
    const unsigned w = 1 + static_cast<unsigned>(rng.below(16));
    const uint64_t m = maskOf(w);
    const uint64_t x = rng.next() & m;
    const uint64_t y = rng.next() & m;
    const AbsValue a = absContaining(rng, w, x);
    const AbsValue b = absContaining(rng, w, y);
    // Join contains both sides' members.
    const AbsValue j = absJoin(a, b);
    EXPECT_TRUE(j.contains(x)) << j.str();
    EXPECT_TRUE(j.contains(y)) << j.str();
    // Meet contains everything in BOTH operands.
    const AbsValue g = absMeet(a, b);
    if (a.contains(y) && b.contains(y)) {
      EXPECT_TRUE(g.contains(y)) << a.str() << " meet " << b.str() << " = "
                                 << g.str();
    }
    // absPickConcrete returns an actual member.
    if (const auto witness = absPickConcrete(j)) {
      EXPECT_TRUE(j.contains(*witness));
    }
  }
}

// ----------------------------------------------- verdicts vs bit-blasting --

/// Concretely evaluate one constraint set under one assignment.
bool satisfiedBy(TermManager& tm, const std::vector<TermRef>& cs,
                 const std::vector<uint64_t>& assign) {
  for (const TermRef& c : cs) {
    if (tm.evalWith(c, [&](uint32_t v) {
          return v < assign.size() ? assign[v] : 0;
        }) == 0) {
      return false;
    }
  }
  return true;
}

TEST(AbsDomFuzz, PreSolverNeverContradictsBitBlasting) {
  Rng rng(0x7e57c0de7e57ull);
  int sat = 0, unsat = 0, unknown = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    TermManager tm;
    DagGen gen(tm, rng, 1 + rng.below(3), /*maxWidth=*/12);
    const unsigned nodes = 1 + static_cast<unsigned>(rng.below(16));
    for (unsigned i = 0; i < nodes; ++i) gen.grow();
    std::vector<TermRef> constraints;
    const unsigned n = 1 + static_cast<unsigned>(rng.below(3));
    for (unsigned i = 0; i < n; ++i) constraints.push_back(gen.constraint());

    smt::PreSolver pre(tm);
    const smt::PreVerdict v = pre.judge({}, constraints);

    if (v.result == CheckResult::Unknown) {
      ++unknown;
      continue;
    }
    smt::SmtSolver solver(tm);
    const CheckResult ground = solver.checkFresh(constraints);
    ASSERT_NE(ground, CheckResult::Unknown);
    EXPECT_EQ(v.result, ground)
        << "iter " << iter << ": abstract verdict contradicts the solver";
    if (v.result == CheckResult::Sat) ++sat; else ++unsat;
    if (v.result == CheckResult::Unsat) {
      EXPECT_GE(v.coreConstraints, 1u);
      EXPECT_LE(v.coreConstraints, constraints.size());
    }
  }
  // The domains must actually decide a nontrivial share of random
  // queries, or the prefilter is dead weight — guard against a silent
  // always-Unknown regression.
  EXPECT_GT(sat + unsat, 100) << "sat=" << sat << " unsat=" << unsat
                              << " unknown=" << unknown;
}

TEST(AbsDomFuzz, ConcretelySatisfiableIsNeverJudgedUnsat) {
  Rng rng(0xf00dfeedf00dull);
  for (int iter = 0; iter < 4000; ++iter) {
    TermManager tm;
    DagGen gen(tm, rng, 1 + rng.below(4), /*maxWidth=*/16);
    const unsigned nodes = 1 + static_cast<unsigned>(rng.below(20));
    for (unsigned i = 0; i < nodes; ++i) gen.grow();
    std::vector<TermRef> constraints;
    const unsigned n = 1 + static_cast<unsigned>(rng.below(3));
    for (unsigned i = 0; i < n; ++i) constraints.push_back(gen.constraint());

    std::vector<uint64_t> assign(gen.vars.size());
    for (size_t i = 0; i < assign.size(); ++i) {
      assign[i] = rng.next() & maskOf(gen.vars[i].width());
    }
    if (!satisfiedBy(tm, constraints, assign)) continue;

    smt::PreSolver pre(tm);
    const smt::PreVerdict v = pre.judge({}, constraints);
    EXPECT_NE(v.result, CheckResult::Unsat)
        << "iter " << iter
        << ": a concrete witness satisfies a query judged Unsat";
  }
}

// The permanent/assumption split must not change the verdict: judge() is
// over the union.
TEST(AbsDomFuzz, PermanentAssumptionSplitIsIrrelevant) {
  Rng rng(0x51017711ull);
  for (int iter = 0; iter < 1000; ++iter) {
    TermManager tm;
    DagGen gen(tm, rng, 1 + rng.below(3), /*maxWidth=*/12);
    for (unsigned i = 0; i < 12; ++i) gen.grow();
    std::vector<TermRef> cs;
    for (unsigned i = 0; i < 3; ++i) cs.push_back(gen.constraint());

    smt::PreSolver preA(tm);
    smt::PreSolver preB(tm);
    const auto a = preA.judge({}, cs);
    const auto b = preB.judge({cs[0]}, {cs[1], cs[2]});
    EXPECT_EQ(a.result, b.result) << "iter " << iter;
  }
}

}  // namespace
}  // namespace adlsym::analysis
