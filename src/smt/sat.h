// CDCL SAT solver: two-watched-literal propagation, first-UIP clause
// learning, EVSIDS branching, Luby restarts, activity-based learned-clause
// deletion, and incremental solving under assumptions. Clause literals live
// in one flat arena, compacted when learned clauses are deleted; reset()
// lets one core serve many independent problems without reallocating.
// This is the decision procedure underneath the bit-blaster (DESIGN.md S2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/error.h"
#include "support/telemetry.h"

namespace adlsym::smt {

/// A literal encodes variable v with sign: 2*v (positive) or 2*v+1 (negated).
struct Lit {
  uint32_t x = 0xffffffff;

  Lit() = default;
  Lit(uint32_t var, bool negated) : x(var * 2 + (negated ? 1 : 0)) {}

  uint32_t var() const { return x >> 1; }
  bool sign() const { return (x & 1) != 0; }  // true = negated
  Lit operator~() const { Lit l; l.x = x ^ 1; return l; }
  bool valid() const { return x != 0xffffffff; }
  friend bool operator==(Lit a, Lit b) { return a.x == b.x; }
  friend bool operator!=(Lit a, Lit b) { return a.x != b.x; }
};

enum class SatResult { Sat, Unsat, Unknown };

class SatSolver {
 public:
  SatSolver();

  /// Allocate a fresh variable; returns its index.
  uint32_t newVar();
  uint32_t numVars() const { return static_cast<uint32_t>(assigns_.size()); }

  /// Add a clause over existing variables. Returns false if the clause set
  /// is already known unsatisfiable (empty clause derived). Allocation-free
  /// once the arena and the normalisation buffer have grown.
  bool addClause(const Lit* lits, size_t n);
  bool addClause(const std::vector<Lit>& lits) {
    return addClause(lits.data(), lits.size());
  }
  bool addUnit(Lit l) { return addClause(&l, 1); }
  bool addBinary(Lit a, Lit b) {
    const Lit c[2] = {a, b};
    return addClause(c, 2);
  }
  bool addTernary(Lit a, Lit b, Lit c) {
    const Lit cl[3] = {a, b, c};
    return addClause(cl, 3);
  }

  /// Return to the just-constructed state (no variables, no clauses, zero
  /// stats, no budget, no deadline) while keeping every buffer's capacity.
  /// Attached telemetry stays attached. A reset core given the same
  /// clauses and assumptions runs exactly the search a new core runs.
  void reset();

  /// Solve under the given assumption literals. The solver state persists:
  /// learned clauses carry over to later calls.
  SatResult solve(const std::vector<Lit>& assumptions = {});

  /// Model access after Sat: value of a variable.
  bool modelValue(uint32_t var) const;
  bool modelValue(Lit l) const { return modelValue(l.var()) != l.sign(); }

  // ---- statistics ----------------------------------------------------
  struct Stats {
    uint64_t conflicts = 0;
    uint64_t decisions = 0;
    uint64_t propagations = 0;
    uint64_t restarts = 0;
    uint64_t learned = 0;
    uint64_t deletedClauses = 0;
    uint64_t deadlineAborts = 0;  // solves abandoned by setDeadline()

    /// Aggregate another core's stats into this one (the fresh-solve mode
    /// of SmtSolver sums its scratch core's stats over every query).
    Stats& operator+=(const Stats& o) {
      conflicts += o.conflicts;
      decisions += o.decisions;
      propagations += o.propagations;
      restarts += o.restarts;
      learned += o.learned;
      deletedClauses += o.deletedClauses;
      deadlineAborts += o.deadlineAborts;
      return *this;
    }
  };
  const Stats& stats() const { return stats_; }
  /// Clauses (problem and learned) stored over this core's lifetime,
  /// including those reduceDB() has since deleted.
  size_t numClauses() const { return clauses_.size() + stats_.deletedClauses; }
  /// Literals held in the clause arena now: live clauses only, since
  /// reduceDB() compacts the arena when it deletes.
  size_t arenaSize() const { return arena_.size(); }

  /// Hard budget: give up (Unknown) after this many conflicts per solve
  /// call. 0 = unlimited.
  void setConflictBudget(uint64_t budget) { conflictBudget_ = budget; }

  /// Wall deadline: give up (Unknown) once `clk` passes `deadlineMicros`
  /// (absolute). Checked at solve entry and at every conflict, so a solve
  /// overshoots by at most one conflict's worth of work. Null clock
  /// disables. The clock is not owned and must outlive the next solve.
  void setDeadline(telemetry::Clock* clk, uint64_t deadlineMicros) {
    deadlineClock_ = clk;
    deadlineMicros_ = deadlineMicros;
  }

  /// Attach telemetry (null to detach): per-solve conflict/decision deltas
  /// go into sat.conflicts_per_solve / sat.decisions_per_solve histograms.
  void setTelemetry(telemetry::Telemetry* t);

 private:
  enum LBool : int8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

  // A clause's literals live in arena_[offset, offset + size). Pointers
  // into the arena are invalidated by pushClause() and reduceDB().
  struct Clause {
    uint32_t offset = 0;
    uint32_t size = 0;
    double activity = 0.0;
    bool learned = false;
  };

  struct Watcher {
    uint32_t clauseIdx;
    Lit blocker;  // fast skip if blocker already true
  };

  LBool litValue(Lit l) const {
    const LBool v = static_cast<LBool>(assigns_[l.var()]);
    if (v == kUndef) return kUndef;
    return (v == kTrue) != l.sign() ? kTrue : kFalse;
  }

  Lit* lits(const Clause& c) { return arena_.data() + c.offset; }
  uint32_t pushClause(const Lit* lits, size_t n, bool learned);

  SatResult solveImpl(const std::vector<Lit>& assumptions);
  void enqueue(Lit l, int32_t reasonClause);
  /// Returns conflicting clause index or -1.
  int32_t propagate();
  /// Learns into learnt_; returns the backtrack level.
  unsigned analyze(int32_t conflictIdx);
  void backtrack(unsigned level);
  void attachClause(uint32_t idx);
  void bumpVar(uint32_t v);
  void decayVarActivity() { varInc_ /= 0.95; }
  void bumpClause(Clause& c);
  uint32_t pickBranchVar();
  void reduceDB();
  void rescaleVarActivity();

  // Heap of variables ordered by activity (lazy deletion: stale entries are
  // skipped on pop).
  void heapPush(uint32_t v);

  std::vector<Clause> clauses_;
  std::vector<Lit> arena_;                     // literals of every clause
  // Indexed by literal. May be longer than 2 * numVars() after reset();
  // the lists past that point are empty and reused by newVar().
  std::vector<std::vector<Watcher>> watches_;
  std::vector<int8_t> assigns_;                // LBool per var
  std::vector<int8_t> savedPhase_;             // phase saving
  std::vector<int32_t> reason_;                // clause idx or -1 per var
  std::vector<uint32_t> level_;                // decision level per var
  std::vector<Lit> trail_;
  std::vector<uint32_t> trailLims_;            // trail size at each level
  size_t qhead_ = 0;

  std::vector<double> activity_;
  double varInc_ = 1.0;
  double clauseInc_ = 1.0;
  std::vector<std::pair<double, uint32_t>> heap_;  // max-heap by activity

  std::vector<uint8_t> seen_;  // scratch for analyze()
  std::vector<Lit> learnt_;    // analyze() output
  std::vector<Lit> minimized_; // analyze() scratch
  std::vector<Lit> addTmp_;    // addClause() normalisation buffer

  bool unsatisfiable_ = false;  // empty clause added at level 0
  Stats stats_;
  uint64_t conflictBudget_ = 0;
  telemetry::Clock* deadlineClock_ = nullptr;
  uint64_t deadlineMicros_ = 0;
  uint64_t learnedLimit_ = 4096;

  telemetry::Counter* solvesCtr_ = nullptr;
  telemetry::Histogram* conflictsHist_ = nullptr;
  telemetry::Histogram* decisionsHist_ = nullptr;
};

}  // namespace adlsym::smt
