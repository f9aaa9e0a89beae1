#include "smt/sat.h"

#include <algorithm>
#include <cmath>

namespace adlsym::smt {

namespace {
/// Luby sequence for restart scheduling (Knuth's formulation).
uint64_t luby(uint64_t i) {
  uint64_t k = 1;
  while ((uint64_t{1} << k) - 1 < i + 1) ++k;
  while ((uint64_t{1} << k) - 1 != i + 1) {
    i -= (uint64_t{1} << (k - 1)) - 1;
    k = 1;
    while ((uint64_t{1} << k) - 1 < i + 1) ++k;
  }
  return uint64_t{1} << (k - 1);
}
}  // namespace

SatSolver::SatSolver() = default;

void SatSolver::reset() {
  for (size_t i = 0; i < 2 * size_t{numVars()}; ++i) watches_[i].clear();
  clauses_.clear();
  arena_.clear();
  assigns_.clear();
  savedPhase_.clear();
  reason_.clear();
  level_.clear();
  trail_.clear();
  trailLims_.clear();
  qhead_ = 0;
  activity_.clear();
  varInc_ = 1.0;
  clauseInc_ = 1.0;
  heap_.clear();
  seen_.clear();
  unsatisfiable_ = false;
  stats_ = Stats{};
  conflictBudget_ = 0;
  deadlineClock_ = nullptr;
  deadlineMicros_ = 0;
  learnedLimit_ = 4096;
}

uint32_t SatSolver::newVar() {
  const uint32_t v = static_cast<uint32_t>(assigns_.size());
  assigns_.push_back(kUndef);
  savedPhase_.push_back(kFalse);
  reason_.push_back(-1);
  level_.push_back(0);
  activity_.push_back(0.0);
  seen_.push_back(0);
  if (watches_.size() < 2 * size_t{numVars()}) {
    watches_.resize(2 * size_t{numVars()});
  }
  heapPush(v);
  return v;
}

void SatSolver::heapPush(uint32_t v) {
  heap_.emplace_back(activity_[v], v);
  std::push_heap(heap_.begin(), heap_.end());
}

bool SatSolver::addClause(const Lit* lits, size_t n) {
  if (unsatisfiable_) return false;
  // After a Sat result the trail still holds the model; new clauses (e.g.
  // from incremental bit-blasting) first unwind to the root level.
  backtrack(0);
  // Normalize in addTmp_: drop duplicate and false literals; detect
  // tautologies and already-satisfied clauses at level 0.
  addTmp_.assign(lits, lits + n);
  std::sort(addTmp_.begin(), addTmp_.end(),
            [](Lit a, Lit b) { return a.x < b.x; });
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    const Lit l = addTmp_[i];
    if (i + 1 < n && addTmp_[i + 1] == ~l) return true;  // tautology
    if (out != 0 && addTmp_[out - 1] == l) continue;
    check(l.var() < numVars(), "clause literal references unknown variable");
    const LBool v = litValue(l);
    if (v == kTrue) return true;  // satisfied at level 0
    if (v == kFalse) continue;    // falsified at level 0: drop
    addTmp_[out++] = l;
  }
  if (out == 0) {
    unsatisfiable_ = true;
    return false;
  }
  if (out == 1) {
    enqueue(addTmp_[0], -1);
    if (propagate() != -1) {
      unsatisfiable_ = true;
      return false;
    }
    return true;
  }
  attachClause(pushClause(addTmp_.data(), out, /*learned=*/false));
  return true;
}

uint32_t SatSolver::pushClause(const Lit* lits, size_t n, bool learned) {
  const uint32_t idx = static_cast<uint32_t>(clauses_.size());
  Clause c;
  c.offset = static_cast<uint32_t>(arena_.size());
  c.size = static_cast<uint32_t>(n);
  c.learned = learned;
  arena_.insert(arena_.end(), lits, lits + n);
  clauses_.push_back(c);
  return idx;
}

void SatSolver::attachClause(uint32_t idx) {
  const Lit* c = lits(clauses_[idx]);
  watches_[(~c[0]).x].push_back({idx, c[1]});
  watches_[(~c[1]).x].push_back({idx, c[0]});
}

void SatSolver::enqueue(Lit l, int32_t reasonClause) {
  assigns_[l.var()] = l.sign() ? kFalse : kTrue;
  savedPhase_[l.var()] = assigns_[l.var()];
  reason_[l.var()] = reasonClause;
  level_[l.var()] = static_cast<uint32_t>(trailLims_.size());
  trail_.push_back(l);
}

int32_t SatSolver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    std::vector<Watcher>& ws = watches_[p.x];
    size_t keep = 0;
    for (size_t i = 0; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      if (litValue(w.blocker) == kTrue) {
        ws[keep++] = w;
        continue;
      }
      const Clause& c = clauses_[w.clauseIdx];
      Lit* cl = lits(c);
      // Ensure the false literal ~p is at position 1.
      if (cl[0] == ~p) std::swap(cl[0], cl[1]);
      if (litValue(cl[0]) == kTrue) {
        ws[keep++] = {w.clauseIdx, cl[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (size_t k = 2; k < c.size; ++k) {
        if (litValue(cl[k]) != kFalse) {
          std::swap(cl[1], cl[k]);
          watches_[(~cl[1]).x].push_back({w.clauseIdx, cl[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Clause is unit or conflicting.
      ws[keep++] = w;
      if (litValue(cl[0]) == kFalse) {
        // Conflict: keep remaining watchers, then report.
        for (size_t k = i + 1; k < ws.size(); ++k) ws[keep++] = ws[k];
        ws.resize(keep);
        qhead_ = trail_.size();
        return static_cast<int32_t>(w.clauseIdx);
      }
      enqueue(cl[0], static_cast<int32_t>(w.clauseIdx));
    }
    ws.resize(keep);
  }
  return -1;
}

void SatSolver::bumpVar(uint32_t v) {
  activity_[v] += varInc_;
  if (activity_[v] > 1e100) rescaleVarActivity();
  heapPush(v);  // lazy: stale smaller entries remain and are skipped
}

void SatSolver::rescaleVarActivity() {
  for (double& a : activity_) a *= 1e-100;
  varInc_ *= 1e-100;
  // Heap entries are stale after rescale; rebuild.
  heap_.clear();
  for (uint32_t v = 0; v < numVars(); ++v) heapPush(v);
}

void SatSolver::bumpClause(Clause& c) {
  c.activity += clauseInc_;
  if (c.activity > 1e20) {
    for (Clause& cl : clauses_) cl.activity *= 1e-20;
    clauseInc_ *= 1e-20;
  }
}

unsigned SatSolver::analyze(int32_t conflictIdx) {
  std::vector<Lit>& learnt = learnt_;
  learnt.clear();
  learnt.push_back(Lit());  // slot for the asserting literal
  const unsigned curLevel = static_cast<unsigned>(trailLims_.size());
  unsigned counter = 0;
  Lit p;
  int32_t confl = conflictIdx;
  size_t trailIdx = trail_.size();

  do {
    check(confl != -1, "analyze: missing reason clause");
    Clause& c = clauses_[static_cast<uint32_t>(confl)];
    if (c.learned) bumpClause(c);
    const Lit* cl = lits(c);
    const size_t start = p.valid() ? 1 : 0;  // skip asserting lit of reason
    for (size_t i = start; i < c.size; ++i) {
      const Lit q = cl[i];
      if (seen_[q.var()] || level_[q.var()] == 0) continue;
      seen_[q.var()] = 1;
      bumpVar(q.var());
      if (level_[q.var()] >= curLevel) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    // Pick the next seen literal from the trail.
    while (trailIdx > 0 && !seen_[trail_[trailIdx - 1].var()]) --trailIdx;
    check(trailIdx > 0, "analyze: trail exhausted");
    p = trail_[--trailIdx];
    seen_[p.var()] = 0;
    confl = reason_[p.var()];
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;

  // Clause minimization (cheap local form): drop literals implied by the
  // rest of the clause through their reason clauses.
  std::vector<Lit>& minimized = minimized_;
  minimized.clear();
  minimized.push_back(learnt[0]);
  for (size_t i = 1; i < learnt.size(); ++i) {
    const Lit q = learnt[i];
    const int32_t r = reason_[q.var()];
    bool redundant = false;
    if (r != -1) {
      redundant = true;
      const Clause& rc = clauses_[static_cast<uint32_t>(r)];
      const Lit* rl = lits(rc);
      for (size_t k = 0; k < rc.size; ++k) {
        const Lit x = rl[k];
        if (x == ~q) continue;
        if (level_[x.var()] == 0) continue;
        if (!seen_[x.var()]) {
          redundant = false;
          break;
        }
      }
    }
    if (!redundant) minimized.push_back(q);
  }
  for (size_t i = 1; i < learnt.size(); ++i) seen_[learnt[i].var()] = 0;
  learnt.swap(minimized);

  // Backtrack level = max level among learnt[1..].
  unsigned btLevel = 0;
  size_t maxIdx = 1;
  for (size_t i = 1; i < learnt.size(); ++i) {
    if (level_[learnt[i].var()] > btLevel) {
      btLevel = level_[learnt[i].var()];
      maxIdx = i;
    }
  }
  if (learnt.size() > 1) std::swap(learnt[1], learnt[maxIdx]);
  return btLevel;
}

void SatSolver::backtrack(unsigned targetLevel) {
  if (trailLims_.size() <= targetLevel) return;
  const uint32_t lim = trailLims_[targetLevel];
  for (size_t i = trail_.size(); i > lim; --i) {
    const uint32_t v = trail_[i - 1].var();
    assigns_[v] = kUndef;
    reason_[v] = -1;
    heapPush(v);
  }
  trail_.resize(lim);
  trailLims_.resize(targetLevel);
  qhead_ = std::min(qhead_, trail_.size());
}

uint32_t SatSolver::pickBranchVar() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    const auto [act, v] = heap_.back();
    heap_.pop_back();
    if (assigns_[v] == kUndef && act == activity_[v]) return v;
  }
  // Heap drained (all stale): linear fallback.
  for (uint32_t v = 0; v < numVars(); ++v) {
    if (assigns_[v] == kUndef) return v;
  }
  return 0xffffffff;
}

void SatSolver::reduceDB() {
  // Called at level 0 only: the trail holds root assignments, whose reason
  // clauses are the only clause indices held outside the watch lists.
  // Keep the most active half of the learned clauses.
  std::vector<uint32_t> learned;
  for (uint32_t i = 0; i < clauses_.size(); ++i) {
    if (clauses_[i].learned && clauses_[i].size > 2) learned.push_back(i);
  }
  if (learned.size() < learnedLimit_) return;
  std::sort(learned.begin(), learned.end(), [this](uint32_t a, uint32_t b) {
    return clauses_[a].activity < clauses_[b].activity;
  });
  // remap[i]: clause i's index after compaction; kLocked while marking (a
  // reason for a current assignment must stay), kGone once deleted.
  constexpr int32_t kKeep = 0, kLocked = 1, kGone = -1;
  std::vector<int32_t> remap(clauses_.size(), kKeep);
  for (const Lit l : trail_) {
    const int32_t r = reason_[l.var()];
    if (r != -1) remap[static_cast<uint32_t>(r)] = kLocked;
  }
  const size_t toRemove = learned.size() / 2;
  for (size_t i = 0; i < toRemove; ++i) {
    if (remap[learned[i]] == kLocked) continue;
    remap[learned[i]] = kGone;
    ++stats_.deletedClauses;
  }
  learnedLimit_ = learnedLimit_ + learnedLimit_ / 2;

  // Compact the clause table and the arena in place, preserving order, so
  // the watch lists and the search see the surviving clauses unchanged.
  uint32_t live = 0;
  size_t top = 0;
  for (uint32_t i = 0; i < clauses_.size(); ++i) {
    if (remap[i] == kGone) continue;
    Clause c = clauses_[i];
    if (top != c.offset) {  // top < offset, so the forward copy is safe
      std::copy(arena_.begin() + c.offset, arena_.begin() + c.offset + c.size,
                arena_.begin() + static_cast<ptrdiff_t>(top));
    }
    c.offset = static_cast<uint32_t>(top);
    top += c.size;
    remap[i] = static_cast<int32_t>(live);
    clauses_[live++] = c;
  }
  clauses_.resize(live);
  arena_.resize(top);
  for (size_t l = 0; l < 2 * size_t{numVars()}; ++l) {
    std::vector<Watcher>& ws = watches_[l];
    size_t keep = 0;
    for (const Watcher w : ws) {
      const int32_t to = remap[w.clauseIdx];
      if (to != kGone) ws[keep++] = {static_cast<uint32_t>(to), w.blocker};
    }
    ws.resize(keep);
  }
  for (const Lit l : trail_) {
    int32_t& r = reason_[l.var()];
    if (r != -1) r = remap[static_cast<uint32_t>(r)];
  }
}

void SatSolver::setTelemetry(telemetry::Telemetry* t) {
  solvesCtr_ = t ? &t->metrics().counter("sat.solves") : nullptr;
  conflictsHist_ = t ? &t->metrics().histogram("sat.conflicts_per_solve") : nullptr;
  decisionsHist_ = t ? &t->metrics().histogram("sat.decisions_per_solve") : nullptr;
}

SatResult SatSolver::solve(const std::vector<Lit>& assumptions) {
  if (!solvesCtr_) return solveImpl(assumptions);
  solvesCtr_->add();
  const uint64_t conflicts0 = stats_.conflicts;
  const uint64_t decisions0 = stats_.decisions;
  const SatResult r = solveImpl(assumptions);
  conflictsHist_->record(stats_.conflicts - conflicts0);
  decisionsHist_->record(stats_.decisions - decisions0);
  return r;
}

SatResult SatSolver::solveImpl(const std::vector<Lit>& assumptions) {
  if (unsatisfiable_) return SatResult::Unsat;
  if (deadlineClock_ != nullptr &&
      deadlineClock_->nowMicros() >= deadlineMicros_) {
    ++stats_.deadlineAborts;
    return SatResult::Unknown;
  }
  backtrack(0);
  if (propagate() != -1) {
    unsatisfiable_ = true;
    return SatResult::Unsat;
  }

  uint64_t conflictsThisSolve = 0;
  uint64_t restartBase = 64;
  uint64_t restartCeiling = restartBase * luby(stats_.restarts);
  uint64_t conflictsSinceRestart = 0;

  while (true) {
    const int32_t confl = propagate();
    if (confl != -1) {
      ++stats_.conflicts;
      ++conflictsThisSolve;
      ++conflictsSinceRestart;
      if (trailLims_.size() <= assumptions.size()) {
        // Conflict under assumptions only: formula is Unsat under them.
        backtrack(0);
        return SatResult::Unsat;
      }
      // A learned unit gets backtrack level 0: it is asserted at the root.
      backtrack(analyze(confl));
      if (learnt_.size() == 1) {
        enqueue(learnt_[0], -1);
      } else {
        const uint32_t idx = pushClause(learnt_.data(), learnt_.size(),
                                        /*learned=*/true);
        bumpClause(clauses_[idx]);
        attachClause(idx);
        enqueue(learnt_[0], static_cast<int32_t>(idx));
        ++stats_.learned;
      }
      decayVarActivity();
      clauseInc_ *= 1.001;
      if (conflictBudget_ != 0 && conflictsThisSolve > conflictBudget_) {
        backtrack(0);
        return SatResult::Unknown;
      }
      // The deadline shares the conflict boundary with the budget above:
      // conflicts are where CDCL time actually goes, so this bounds the
      // overshoot to one conflict's propagation+analysis.
      if (deadlineClock_ != nullptr &&
          deadlineClock_->nowMicros() >= deadlineMicros_) {
        ++stats_.deadlineAborts;
        backtrack(0);
        return SatResult::Unknown;
      }
      if (conflictsSinceRestart > restartCeiling) {
        ++stats_.restarts;
        conflictsSinceRestart = 0;
        restartCeiling = restartBase * luby(stats_.restarts);
        backtrack(0);
        reduceDB();
      }
      continue;
    }

    // Re-establish assumptions that a backtrack may have popped, one
    // decision level per assumption.
    if (trailLims_.size() < assumptions.size()) {
      const Lit a = assumptions[trailLims_.size()];
      const LBool v = litValue(a);
      if (v == kFalse) {
        backtrack(0);
        return SatResult::Unsat;
      }
      trailLims_.push_back(static_cast<uint32_t>(trail_.size()));
      if (v == kUndef) enqueue(a, -1);
      continue;
    }

    const uint32_t v = pickBranchVar();
    if (v == 0xffffffff) return SatResult::Sat;  // all assigned
    ++stats_.decisions;
    trailLims_.push_back(static_cast<uint32_t>(trail_.size()));
    enqueue(Lit(v, savedPhase_[v] == kFalse), -1);
  }
}

bool SatSolver::modelValue(uint32_t var) const {
  check(var < numVars(), "modelValue: unknown variable");
  return assigns_[var] == kTrue;
}

}  // namespace adlsym::smt
