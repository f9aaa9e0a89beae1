#include "smt/solver.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

#include "smt/presolver.h"
#include "smt/printer.h"
#include "smt/qcache.h"
#include "support/fault.h"
#include "support/json.h"
#include "support/strings.h"

namespace adlsym::smt {

const char* checkResultName(CheckResult r) {
  switch (r) {
    case CheckResult::Sat: return "sat";
    case CheckResult::Unsat: return "unsat";
    case CheckResult::Unknown: return "unknown";
  }
  return "?";
}

void SolverTelemetry::writeJson(json::Writer& w) const {
  w.beginObject();
  w.kv("queries", queries);
  w.kv("sat", sat);
  w.kv("unsat", unsat);
  w.kv("unknown", unknown);
  w.kv("total_micros", totalMicros);
  w.kv("max_micros", maxMicros);
  w.kv("cache_hits", cacheHits);
  w.kv("cache_hit_rate", cacheHitRate());
  w.key("sat_core").beginObject();
  w.kv("conflicts", satCore.conflicts);
  w.kv("decisions", satCore.decisions);
  w.kv("propagations", satCore.propagations);
  w.kv("restarts", satCore.restarts);
  w.kv("learned", satCore.learned);
  w.kv("deleted_clauses", satCore.deletedClauses);
  w.kv("deadline_aborts", satCore.deadlineAborts);
  w.kv("vars", satVars);
  w.kv("clauses", satClauses);
  w.endObject();
  w.key("bitblast").beginObject();
  w.kv("gates", blast.gates);
  w.kv("gate_cache_hits", blast.cacheHits);
  w.kv("terms_blasted", blast.termsBlasted);
  w.endObject();
  // Canonical (cache-replayed) cost totals — schedule-independent, unlike
  // sat_core/bitblast which only count work actually performed. v5.
  w.key("canon").beginObject();
  w.kv("terms", canon.terms);
  w.kv("gates", canon.gates);
  w.kv("conflicts", canon.conflicts);
  w.endObject();
  w.endObject();
}

void SolverTelemetry::writePrefilterJson(json::Writer& w) const {
  w.beginObject();
  w.kv("enabled", preEnabled);
  w.kv("consulted", preConsulted);
  w.kv("sat", preSat);
  w.kv("unsat", preUnsat);
  w.kv("hits", preSat + preUnsat);
  w.kv("fallbacks", preFallback);
  w.kv("shortcircuit", preShortcircuit);
  w.kv("direct", directSolves);
  w.kv("core_constraints", preCoreConstraints);
  w.kv("reconciled", prefilterReconciled());
  w.endObject();
}

std::string SolverTelemetry::toJson() const {
  std::ostringstream os;
  json::Writer w(os);
  writeJson(w);
  return os.str();
}

std::string SolverTelemetry::format() const {
  std::string out = formatStr(
      "solver: %llu queries (%llu sat, %llu unsat, %llu unknown), %.1f ms, "
      "%llu cache hits (%.0f%%)\n",
      static_cast<unsigned long long>(queries),
      static_cast<unsigned long long>(sat),
      static_cast<unsigned long long>(unsat),
      static_cast<unsigned long long>(unknown), totalMicros / 1e3,
      static_cast<unsigned long long>(cacheHits), 100.0 * cacheHitRate());
  out += formatStr(
      "sat: %llu conflicts, %llu decisions, %llu propagations | blast: "
      "%llu gates, %llu terms\n",
      static_cast<unsigned long long>(satCore.conflicts),
      static_cast<unsigned long long>(satCore.decisions),
      static_cast<unsigned long long>(satCore.propagations),
      static_cast<unsigned long long>(blast.gates),
      static_cast<unsigned long long>(blast.termsBlasted));
  return out;
}

QueryCounters& QueryCounters::operator+=(const QueryCounters& o) {
  queries += o.queries;
  sat += o.sat;
  unsat += o.unsat;
  unknown += o.unknown;
  totalMicros += o.totalMicros;
  maxMicros = std::max(maxMicros, o.maxMicros);
  cacheHits += o.cacheHits;
  canon += o.canon;
  preConsulted += o.preConsulted;
  preSat += o.preSat;
  preUnsat += o.preUnsat;
  preFallback += o.preFallback;
  preShortcircuit += o.preShortcircuit;
  directSolves += o.directSolves;
  preCoreConstraints += o.preCoreConstraints;
  return *this;
}

SolverTelemetry& SolverTelemetry::operator+=(const SolverTelemetry& o) {
  QueryCounters::operator+=(o);
  satCore += o.satCore;
  blast += o.blast;
  satVars += o.satVars;
  satClauses += o.satClauses;
  preEnabled = preEnabled || o.preEnabled;
  return *this;
}

namespace {

/// The checkpoint schema of SolverTelemetry: one row per field, (ckpt key,
/// member), in checkpoint order. `f(key, member)` visits a field and
/// `f.group(key, rows)` a nested object; writeCkpt and readCkpt are the
/// two visitors, so they cannot drift apart.
template <class T, class F>
void ckptFields(T& t, F& f) {
  f("queries", t.queries);
  f("sat", t.sat);
  f("unsat", t.unsat);
  f("unknown", t.unknown);
  f("total_us", t.totalMicros);
  f("max_us", t.maxMicros);
  f("cache_hits", t.cacheHits);
  f.group("sat_core", [&] {
    f("conflicts", t.satCore.conflicts);
    f("decisions", t.satCore.decisions);
    f("propagations", t.satCore.propagations);
    f("restarts", t.satCore.restarts);
    f("learned", t.satCore.learned);
    f("deleted", t.satCore.deletedClauses);
    f("deadline_aborts", t.satCore.deadlineAborts);
  });
  f.group("blast", [&] {
    f("gates", t.blast.gates);
    f("cache_hits", t.blast.cacheHits);
    f("terms", t.blast.termsBlasted);
  });
  f("sat_vars", t.satVars);
  f("sat_clauses", t.satClauses);
  f.group("canon", [&] {
    f("terms", t.canon.terms);
    f("gates", t.canon.gates);
    f("conflicts", t.canon.conflicts);
  });
  f("pre_enabled", t.preEnabled);
  f("pre_consulted", t.preConsulted);
  f("pre_sat", t.preSat);
  f("pre_unsat", t.preUnsat);
  f("pre_fallback", t.preFallback);
  f("pre_shortcircuit", t.preShortcircuit);
  f("direct_solves", t.directSolves);
  f("pre_core_constraints", t.preCoreConstraints);
}

struct CkptWriter {
  json::Writer& w;
  template <class V>
  void operator()(const char* key, V v) {
    w.kv(key, v);
  }
  template <class Rows>
  void group(const char* key, Rows rows) {
    w.key(key).beginObject();
    rows();
    w.endObject();
  }
};

struct CkptReader {
  const json::Value* obj;
  const json::Value& field(const char* key) const {
    const json::Value* f = obj->find(key);
    if (f == nullptr) {
      throw InputError(std::string("checkpoint: missing field '") + key +
                       "'");
    }
    return *f;
  }
  void operator()(const char* key, uint64_t& v) { v = field(key).asU64(); }
  void operator()(const char* key, bool& v) { v = field(key).boolean; }
  template <class Rows>
  void group(const char* key, Rows rows) {
    const json::Value* outer = obj;
    obj = &field(key);
    rows();
    obj = outer;
  }
};

}  // namespace

void SolverTelemetry::writeCkpt(json::Writer& w) const {
  CkptWriter f{w};
  w.beginObject();
  ckptFields(*this, f);
  w.endObject();
}

SolverTelemetry SolverTelemetry::readCkpt(const json::Value& v) {
  SolverTelemetry t;
  CkptReader f{&v};
  ckptFields(t, f);
  return t;
}

SolverTelemetry SmtSolver::telemetrySnapshot() const {
  SolverTelemetry t;
  static_cast<QueryCounters&>(t) = stats_;
  t.preEnabled = pre_ != nullptr;
  if (freshMode_) {
    t.satCore = freshSat_;
    t.blast = freshBlast_;
    t.satVars = freshVars_;
    t.satClauses = freshClauses_;
  } else {
    t.satCore = sat_.stats();
    t.blast = bb_.stats();
    t.satVars = sat_.numVars();
    t.satClauses = sat_.numClauses();
  }
  return t;
}

void SmtSolver::setTelemetry(telemetry::Telemetry* t) {
  tel_ = t;
  queryHist_ = t ? &t->metrics().histogram("solver.query_us") : nullptr;
  sat_.setTelemetry(t);
  scratchSat_.setTelemetry(t);
  scratchTel_ = t;
}

void SmtSolver::assertAlways(TermRef t) {
  adlsym::check(t.width() == 1, "assertAlways requires a width-1 term");
  if (t.isTrue()) return;
  permanentAsserts_.push_back(t);
  // Cached verdicts were computed without this assertion.
  queryCache_.clear();
  if (t.isFalse()) {
    permanentlyUnsat_ = true;
    return;
  }
  if (!sat_.addUnit(bb_.litFor(t))) permanentlyUnsat_ = true;
}

CheckResult SmtSolver::solveScratch(const std::vector<TermRef>& assumptions,
                                     bool onBooks, telemetry::Clock* clk,
                                     uint64_t deadlineUs) {
  // Off-the-books solves run detached: no telemetry, budget or deadline.
  telemetry::Telemetry* tel = onBooks ? tel_ : nullptr;
  if (scratchTel_ != tel) {
    scratchSat_.setTelemetry(tel);
    scratchTel_ = tel;
  }
  scratchSat_.reset();
  scratchBb_.reset();
  scratchSat_.setConflictBudget(onBooks ? conflictBudget_ : 0);
  scratchSat_.setDeadline(deadlineUs != 0 ? clk : nullptr, deadlineUs);
  bool bad = false;
  for (const TermRef t : permanentAsserts_) {
    if (t.isFalse() || !scratchSat_.addUnit(scratchBb_.litFor(t))) bad = true;
  }
  lits_.clear();
  for (const TermRef t : assumptions) {
    if (t.isTrue()) continue;
    if (t.isFalse()) {
      bad = true;
      break;
    }
    lits_.push_back(scratchBb_.litFor(t));
  }
  CheckResult r = CheckResult::Unsat;
  if (!bad) {
    switch (scratchSat_.solve(lits_)) {
      case SatResult::Sat: r = CheckResult::Sat; break;
      case SatResult::Unsat: r = CheckResult::Unsat; break;
      case SatResult::Unknown: r = CheckResult::Unknown; break;
    }
  }
  if (onBooks) {
    freshSat_ += scratchSat_.stats();
    freshBlast_ += scratchBb_.stats();
    freshVars_ += scratchSat_.numVars();
    freshClauses_ += scratchSat_.numClauses();
  }
  return r;
}

CheckResult SmtSolver::checkFresh(const std::vector<TermRef>& assumptions) {
  return solveScratch(assumptions, /*onBooks=*/false, nullptr, 0);
}

void SmtSolver::captureModel(const BitBlaster& bb, const SatSolver& sat) {
  model_.clear();
  for (const auto& [termId, bits] : bb.varTerms()) {
    uint64_t v = 0;
    for (size_t i = 0; i < bits.size(); ++i) {
      if (sat.modelValue(bits[i])) v |= uint64_t{1} << i;
    }
    model_[tm_.varIndex(termId)] = v;
  }
}

void SmtSolver::restoreModel(const std::vector<TermRef>& assumptions) {
  adlsym::check(solveScratch(assumptions, /*onBooks=*/false, nullptr, 0) ==
                    CheckResult::Sat,
                "prefilter sat certificate failed model restoration "
                "(abstract-domain soundness bug)");
  captureModel(scratchBb_, scratchSat_);
  ++stats_.preModelRestores;
}

/// One query's handle on the cache that serves it: the "which cache" seam
/// of checkImpl. The kinds differ only in the key, in how a hit's model
/// reaches model_, and in where a verdict is stored:
///   - none: fresh mode without a shared cache, or the local cache off.
///   - local: the incremental solver's own map, keyed on the sorted set of
///     assumption TermIds (hash-consing makes structurally equal
///     assumptions share ids; order and duplicates do not matter).
///   - shared: fresh mode's run-wide QueryCache, keyed canonically, with
///     slot-indexed models. A miss makes this query the key's single-
///     flight owner; the destructor abandons an owned key that was never
///     published (Unknown, expired deadline or exception), so waiters
///     retry with their own budget exactly as -j1 would.
class SmtSolver::CacheSlot {
 public:
  CacheSlot(SmtSolver& s, const std::vector<TermRef>& assumptions) : s_(s) {
    if (s.freshMode_ && s.sharedCache_ != nullptr) {
      key_ = QueryCache::canonicalKey(s.permanentAsserts_, assumptions,
                                      &slotVars_, &s.sortKeys_);
      hit_ = s.sharedCache_->acquire(key_);
      owner_ = !hit_.hit;
      return;
    }
    if (s.freshMode_ || !s.cacheEnabled_) return;
    std::vector<TermId>& ids = s.keyIds_;
    ids.clear();
    for (const TermRef t : assumptions) ids.push_back(t.id());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    key_.resize(ids.size() * sizeof(TermId));
    if (!ids.empty()) std::memcpy(key_.data(), ids.data(), key_.size());
    local_ = true;
    if (auto it = s.queryCache_.find(key_); it != s.queryCache_.end()) {
      entry_ = &it->second;
      hit_ = {true, entry_->result, {}, entry_->cost, entry_->hasModel,
              entry_->preTag};
    }
  }
  ~CacheSlot() {
    if (owner_) s_.sharedCache_->abandon(key_);
  }
  CacheSlot(const CacheSlot&) = delete;
  CacheSlot& operator=(const CacheSlot&) = delete;

  /// The lookup's outcome: on a hit, the entry's verdict, canonical cost,
  /// model presence and prefilter tag.
  const QueryCache::Outcome& outcome() const { return hit_; }

  /// Hit with a model: load it into model_. A slot-indexed model is
  /// translated back to this pool's variables (slotVars_[i] is the Var
  /// term behind α-slot i).
  void replayModel() {
    if (entry_ != nullptr) {
      s_.model_ = entry_->model;
      return;
    }
    s_.model_.clear();
    const size_t n = std::min(slotVars_.size(), hit_.slotValues.size());
    for (size_t i = 0; i < n; ++i) {
      s_.model_[s_.tm_.varIndex(slotVars_[i].id())] = hit_.slotValues[i];
    }
  }

  /// Hit on a model-less (prefiltered) Sat entry whose model was just
  /// restored into model_: attach it, so later readers replay it.
  void backfill() {
    if (entry_ != nullptr) {
      entry_->model = s_.model_;
      entry_->hasModel = true;
    } else {
      s_.sharedCache_->backfillModel(key_, slotModel());
    }
  }

  /// Store a miss's verdict (never Unknown); a Sat entry `withModel`
  /// stores model_.
  void publish(CheckResult r, const QueryCost& cost, uint8_t preTag,
               bool withModel) {
    const bool storeModel = r == CheckResult::Sat && withModel;
    if (local_) {
      CacheEntry e{r, {}, cost, withModel, preTag};
      if (storeModel) e.model = s_.model_;
      s_.queryCache_.emplace(std::move(key_), std::move(e));
    } else if (owner_) {
      owner_ = false;
      s_.sharedCache_->publish(
          key_, r, storeModel ? slotModel() : std::vector<uint64_t>{}, cost,
          preTag, withModel);
    }
  }

 private:
  /// model_ rendered slot-indexed: the shared cache's model format.
  std::vector<uint64_t> slotModel() const {
    std::vector<uint64_t> values;
    values.reserve(slotVars_.size());
    for (const TermRef v : slotVars_) {
      auto it = s_.model_.find(s_.tm_.varIndex(v.id()));
      values.push_back(it == s_.model_.end() ? 0 : it->second);
    }
    return values;
  }

  SmtSolver& s_;
  std::string key_;
  bool local_ = false;
  CacheEntry* entry_ = nullptr;  // local hit
  std::vector<TermRef> slotVars_;
  QueryCache::Outcome hit_;
  bool owner_ = false;  // shared miss: this query must publish or abandon
};

CheckResult SmtSolver::solve(const std::vector<TermRef>& assumptions,
                             telemetry::Clock& clk, uint64_t deadlineUs,
                             QueryCost& cost) {
  if (freshMode_) {
    // The scratch core's stats for this query (reset zeroes them).
    const CheckResult r =
        solveScratch(assumptions, /*onBooks=*/true, &clk, deadlineUs);
    if (r == CheckResult::Sat) captureModel(scratchBb_, scratchSat_);
    cost.terms = scratchBb_.stats().termsBlasted;
    cost.gates = scratchBb_.stats().gates;
    cost.conflicts = scratchSat_.stats().conflicts;
    return r;
  }
  // Incremental: the delta of the member core's stats over this solve.
  sat_.setDeadline(deadlineUs != 0 ? &clk : nullptr, deadlineUs);
  const uint64_t termsBefore = bb_.stats().termsBlasted;
  const uint64_t gatesBefore = bb_.stats().gates;
  const uint64_t conflictsBefore = sat_.stats().conflicts;
  lits_.clear();
  for (const TermRef t : assumptions) {
    if (!t.isTrue()) lits_.push_back(bb_.litFor(t));
  }
  const SatResult raw = sat_.solve(lits_);
  cost.terms = bb_.stats().termsBlasted - termsBefore;
  cost.gates = bb_.stats().gates - gatesBefore;
  cost.conflicts = sat_.stats().conflicts - conflictsBefore;
  if (raw == SatResult::Unknown) return CheckResult::Unknown;
  const CheckResult r =
      raw == SatResult::Sat ? CheckResult::Sat : CheckResult::Unsat;
  // Snapshot variable values immediately: any later incremental blast
  // (even for model reads) unwinds the assignment trail.
  if (r == CheckResult::Sat) captureModel(bb_, sat_);
  if (paranoid_) {
    const CheckResult fresh = checkFresh(assumptions);
    if (fresh != CheckResult::Unknown && fresh != r) {
      std::vector<TermRef> all = permanentAsserts_;
      all.insert(all.end(), assumptions.begin(), assumptions.end());
      throw Error(std::string("paranoid check: incremental=") +
                  checkResultName(r) + " fresh=" + checkResultName(fresh) +
                  "\n" + toSmtLib(all));
    }
  }
  return r;
}

CheckResult SmtSolver::checkImpl(const std::vector<TermRef>& assumptions,
                                 bool needModel) {
  fault::hit("solver.check");
  ++stats_.queries;
  // One clock for both the legacy Stats and the telemetry histogram: the
  // injected clock when telemetry is attached (deterministic tests), the
  // system clock otherwise.
  telemetry::Clock& clk =
      tel_ ? tel_->clock() : telemetry::Clock::system();
  const uint64_t startUs = clk.nowMicros();
  bool cached = false;
  // Canonical cost of this query (QueryCost): measured on a miss, replayed
  // from the cache on a hit, zero on short-circuited checks.
  QueryCost cost;
  auto finish = [&](CheckResult r) {
    const uint64_t us = clk.nowMicros() - startUs;
    stats_.totalMicros += us;
    stats_.maxMicros = std::max(stats_.maxMicros, us);
    switch (r) {
      case CheckResult::Sat: ++stats_.sat; break;
      case CheckResult::Unsat: ++stats_.unsat; break;
      case CheckResult::Unknown: ++stats_.unknown; break;
    }
    stats_.canon += cost;
    if (shapeProfiling_) {
      const auto bucket = static_cast<unsigned>(std::bit_width(cost.terms));
      ShapeRow& row = shapes_[bucket];
      ++row.queries;
      if (cached) ++row.hits;
      switch (r) {
        case CheckResult::Sat: ++row.sat; break;
        case CheckResult::Unsat: ++row.unsat; break;
        case CheckResult::Unknown: ++row.unknown; break;
      }
      row.cost += cost;
    }
    if (queryHist_) queryHist_->record(us);
    for (QueryListener* l : listeners_) {
      l->onCheck(permanentAsserts_, assumptions, r, us, cached);
    }
    return r;
  };
  // A hit replays its key's prefilter provenance, so per-issuance hit/miss
  // tallies do not depend on which caller took the miss.
  auto seen = [&](uint8_t tag) {
    if (tag == 1 || tag == 2) {
      ++stats_.preHitSeen;
    } else if (tag == 3) {
      ++stats_.preMissSeen;
    }
  };

  // 1. Short-circuits, before any cache: a constant-false assumption has
  // no canonical key (QueryCache::canonicalKey) and needs no solve.
  bool constFalse = permanentlyUnsat_;
  for (const TermRef t : assumptions) {
    if (constFalse) break;
    adlsym::check(t.width() == 1, "assumption must be width 1");
    constFalse = t.isFalse();
  }
  if (constFalse) {
    ++stats_.preShortcircuit;
    return finish(CheckResult::Unsat);
  }

  // 2-3. Cache lookup; a hit replays the canonical cost, the provenance
  // and the model. A prefiltered Sat entry carries no model: its first
  // model-needing reader restores one off the books and backfills it.
  CacheSlot slot(*this, assumptions);
  if (const QueryCache::Outcome& hit = slot.outcome(); hit.hit) {
    ++stats_.cacheHits;
    cached = true;
    cost = hit.cost;
    seen(hit.preTag);
    if (hit.result == CheckResult::Sat) {
      if (hit.hasModel) {
        slot.replayModel();
      } else if (needModel) {
        restoreModel(assumptions);
        slot.backfill();
      }
    }
    return finish(hit.result);
  }

  // 4. Deadline: the per-query timeout (relative to query start) and the
  // run-wide deadline (absolute, set by the explorer from its remaining
  // maxWallSeconds), whichever is sooner. Already spent: don't blast.
  uint64_t deadlineUs = 0;
  if (queryTimeoutMicros_ != 0) deadlineUs = startUs + queryTimeoutMicros_;
  if (wallDeadlineMicros_ != 0) {
    deadlineUs = deadlineUs == 0 ? wallDeadlineMicros_
                                 : std::min(deadlineUs, wallDeadlineMicros_);
  }
  if (deadlineUs != 0 && startUs >= deadlineUs) {
    ++stats_.preShortcircuit;
    return finish(CheckResult::Unknown);
  }

  // 5. Prefilter (docs/absdomain.md), after every short-circuit off-mode
  // also takes (so verdicts are identical with the prefilter on or off)
  // and before any bit-blasting. A conclusive verdict is counted once per
  // judged key, like a cache miss, and published with a zero canonical
  // cost whether or not a restoration solve ran: the key's replayed cost
  // must not depend on whether the miss-taker needed a model.
  uint8_t preTag = 0;
  if (pre_ != nullptr) {
    const PreVerdict pv = pre_->judge(permanentAsserts_, assumptions);
    ++stats_.preConsulted;
    switch (pv.result) {
      case CheckResult::Sat:
        ++stats_.preSat;
        preTag = 1;
        break;
      case CheckResult::Unsat:
        ++stats_.preUnsat;
        stats_.preCoreConstraints += pv.coreConstraints;
        preTag = 2;
        break;
      case CheckResult::Unknown:
        ++stats_.preFallback;
        preTag = 3;
        break;
    }
    seen(preTag);
    if (pv.result != CheckResult::Unknown) {
      const bool withModel = pv.result == CheckResult::Unsat || needModel;
      if (pv.result == CheckResult::Sat && needModel) {
        restoreModel(assumptions);
      }
      slot.publish(pv.result, QueryCost{}, preTag, withModel);
      return finish(pv.result);
    }
  } else {
    ++stats_.directSolves;
  }

  // 6-7. Solve and publish. Unknown is never cached: a waiter (or a later
  // caller) retries with its own budget.
  const CheckResult r = solve(assumptions, clk, deadlineUs, cost);
  if (r != CheckResult::Unknown) slot.publish(r, cost, preTag, true);
  return finish(r);
}

uint64_t SmtSolver::modelValue(TermRef t) {
  return tm_.evalWith(t, [this](uint32_t idx) {
    auto it = model_.find(idx);
    return it == model_.end() ? uint64_t{0} : it->second;
  });
}

}  // namespace adlsym::smt
