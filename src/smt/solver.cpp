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

SolverTelemetry SmtSolver::telemetrySnapshot() const {
  SolverTelemetry t;
  t.queries = stats_.queries;
  t.sat = stats_.sat;
  t.unsat = stats_.unsat;
  t.unknown = stats_.unknown;
  t.totalMicros = stats_.totalMicros;
  t.maxMicros = stats_.maxMicros;
  t.cacheHits = cacheHits_;
  t.canon = stats_.canon;
  t.preEnabled = pre_ != nullptr;
  t.preConsulted = stats_.preConsulted;
  t.preSat = stats_.preSat;
  t.preUnsat = stats_.preUnsat;
  t.preFallback = stats_.preFallback;
  t.preShortcircuit = stats_.preShortcircuit;
  t.directSolves = stats_.directSolves;
  t.preCoreConstraints = stats_.preCoreConstraints;
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
  queryCtr_ = t ? &t->metrics().counter("solver.queries") : nullptr;
  cacheHitCtr_ = t ? &t->metrics().counter("solver.cache_hits") : nullptr;
  cacheMissCtr_ = t ? &t->metrics().counter("solver.cache_misses") : nullptr;
  preHitCtr_ = t ? &t->metrics().counter("solver.prefilter_hits") : nullptr;
  preMissCtr_ =
      t ? &t->metrics().counter("solver.prefilter_misses") : nullptr;
  sat_.setTelemetry(t);
  bb_.setTelemetry(t);
  scratchSat_.setTelemetry(t);
  scratchBb_.setTelemetry(t);
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
    scratchBb_.setTelemetry(tel);
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
  scratchLits_.clear();
  for (const TermRef t : assumptions) {
    if (t.isTrue()) continue;
    if (t.isFalse()) {
      bad = true;
      break;
    }
    scratchLits_.push_back(scratchBb_.litFor(t));
  }
  CheckResult r = CheckResult::Unsat;
  if (!bad) {
    switch (scratchSat_.solve(scratchLits_)) {
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

CheckResult SmtSolver::checkImpl(const std::vector<TermRef>& assumptions,
                                 bool needModel) {
  fault::hit("solver.check");
  ++stats_.queries;
  if (queryCtr_) queryCtr_->add();
  // One clock for both the legacy Stats and the telemetry histogram: the
  // injected clock when telemetry is attached (deterministic tests), the
  // system clock otherwise.
  telemetry::Clock& clk =
      tel_ ? tel_->clock() : telemetry::Clock::system();
  auto now = [&] { return clk.nowMicros(); };
  const uint64_t startUs = now();
  bool cached = false;
  // Canonical cost of this query (QueryCost): measured on a miss, replayed
  // from the cache on a hit, zero on short-circuited checks.
  QueryCost cost;
  auto finish = [&](CheckResult r) {
    const uint64_t us = now() - startUs;
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
    if (listener_) listener_->onCheck(permanentAsserts_, assumptions, r, us, cached);
    for (QueryListener* l : extraListeners_) {
      l->onCheck(permanentAsserts_, assumptions, r, us, cached);
    }
    if (tel_ && tel_->tracing()) {
      tel_->emit(telemetry::EventKind::SolverQuery,
                 {{"result", checkResultName(r)},
                  {"us", us},
                  {"cached", cached ? 1 : 0},
                  {"assumptions", static_cast<uint64_t>(assumptions.size())}});
    }
    return r;
  };

  // Prefilter accounting (docs/absdomain.md): consult() judges a cache
  // miss abstractly and files it in its verdict bucket; replayTag()
  // re-plays a cached key's provenance so per-issuance hit/miss tallies
  // are independent of which caller took the miss. Conclusive verdicts
  // are counted once per judged key, exactly like qcache misses.
  auto consult = [&]() {
    const PreVerdict pv = pre_->judge(permanentAsserts_, assumptions);
    ++stats_.preConsulted;
    switch (pv.result) {
      case CheckResult::Sat:
        ++stats_.preSat;
        ++stats_.preHitSeen;
        if (preHitCtr_) preHitCtr_->add();
        break;
      case CheckResult::Unsat:
        ++stats_.preUnsat;
        ++stats_.preHitSeen;
        stats_.preCoreConstraints += pv.coreConstraints;
        if (preHitCtr_) preHitCtr_->add();
        break;
      case CheckResult::Unknown:
        ++stats_.preFallback;
        ++stats_.preMissSeen;
        if (preMissCtr_) preMissCtr_->add();
        break;
    }
    return pv.result;
  };
  auto replayTag = [&](uint8_t tag) {
    if (tag == 1 || tag == 2) {
      ++stats_.preHitSeen;
      if (preHitCtr_) preHitCtr_->add();
    } else if (tag == 3) {
      ++stats_.preMissSeen;
      if (preMissCtr_) preMissCtr_->add();
    }
  };

  if (permanentlyUnsat_) {
    ++stats_.preShortcircuit;
    return finish(CheckResult::Unsat);
  }

  if (freshMode_) {
    for (const TermRef t : assumptions) {
      adlsym::check(t.width() == 1, "assumption must be width 1");
      if (t.isFalse()) {
        ++stats_.preShortcircuit;
        return finish(CheckResult::Unsat);
      }
    }
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
    // Fresh-solve cost is the scratch core's stats for this query (reset
    // zeroes them); on a cache hit the stored cost is replayed.
    auto solveFresh = [&] {
      const CheckResult r =
          solveScratch(assumptions, /*onBooks=*/true, &clk, deadlineUs);
      if (r == CheckResult::Sat) captureModel(scratchBb_, scratchSat_);
      cost.terms = scratchBb_.stats().termsBlasted;
      cost.gates = scratchBb_.stats().gates;
      cost.conflicts = scratchSat_.stats().conflicts;
      return r;
    };
    if (sharedCache_ == nullptr) {
      if (pre_ != nullptr) {
        const CheckResult pv = consult();
        if (pv == CheckResult::Unsat) return finish(pv);
        if (pv == CheckResult::Sat) {
          if (needModel) restoreModel(assumptions);
          return finish(pv);
        }
      } else {
        ++stats_.directSolves;
      }
      return finish(solveFresh());
    }
    // Shared-cache path: canonical key, single-flight solve-or-wait.
    std::vector<TermRef> slotVars;
    const std::string key = QueryCache::canonicalKey(
        permanentAsserts_, assumptions, &slotVars, &sortKeys_);
    // Slot-indexed rendering of model_, the publish/backfill format.
    auto slotModel = [&] {
      std::vector<uint64_t> slotValues;
      slotValues.reserve(slotVars.size());
      for (const TermRef v : slotVars) {
        auto it = model_.find(tm_.varIndex(v.id()));
        slotValues.push_back(it == model_.end() ? 0 : it->second);
      }
      return slotValues;
    };
    QueryCache::Outcome o = sharedCache_->acquire(key);
    if (o.hit) {
      ++cacheHits_;
      cached = true;
      cost = o.cost;
      if (cacheHitCtr_) cacheHitCtr_->add();
      replayTag(o.preTag);
      if (o.result == CheckResult::Sat) {
        if (o.hasModel) {
          // Translate the slot-indexed canonical model back to this pool's
          // variables (slotVars[i] is the Var term behind α-slot i).
          model_.clear();
          const size_t n = std::min(slotVars.size(), o.slotValues.size());
          for (size_t i = 0; i < n; ++i) {
            model_[tm_.varIndex(slotVars[i].id())] = o.slotValues[i];
          }
        } else if (needModel) {
          // Prefiltered Sat entry, first model-needing reader: restore
          // the canonical model off the books and backfill the entry so
          // later readers replay it like any solved entry.
          restoreModel(assumptions);
          sharedCache_->backfillModel(key, slotModel());
        }
      }
      return finish(o.result);
    }
    if (cacheMissCtr_) cacheMissCtr_->add();
    uint8_t preTag = 0;
    if (pre_ != nullptr) {
      CheckResult pv;
      try {
        pv = consult();
        if (pv == CheckResult::Sat && needModel) restoreModel(assumptions);
      } catch (...) {
        sharedCache_->abandon(key);
        throw;
      }
      if (pv == CheckResult::Unsat) {
        sharedCache_->publish(key, pv, {}, QueryCost{}, /*preTag=*/2,
                              /*hasModel=*/true);
        return finish(pv);
      }
      if (pv == CheckResult::Sat) {
        // Canonical cost stays zero whether or not a restoration solve
        // ran: the key is prefilter-decided, and its replayed cost must
        // not depend on whether the miss-taker needed a model.
        sharedCache_->publish(key, pv,
                              needModel ? slotModel() : std::vector<uint64_t>{},
                              QueryCost{}, /*preTag=*/1,
                              /*hasModel=*/needModel);
        return finish(pv);
      }
      preTag = 3;
    } else {
      ++stats_.directSolves;
    }
    CheckResult r;
    try {
      r = solveFresh();
    } catch (...) {
      sharedCache_->abandon(key);
      throw;
    }
    if (r == CheckResult::Unknown) {
      // Never cache Unknown: a waiter (or a later caller) retries with its
      // own budget, exactly as -j1 would.
      sharedCache_->abandon(key);
    } else {
      std::vector<uint64_t> slotValues;
      if (r == CheckResult::Sat) slotValues = slotModel();
      sharedCache_->publish(key, r, std::move(slotValues), cost, preTag);
    }
    return finish(r);
  }

  // Cache lookup. The key is the *sorted set* of assumption term ids:
  // hash-consing makes structurally equal assumptions share ids, and
  // order/duplicates don't affect satisfiability.
  std::string cacheKey;
  if (cacheEnabled_) {
    std::vector<TermId> ids;
    ids.reserve(assumptions.size());
    for (const TermRef t : assumptions) ids.push_back(t.id());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    cacheKey.resize(ids.size() * sizeof(TermId));
    if (!ids.empty()) {
      std::memcpy(cacheKey.data(), ids.data(), cacheKey.size());
    }
    if (auto it = queryCache_.find(cacheKey); it != queryCache_.end()) {
      ++cacheHits_;
      cached = true;
      cost = it->second.cost;
      if (cacheHitCtr_) cacheHitCtr_->add();
      replayTag(it->second.preTag);
      if (it->second.result == CheckResult::Sat) {
        if (it->second.hasModel) {
          model_ = it->second.model;
        } else if (needModel) {
          // Prefiltered Sat entry without a model: restore one off the
          // books and backfill the entry for later readers.
          restoreModel(assumptions);
          it->second.model = model_;
          it->second.hasModel = true;
        }
      }
      return finish(it->second.result);
    }
    if (cacheMissCtr_) cacheMissCtr_->add();
  }
  // Incremental-solve cost: delta of the member core/blaster stats from
  // just before the assumption literals are blasted (snapshots assigned
  // below, once the deadline pre-check has passed).
  uint64_t termsBefore = 0, gatesBefore = 0, conflictsBefore = 0;
  uint8_t preTag = 0;
  auto snapCost = [&] {
    cost.terms = bb_.stats().termsBlasted - termsBefore;
    cost.gates = bb_.stats().gates - gatesBefore;
    cost.conflicts = sat_.stats().conflicts - conflictsBefore;
  };
  auto remember = [&](CheckResult r) {
    snapCost();
    if (cacheEnabled_ && r != CheckResult::Unknown) {
      CacheEntry entry;
      entry.result = r;
      if (r == CheckResult::Sat) entry.model = model_;
      entry.cost = cost;
      entry.preTag = preTag;
      queryCache_.emplace(std::move(cacheKey), std::move(entry));
    }
    return finish(r);
  };

  // Resolve this query's wall deadline: the per-query timeout (relative
  // to query start) and the run-wide deadline (absolute, set by the
  // explorer from its remaining maxWallSeconds), whichever is sooner.
  uint64_t deadlineUs = 0;
  if (queryTimeoutMicros_ != 0) deadlineUs = startUs + queryTimeoutMicros_;
  if (wallDeadlineMicros_ != 0) {
    deadlineUs = deadlineUs == 0 ? wallDeadlineMicros_
                                 : std::min(deadlineUs, wallDeadlineMicros_);
  }
  if (deadlineUs != 0 && startUs >= deadlineUs) {
    // The budget is already spent; don't even bit-blast.
    ++stats_.preShortcircuit;
    return finish(CheckResult::Unknown);
  }
  // Prefilter consult, after every short-circuit off-mode would also
  // take (so verdicts are identical with the prefilter on or off) and
  // before any bit-blasting. Conclusive verdicts are cached with a zero
  // canonical cost and skip the SAT core entirely; the incremental core
  // never sees their literals.
  if (pre_ != nullptr) {
    const CheckResult pv = consult();
    if (pv == CheckResult::Unsat) {
      if (cacheEnabled_) {
        CacheEntry entry;
        entry.result = pv;
        entry.preTag = 2;
        queryCache_.emplace(std::move(cacheKey), std::move(entry));
      }
      return finish(pv);
    }
    if (pv == CheckResult::Sat) {
      if (needModel) restoreModel(assumptions);
      if (cacheEnabled_) {
        CacheEntry entry;
        entry.result = pv;
        entry.preTag = 1;
        entry.hasModel = needModel;
        if (needModel) entry.model = model_;
        queryCache_.emplace(std::move(cacheKey), std::move(entry));
      }
      return finish(pv);
    }
    preTag = 3;
  } else {
    ++stats_.directSolves;
  }
  sat_.setDeadline(deadlineUs != 0 ? &clk : nullptr, deadlineUs);
  termsBefore = bb_.stats().termsBlasted;
  gatesBefore = bb_.stats().gates;
  conflictsBefore = sat_.stats().conflicts;

  std::vector<Lit> lits;
  lits.reserve(assumptions.size());
  for (const TermRef t : assumptions) {
    adlsym::check(t.width() == 1, "assumption must be width 1");
    if (t.isTrue()) continue;
    if (t.isFalse()) return remember(CheckResult::Unsat);
    lits.push_back(bb_.litFor(t));
  }
  const SatResult raw = sat_.solve(lits);
  if (paranoid_ && raw != SatResult::Unknown) {
    const CheckResult fresh = checkFresh(assumptions);
    const CheckResult incr =
        raw == SatResult::Sat ? CheckResult::Sat : CheckResult::Unsat;
    if (fresh != CheckResult::Unknown && fresh != incr) {
      std::vector<TermRef> all = permanentAsserts_;
      all.insert(all.end(), assumptions.begin(), assumptions.end());
      throw Error(std::string("paranoid check: incremental=") +
                  (incr == CheckResult::Sat ? "sat" : "unsat") +
                  " fresh=" + (fresh == CheckResult::Sat ? "sat" : "unsat") +
                  "\n" + toSmtLib(all));
    }
  }
  switch (raw) {
    case SatResult::Sat: {
      // Snapshot variable values immediately: any later incremental blast
      // (even for model reads) unwinds the assignment trail.
      captureModel(bb_, sat_);
      return remember(CheckResult::Sat);
    }
    case SatResult::Unsat: return remember(CheckResult::Unsat);
    case SatResult::Unknown:
      snapCost();
      return finish(CheckResult::Unknown);
  }
  snapCost();
  return finish(CheckResult::Unknown);
}

uint64_t SmtSolver::modelValue(TermRef t) {
  return tm_.evalWith(t, [this](uint32_t idx) {
    auto it = model_.find(idx);
    return it == model_.end() ? uint64_t{0} : it->second;
  });
}

}  // namespace adlsym::smt
