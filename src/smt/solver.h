// Incremental SMT(QF_BV) facade: simplify (at build time) -> bit-blast ->
// CDCL. One SmtSolver instance serves every path-feasibility query of an
// exploration run; path conditions are passed as assumptions so learned
// clauses are shared across paths. This is the repo's Z3 substitute
// (DESIGN.md, substitutions).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "smt/bitblast.h"
#include "smt/qcache.h"
#include "smt/sat.h"
#include "smt/term.h"
#include "support/telemetry.h"

namespace adlsym::smt {

enum class CheckResult { Sat, Unsat, Unknown };

const char* checkResultName(CheckResult r);

class PreSolver;  // smt/presolver.h

/// One snapshot of the whole SMT stack's statistics: query-level stats,
/// the SAT core, the bit-blaster and the query cache, aggregated so
/// consumers read a single object instead of stitching stats()/satStats()/
/// blastStats() together (the CLI stats printout and the JSON stats
/// document are both rendered from this).
struct SolverTelemetry {
  uint64_t queries = 0;
  uint64_t sat = 0;
  uint64_t unsat = 0;
  uint64_t unknown = 0;
  uint64_t totalMicros = 0;
  uint64_t maxMicros = 0;
  uint64_t cacheHits = 0;
  SatSolver::Stats satCore;
  BitBlaster::Stats blast;
  uint64_t satVars = 0;
  uint64_t satClauses = 0;
  /// Canonical (cache-replayed, schedule-independent) query cost totals;
  /// the profiler's reconciliation targets (docs/observability.md).
  QueryCost canon;

  /// Abstract prefilter accounting (docs/absdomain.md). Every query lands
  /// in exactly one of four disjoint buckets: cacheHits, preShortcircuit
  /// (resolved before cache or prefilter — permanently-unsat, constant-
  /// false assumption, expired deadline), preConsulted (prefilter judged
  /// it at a cache miss) and directSolves (missed with the prefilter
  /// disabled). preSat/preUnsat/preFallback partition preConsulted.
  bool preEnabled = false;
  uint64_t preConsulted = 0;
  uint64_t preSat = 0;
  uint64_t preUnsat = 0;
  uint64_t preFallback = 0;
  uint64_t preShortcircuit = 0;
  uint64_t directSolves = 0;
  /// Summed abstract-core sizes over conclusive-unsat verdicts: how many
  /// constraints the abstract explanation blamed, totalled per judged key.
  uint64_t preCoreConstraints = 0;

  /// Hit rate over all queries (cached and solved), in [0,1].
  double cacheHitRate() const {
    return queries ? double(cacheHits) / double(queries) : 0.0;
  }

  /// Both prefilter accounting identities hold: the verdict kinds
  /// partition the consultations, and the four buckets partition the
  /// queries.
  bool prefilterReconciled() const {
    return preSat + preUnsat + preFallback == preConsulted &&
           cacheHits + preShortcircuit + preConsulted + directSolves ==
               queries;
  }

  /// The "solver" object of the stats schema (docs/observability.md).
  void writeJson(json::Writer& w) const;
  /// The top-level "prefilter" object of the stats schema (v6).
  void writePrefilterJson(json::Writer& w) const;
  std::string toJson() const;
  /// Human-readable two-line form used by `adlsym explore`.
  std::string format() const;
};

/// Capture hook for every SmtSolver::check: receives the full query (the
/// permanent assertions plus this check's assumptions), the verdict and
/// the measured latency. obs::QueryLogger implements this to dump a
/// replayable SMT-LIB corpus (docs/observability.md).
class QueryListener {
 public:
  virtual ~QueryListener() = default;
  virtual void onCheck(const std::vector<TermRef>& permanent,
                       const std::vector<TermRef>& assumptions,
                       CheckResult result, uint64_t micros, bool cached) = 0;
};

class SmtSolver {
 public:
  explicit SmtSolver(TermManager& tm)
      : tm_(tm), bb_(tm, sat_), scratchBb_(tm, scratchSat_) {}

  TermManager& termManager() { return tm_; }

  /// Permanently assert a width-1 term (conjoined with every later check).
  void assertAlways(TermRef t);

  /// Check satisfiability of the permanent assertions plus the given
  /// width-1 assumption terms.
  CheckResult check(const std::vector<TermRef>& assumptions) {
    return checkImpl(assumptions, /*needModel=*/true);
  }

  /// Like check(), but the caller promises not to read the model after a
  /// Sat verdict (lastModel()/modelValue() are unspecified). This is what
  /// lets the abstract prefilter short-circuit Sat verdicts: a conclusive
  /// abstract Sat carries no model, so model-needing callers still solve.
  CheckResult checkNoModel(const std::vector<TermRef>& assumptions) {
    return checkImpl(assumptions, /*needModel=*/false);
  }

  /// Model value of a term after a Sat result. The model is snapshotted at
  /// Sat time, so this works for any term (unconstrained variables read 0)
  /// and survives later incremental blasting.
  uint64_t modelValue(TermRef t);

  /// Raw variable values of the last Sat model, by Var index.
  const std::unordered_map<uint32_t, uint64_t>& lastModel() const {
    return model_;
  }

  /// Abandon a query after this many SAT conflicts (0 = unlimited);
  /// exploration treats Unknown paths as not-taken and reports them.
  void setConflictBudget(uint64_t budget) {
    conflictBudget_ = budget;
    sat_.setConflictBudget(budget);
  }

  /// Per-query wall deadline, layered on the conflict budget: abandon a
  /// query (Unknown) once it has run this long on the query clock — the
  /// injected telemetry clock when attached, the system clock otherwise.
  /// 0 = unlimited.
  void setQueryTimeoutMicros(uint64_t us) { queryTimeoutMicros_ = us; }

  /// Absolute wall deadline shared by *all* queries (0 = none): the
  /// explorer sets this to its own budget's end so no single check()
  /// overshoots maxWallSeconds. A query starting past the deadline
  /// returns Unknown without touching the SAT core.
  void setWallDeadlineMicros(uint64_t us) { wallDeadlineMicros_ = us; }

  /// Debug cross-check: re-solve every query on the scratch core (see
  /// checkFresh) and throw (with an SMT-LIB dump) if the incremental
  /// result diverges.
  /// Extremely slow; for tests and bug reports only.
  void setParanoid(bool on) { paranoid_ = on; }

  /// Query cache: exploration re-issues many identical feasibility checks
  /// (eager branch checks share prefixes with later full-path solves).
  /// Keyed on the assumption set; Sat entries replay their model. On by
  /// default; switchable for the E4 ablation.
  void setQueryCacheEnabled(bool on) { cacheEnabled_ = on; }
  uint64_t cacheHits() const { return cacheHits_; }

  struct Stats {
    uint64_t queries = 0;
    uint64_t sat = 0;
    uint64_t unsat = 0;
    uint64_t unknown = 0;
    uint64_t totalMicros = 0;
    uint64_t maxMicros = 0;
    /// Canonical per-query cost totals (see QueryCost): a cache miss adds
    /// the fresh-solve cost, a hit *replays* the stored cost, so these
    /// accumulate identically whichever caller took the miss. Observers
    /// read deltas of these to attribute solver cost per branch site.
    /// Keys the prefilter decided carry a canonical cost of zero — even
    /// when a model-needing caller forced a restoration solve — so the
    /// totals stay independent of which caller took the miss.
    QueryCost canon;
    /// Abstract-prefilter buckets; see SolverTelemetry for the invariants.
    uint64_t preConsulted = 0;
    uint64_t preSat = 0;
    uint64_t preUnsat = 0;
    uint64_t preFallback = 0;
    uint64_t preShortcircuit = 0;
    uint64_t directSolves = 0;
    uint64_t preCoreConstraints = 0;
    /// Model restorations: needModel checks served by a model-less
    /// prefiltered Sat entry. Which issuance of a key pays the
    /// restoration is scheduling-dependent, so this never reaches the
    /// stats JSON — it exists for logs and tests.
    uint64_t preModelRestores = 0;
    /// Per-issuance prefilter provenance, replayed from the cache on hits
    /// (preTag): a query whose key was judged conclusively counts as a
    /// "seen hit" every time it is issued, a judged-but-fallen-through
    /// key as a "seen miss". Observers read deltas of these to attribute
    /// prefilter effectiveness per branch site, schedule-independently.
    uint64_t preHitSeen = 0;
    uint64_t preMissSeen = 0;
  };
  const Stats& stats() const { return stats_; }
  const SatSolver::Stats& satStats() const { return sat_.stats(); }
  const BitBlaster::Stats& blastStats() const { return bb_.stats(); }

  /// Aggregate every layer's stats into one snapshot (see SolverTelemetry).
  SolverTelemetry telemetrySnapshot() const;

  /// Attach a telemetry bundle (may be null to detach): records the
  /// solver.query_us latency histogram, query/cache counters and
  /// solver_query trace events; forwarded to the SAT core and the
  /// bit-blaster for their own counters.
  void setTelemetry(telemetry::Telemetry* t);

  /// Attach a query-capture listener (null to detach). Every check() —
  /// including cache hits and short-circuited unsat checks — is reported.
  void setQueryListener(QueryListener* l) { listener_ = l; }

  /// Attach an *additional* listener (not owned, never detached): lets the
  /// event bus observe queries alongside a --query-log capture. Reported
  /// after the primary listener, in attachment order.
  void addQueryListener(QueryListener* l) {
    if (l != nullptr) extraListeners_.push_back(l);
  }

  /// Solve assumptions /\ permanent asserts from scratch, sharing no state
  /// with the incremental core: the scratch core is reset first, so the
  /// verdict is what a newly built core gives. Used by paranoid mode and
  /// tests; not counted in any stats.
  CheckResult checkFresh(const std::vector<TermRef>& assumptions);

  /// Fresh-solve mode (parallel exploration, docs/parallelism.md): every
  /// check() blasts the whole query into this solver's scratch core, reset
  /// per query, instead of the incremental core. reset() keeps only buffer
  /// capacity, so the CNF, the search and hence any Sat model are exactly
  /// what a newly built core gives: they depend only on term structure,
  /// never on what this instance solved before. The canonical models are
  /// what make -j1 and -jN byte-identical; the shared QueryCache (below)
  /// recovers the lost incrementality. The scratch core is per solver, so
  /// per worker, and is never shared between threads.
  void setFreshMode(bool on) { freshMode_ = on; }
  bool freshMode() const { return freshMode_; }

  /// Attach the run-wide shared query cache (not owned; null detaches).
  /// Only consulted in fresh mode: hits replay the canonical verdict and
  /// model, misses are solved fresh and published single-flight.
  void setSharedCache(QueryCache* c) { sharedCache_ = c; }

  /// Attach the abstract pre-solver (not owned; null detaches — the
  /// default). When attached, every cache miss is judged abstractly
  /// before any bit-blasting: a conclusive Unsat always short-circuits
  /// the solve, a conclusive Sat short-circuits it for checkNoModel()
  /// callers and triggers an off-the-books model restoration for
  /// check() callers. Per-worker, shared-nothing, like the term pool.
  void setPreSolver(PreSolver* p) { pre_ = p; }
  bool prefilterEnabled() const { return pre_ != nullptr; }

  /// One row of the profiler's query-shape table: queries grouped by the
  /// bit-width bucket of their canonical terms-blasted count. Sums are
  /// schedule-independent when aggregated over all workers: every
  /// issuance of a key carries the same replayed canonical cost, and a
  /// key with n issuances contributes exactly n-1 hits in total (under an
  /// unbounded cache) no matter which worker took the miss.
  struct ShapeRow {
    uint64_t queries = 0;
    uint64_t hits = 0;  // served from a cache (local or shared)
    uint64_t sat = 0;
    uint64_t unsat = 0;
    uint64_t unknown = 0;
    QueryCost cost;

    ShapeRow& operator+=(const ShapeRow& o) {
      queries += o.queries;
      hits += o.hits;
      sat += o.sat;
      unsat += o.unsat;
      unknown += o.unknown;
      cost += o.cost;
      return *this;
    }
  };

  /// Enable per-shape accumulation (profiler runs only; off by default).
  void setShapeProfiling(bool on) { shapeProfiling_ = on; }
  /// Rows keyed by bit_width(canonical terms) — 0 for cost-free
  /// short-circuited checks. std::map keeps emission order canonical.
  const std::map<unsigned, ShapeRow>& queryShapes() const { return shapes_; }

 private:
  CheckResult checkImpl(const std::vector<TermRef>& assumptions,
                        bool needModel);

  /// The one fresh-CNF path: reset the scratch core, blast the permanent
  /// asserts and then the assumptions into it, and solve. On the books
  /// (fresh-mode solves) it runs with telemetry, the conflict budget and
  /// `deadlineUs` (0 = none, on `clk`), and adds the core's stats to the
  /// fresh aggregates. Off the books (checkFresh, restoreModel) it runs
  /// detached and counts nothing, so whether (and where) such a solve
  /// happens can never perturb the schedule-independent counters. The
  /// Sat assignment stays readable in the scratch core until its next use.
  CheckResult solveScratch(const std::vector<TermRef>& assumptions,
                           bool onBooks, telemetry::Clock* clk,
                           uint64_t deadlineUs);

  /// Snapshot every blasted Var's value under `sat`'s current assignment
  /// into model_.
  void captureModel(const BitBlaster& bb, const SatSolver& sat);

  /// Model restoration for a prefilter-certified Sat query: solve the
  /// canonical CNF off the books, fill model_ and count a preModelRestore.
  /// Throws if the core disagrees with the certificate (an absdom
  /// soundness bug).
  void restoreModel(const std::vector<TermRef>& assumptions);

  TermManager& tm_;
  SatSolver sat_;
  BitBlaster bb_;
  std::vector<TermRef> permanentAsserts_;
  bool paranoid_ = false;
  bool permanentlyUnsat_ = false;
  std::unordered_map<uint32_t, uint64_t> model_;  // Var index -> value

  struct CacheEntry {
    CheckResult result = CheckResult::Unknown;
    std::unordered_map<uint32_t, uint64_t> model;  // for Sat entries
    QueryCost cost;  // replayed on hits (see Stats::canon)
    bool hasModel = true;   // false: prefiltered Sat, model not computed
    uint8_t preTag = 0;     // provenance, replayed on hits (see qcache.h)
  };
  bool cacheEnabled_ = true;
  std::unordered_map<std::string, CacheEntry> queryCache_;
  uint64_t cacheHits_ = 0;
  uint64_t queryTimeoutMicros_ = 0;
  uint64_t wallDeadlineMicros_ = 0;
  uint64_t conflictBudget_ = 0;

  bool freshMode_ = false;
  QueryCache* sharedCache_ = nullptr;
  // Per-worker memo of canonicalKey's sort keys, keyed by tm_'s TermIds.
  QueryCache::SortKeyMemo sortKeys_;
  PreSolver* pre_ = nullptr;
  // The scratch core of every from-scratch solve (see solveScratch).
  SatSolver scratchSat_;
  BitBlaster scratchBb_;
  telemetry::Telemetry* scratchTel_ = nullptr;  // attached to the scratch core
  std::vector<Lit> scratchLits_;                // assumption literals
  // Aggregates of the scratch core's on-the-books solves in fresh mode
  // (the members sat_/bb_ sit unused there); telemetrySnapshot() reads
  // these instead.
  SatSolver::Stats freshSat_;
  BitBlaster::Stats freshBlast_;
  uint64_t freshVars_ = 0;
  uint64_t freshClauses_ = 0;

  Stats stats_;

  bool shapeProfiling_ = false;
  std::map<unsigned, ShapeRow> shapes_;

  QueryListener* listener_ = nullptr;
  std::vector<QueryListener*> extraListeners_;

  // Telemetry (null when detached; hot paths branch on the pointers).
  telemetry::Telemetry* tel_ = nullptr;
  telemetry::Histogram* queryHist_ = nullptr;
  telemetry::Counter* queryCtr_ = nullptr;
  telemetry::Counter* cacheHitCtr_ = nullptr;
  telemetry::Counter* cacheMissCtr_ = nullptr;
  telemetry::Counter* preHitCtr_ = nullptr;
  telemetry::Counter* preMissCtr_ = nullptr;
};

}  // namespace adlsym::smt
