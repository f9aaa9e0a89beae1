// Deterministic cost-attribution profiler (docs/observability.md): a
// report type that joins the per-pc site table (obs::SiteStatsCollector,
// which charges execution cost — steps, RTL ticks — and solver cost —
// queries + canonical terms/gates/conflicts — to the pc that incurred it,
// and through the decoder to its mnemonic) with the per-RTL-statement
// tables (core::RtlProfile), the solver aggregate and the query-shape
// rows into the adlsym-profile-v2 JSON document, a collapsed-stack file
// for flamegraph tooling, and the top-level "profile" summary block of
// the stats document. v2 adds per-site abstract-prefilter hit/miss
// attribution (docs/absdomain.md).
//
// Every number here is canonical: per-step solver deltas replay cached
// costs (smt::QueryCost), RTL tick counts depend only on what executed,
// and all tables are std::maps — so the emitted artifacts are
// byte-identical across --jobs values under --clock=manual. Schedule-
// dependent signals (wall micros, steal counts, worker utilization) are
// deliberately excluded; they live in ParallelExplorer::PoolStats and go
// to stderr only.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "core/rtlprofile.h"
#include "obs/sitestats.h"
#include "smt/qcache.h"
#include "smt/solver.h"

namespace adlsym::json {
class Writer;
}

namespace adlsym::obs {

/// Joined view rendered after a run: collector sites + RTL statement
/// tables + solver/qcache aggregates. Plain struct — the CLI fills the
/// fields it has and calls the writers; null optional parts are skipped.
struct ProfileReport {
  std::string isa;      // ArchModel name
  std::string program;  // image path as given on the command line

  const SiteStatsCollector* sites = nullptr;  // required by all writers
  const core::RtlProfile* rtl = nullptr;  // per-statement tables; optional

  uint64_t engineSteps = 0;  // ExploreSummary::totalSteps
  /// RtlProfile::total(): the statement counts the executors flushed,
  /// accumulated apart from the per-step observer deltas.
  uint64_t engineRtlTicks = 0;

  smt::SolverTelemetry solver;  // aggregate snapshot (merged across workers)
  bool hasQcache = false;       // shared cache attached (parallel runs)
  smt::QueryCache::Stats qcache;
  /// Per-shape rows; null when shape profiling was off.
  const std::map<unsigned, smt::SmtSolver::ShapeRow>* shapes = nullptr;

  /// The acceptance identities: sum of per-site ticks == engine tick
  /// total, sum of per-site (in-step + off-step) queries == solver query
  /// total.
  struct Reconcile {
    uint64_t siteRtlTicks = 0;
    uint64_t engineRtlTicks = 0;
    uint64_t siteQueries = 0;
    uint64_t solverQueries = 0;
    bool ticksOk() const { return siteRtlTicks == engineRtlTicks; }
    bool queriesOk() const { return siteQueries == solverQueries; }
    bool ok() const { return ticksOk() && queriesOk(); }
  };
  Reconcile reconcile() const;

  /// The full adlsym-profile-v2 document (compact JSON + '\n').
  void writeJson(std::ostream& os) const;
  /// Collapsed-stack lines ("frame;frame value") for flamegraph tooling.
  /// Roots name their unit: exec_ticks (RTL statements), solver_gates
  /// (canonical AIG gates).
  void writeFolded(std::ostream& os) const;
  /// The top-level "profile" summary block of the stats document
  /// (appended to an open object; emitted only on profiling runs).
  void writeSummary(json::Writer& w) const;
  /// Human-readable tables for `adlsym profile` stdout.
  std::string formatText() const;
};

}  // namespace adlsym::obs
