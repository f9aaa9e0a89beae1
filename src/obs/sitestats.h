// Per-pc site table (docs/observability.md): an ExploreObserver that
// charges everything that happens at an executed pc to that pc — steps,
// forks and drops for the stats document's "opcodes" and "branch_sites",
// and RTL ticks, solver queries with their canonical cost and prefilter
// outcomes for the profiler (obs/profile.h). Each pc is decoded once,
// when its site is created; the per-step cost is one map lookup.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "core/observer.h"
#include "decode/decoder.h"
#include "smt/qcache.h"

namespace adlsym::json {
class Writer;
struct Value;
}

namespace adlsym::obs {

class SiteStatsCollector final : public core::ExploreObserver {
 public:
  SiteStatsCollector(const adl::ArchModel& model, const loader::Image& image)
      : image_(image), decoder_(model) {}

  /// Thread-safe: parallel exploration workers report concurrently (an
  /// internal mutex guards the decoder cache and the table). Counts are
  /// order-independent sums over std::maps, so the JSON is identical
  /// across --jobs values. All StepInfo fields read are step-scoped
  /// deltas, never run* accumulators — in the parallel engine the latter
  /// are worker-local and meaningless summed.
  void onStepEnd(const StepInfo& info) override;
  void onDrop(uint64_t node, uint64_t pc) override;
  /// Budget-cut witness solves happen outside any step window; both
  /// engines report them here so per-site query sums still reconcile
  /// with the solver's aggregate query count.
  void onOffStepSolve(uint64_t pc, uint64_t queries, uint64_t canonTerms,
                      uint64_t canonGates, uint64_t canonConflicts,
                      uint64_t preHits, uint64_t preMisses) override;

  struct Site {
    std::string opcode;       // mnemonic; "<illegal>" when undecodable
    uint64_t hits = 0;        // times the instruction executed
    uint64_t forks = 0;       // steps yielding >1 successor
    uint64_t infeasible = 0;  // steps yielding 0 successors (drops)
    uint64_t rtlTicks = 0;
    uint64_t queries = 0;         // issued inside this site's step windows
    uint64_t offStepQueries = 0;  // budget-cut witness solves charged here
    smt::QueryCost canon;         // canonical solver cost (replayed on hits)
    /// Abstract-prefilter outcomes of this site's queries, per issuance
    /// (replayed like canon, so schedule-independent).
    uint64_t prefilterHits = 0;
    uint64_t prefilterMisses = 0;
  };

  const std::map<uint64_t, Site>& sites() const { return sites_; }
  /// Executions per mnemonic, summed from the site table.
  std::map<std::string, uint64_t> opcodeCounts() const;

  /// Append the "opcodes" object and "branch_sites" array to an open JSON
  /// object (the stats document).
  void writeJson(json::Writer& w) const;

  /// Full-state serialization for checkpoints (adlsym-ckpt-v1): unlike
  /// writeJson this includes hit-only sites, so a resumed run's final
  /// stats document is byte-identical to the uninterrupted run's. The
  /// profiler's per-site costs are not checkpointed.
  void writeCkptJson(json::Writer& w) const;

  /// Fold a parsed writeCkptJson() section in (--resume baseline).
  /// Throws InputError on malformed input.
  void restoreFromCkpt(const json::Value& v);

 private:
  /// The site of `pc`, created (and its opcode resolved) on first use.
  /// Caller holds mu_.
  Site& siteAt(uint64_t pc);

  mutable std::mutex mu_;
  const loader::Image& image_;
  decode::Decoder decoder_;
  std::map<uint64_t, Site> sites_;  // pc -> events and costs
};

}  // namespace adlsym::obs
