// Path exploration driver (DESIGN.md S7): maintains the frontier of
// running states, applies a search strategy, enforces budgets, and collects
// PathResults (with generated test inputs) for every completed path.
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/executor.h"
#include "core/observer.h"
#include "core/state.h"
#include "support/rng.h"

namespace adlsym::adl {
class ArchModel;
}

namespace adlsym::core {

enum class SearchStrategy : uint8_t {
  DFS,       // LIFO: plunge to path completion first
  BFS,       // FIFO: breadth over depth
  Random,    // uniform random pick (deterministic seed)
  Coverage,  // prefer states that most recently covered a new pc
};

const char* strategyName(SearchStrategy s);

struct ExplorerConfig {
  SearchStrategy strategy = SearchStrategy::DFS;
  uint64_t maxPaths = 100000;        // completed paths
  uint64_t maxTotalSteps = 1000000;  // instructions across all paths
  uint64_t maxStepsPerPath = 100000;
  /// Wall-clock budget in seconds; 0 = unlimited. Checked between steps
  /// *and* passed down to the solver as an absolute deadline
  /// (SmtSolver::setWallDeadlineMicros), so a slow query aborts (Unknown)
  /// at the budget instead of overshooting it. Measured on the telemetry
  /// clock when one is attached (EngineServices::telemetry), so tests can
  /// drive it deterministically with a ManualClock.
  double maxWallSeconds = 0.0;
  /// Frontier cap (0 = unbounded): when a push would exceed it, the
  /// governor evicts the state the strategy values *least* and reports it
  /// as Truncated{frontier}.
  uint64_t maxFrontier = 0;
  /// Approximate byte budget (0 = unbounded) covering frontier states
  /// (MachineState::approxBytes) plus the shared term pool; over budget,
  /// frontier states are evicted as Truncated{memory}.
  uint64_t memBudgetBytes = 0;
  uint64_t rngSeed = 1;
  /// Stop as soon as the first defect is reported (for E7 time-to-defect).
  bool stopAtFirstDefect = false;
  /// Veritesting-style state merging: frontier states that reconverge at
  /// the same pc with compatible traces are merged into one state with
  /// ite-selected registers/memory and a disjunctive path condition.
  /// Collapses diamond control flow (e.g. bitcount: 2^k paths -> k+1) at
  /// the cost of larger terms. Off by default (DESIGN.md §6 ablation).
  bool mergeStates = false;
  /// Lifecycle hook for the exploration observatory (core/observer.h).
  /// Not owned; null = no observation at zero cost.
  ExploreObserver* observer = nullptr;
};

struct ExploreSummary {
  std::vector<PathResult> paths;
  uint64_t totalSteps = 0;   // instructions symbolically executed
  uint64_t totalForks = 0;
  uint64_t statesDropped = 0;  // infeasible frontier entries
  uint64_t statesMerged = 0;   // frontier merges (mergeStates only)
  /// Paths the governor closed (status Truncated), total and by reason
  /// (indexed by TruncReason). Together with the completed paths these
  /// account for every forked state:
  ///   1 + totalForks == paths.size() + statesDropped + statesMerged.
  uint64_t statesTruncated = 0;
  std::array<uint64_t, 8> truncatedByReason{};
  /// Why the run stopped: "" when the frontier was exhausted (complete
  /// exploration), else "max-paths", "max-steps", "wall", "mem-budget"
  /// or "first-defect".
  std::string stopReason;
  /// Solver queries that returned Unknown during this run (conflict
  /// budget or deadline); those branches are treated as not-taken.
  uint64_t solverUnknowns = 0;
  size_t coveredPcs = 0;
  /// Every instruction address executed at least once (coverage report).
  std::set<uint64_t> coveredSet;
  double wallSeconds = 0.0;

  unsigned numDefects() const {
    unsigned n = 0;
    for (const auto& p : paths) n += p.defect.has_value() ? 1 : 0;
    return n;
  }
  unsigned numExited() const {
    unsigned n = 0;
    for (const auto& p : paths) n += p.status == PathStatus::Exited ? 1 : 0;
    return n;
  }
  /// True when any path was truncated for a *budget* reason (not the
  /// user-requested stopAtFirstDefect stop) — the CLI's exit-3 predicate.
  bool budgetExhausted() const {
    return statesTruncated >
           truncatedByReason[static_cast<size_t>(TruncReason::EarlyStop)];
  }
};

// ---- the exploration kernel (docs/parallelism.md) -------------------------
// The per-state rules both engines apply: the sequential Explorer below and
// the workers of the parallel engine (core/pexplorer.cpp). Each engine keeps
// only its scheduler around them.

/// Approximate resident bytes per hash-consed term (node + bucket + ref
/// bookkeeping); the governor's charge for a TermManager pool.
constexpr size_t kBytesPerTerm = 48;

/// Structural address of a state in the fork tree: the successor indices
/// taken from the root. Worker- and schedule-independent; lexicographic
/// order over keys is DFS preorder with children in fork-index order.
using PathKey = std::u32string;

/// Dotted-decimal form of a key: root = "", {1,0} = "1.0".
std::string keyToString(const PathKey& k);

/// `parent` extended by successor `i` when the step forked; straight-line
/// steps keep their key.
PathKey childKey(const PathKey& parent, bool forked, size_t i);

struct FrontierEntry {
  MachineState state;
  /// Structural key; the sequential engine fills it only when the
  /// observer wantsPathKeys().
  PathKey key;
  uint64_t order = 0;       // creation sequence number (strategy tie-break)
  uint64_t newCovered = 0;  // decaying new-pc credit (Coverage strategy)
  uint64_t node = 0;        // sequential path-forest node id (0 in parallel)
  size_t bytes = 0;         // approxBytes() at push time (governor tally)
};

/// Remove and return the entry strategy `s` schedules next.
FrontierEntry takeNext(SearchStrategy s, std::vector<FrontierEntry>& fr,
                       Rng& rng);
/// Remove and return the eviction victim: the entry `s` would schedule
/// last.
FrontierEntry takeVictim(SearchStrategy s, std::vector<FrontierEntry>& fr,
                         Rng& rng);

/// Frontier entry for a Running successor of `parent`: decays the parent's
/// coverage credit, measures the state and hits the "alloc" fault site.
FrontierEntry makeChild(MachineState&& succ, const FrontierEntry& parent,
                        bool newPcHere, PathKey key, uint64_t order,
                        uint64_t node);

/// Per-solver-context rules: one for the sequential engine, one per
/// parallel worker.
struct ExploreKernel {
  ExploreKernel(EngineServices& svc, const ExplorerConfig& cfg);

  EngineServices& svc;
  const ExplorerConfig& cfg;
  ExploreObserver* const ob;
  /// Serialise structural keys into PathResult / StepInfo.
  const bool wantKeys;

  /// Superblock fusing (stepMany with fuel > 1) is offered only when
  /// nothing can observe intermediate instructions: no observer, no
  /// telemetry (the executors time every instruction's decode and eval
  /// into the engine.decode_us / engine.eval_us histograms), no state
  /// merging (needs per-pc frontier hits), no governor
  /// budgets (their eviction points are step-granular), no fault injection
  /// (fault sites fire at their exact step), and DFS order (the fused
  /// stretch is exactly the sequence DFS would pop).
  bool fuseEligible() const;
  /// Fuel for one fused call on a state with `pathSteps` steps: reproduces
  /// every stop boundary of a per-instruction loop — per-path budget,
  /// total-step budget (`totalSteps` so far), the parallel engine's
  /// checkpoint level, and a bounded slab for the wall-clock cadence.
  uint64_t fuel(uint64_t pathSteps, uint64_t totalSteps,
                uint64_t levelLimit = UINT64_MAX) const;

  /// Terminal record of a state leaving the frontier (moves st): the
  /// PathResult fields, the witness solve (skipped for Truncated paths:
  /// the governor closed them because a budget ran out), exit code,
  /// outputs and the defect branch; reports onPathDone(node).
  PathResult finishPath(MachineState&& st, const PathKey& key, uint64_t node);
  /// Close `e` as Truncated{why} (governor eviction or stop).
  PathResult truncate(FrontierEntry& e, TruncReason why);
  /// Close `e` at the per-path step budget. Its witness solve runs outside
  /// any step window, so it is reported as onOffStepSolve at e's pc.
  PathResult closeAtBudget(FrontierEntry& e);

  /// StepInfo for stepping `cur` into `out`, with the solver deltas since
  /// `before` (step) and `runBase` (run). The engine fills the frontier,
  /// step, path and coverage totals.
  ExploreObserver::StepInfo stepInfo(
      const FrontierEntry& cur, const StepOut& out,
      const smt::SmtSolver::Stats& before, const smt::SmtSolver::Stats& after,
      const smt::SmtSolver::Stats& runBase) const;
};

class Explorer {
 public:
  Explorer(Executor& exec, EngineServices& services, ExplorerConfig config);
  Explorer(const Explorer&) = delete;  // kernel_ refers to config_

  /// Run exploration from the executor's initial state to exhaustion or
  /// budget. Deterministic for a fixed config.
  ExploreSummary run();

 private:
  /// Try to merge `incoming` into `host` (both Running, same pc).
  /// Returns false (leaving both untouched) when the states' traces are
  /// incompatible.
  bool tryMerge(MachineState& host, const MachineState& incoming);

  Executor& exec_;
  EngineServices& svc_;
  ExplorerConfig config_;
  ExploreKernel kernel_;
  std::set<uint64_t> covered_;
  telemetry::Gauge* frontierPeak_ = nullptr;
};

/// Default instruction budget of one concrete run (runConcrete,
/// Session::replay, `adlsym run`).
constexpr uint64_t kConcreteStepBudget = 100000;

/// One concrete run of `image` on the ADL engine `kind`, under the
/// checkers of `engine`: input k reads inputs[k] truncated to its width
/// (0 past the end), and the run stops after `maxSteps` instructions
/// (Budget). This is the Explorer on a bound input stream; every value is
/// a constant, so the single path never forks. A path the engine drops,
/// which only a disabled checker allows, comes back Infeasible.
PathResult runConcrete(const adl::ArchModel& model, const loader::Image& image,
                       const EngineConfig& engine, AdlEngineKind kind,
                       const std::vector<uint64_t>& inputs,
                       uint64_t maxSteps = kConcreteStepBudget,
                       telemetry::Telemetry* telemetry = nullptr);

}  // namespace adlsym::core
