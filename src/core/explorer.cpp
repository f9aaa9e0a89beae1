#include "core/explorer.h"

#include <algorithm>
#include <limits>

#include "core/rtlc.h"
#include "core/testgen.h"
#include "support/fault.h"
#include "support/stop.h"

namespace adlsym::core {

const char* strategyName(SearchStrategy s) {
  switch (s) {
    case SearchStrategy::DFS: return "dfs";
    case SearchStrategy::BFS: return "bfs";
    case SearchStrategy::Random: return "random";
    case SearchStrategy::Coverage: return "coverage";
  }
  return "?";
}

std::string keyToString(const PathKey& k) {
  std::string out;
  for (size_t i = 0; i < k.size(); ++i) {
    if (i != 0) out += '.';
    out += std::to_string(static_cast<uint32_t>(k[i]));
  }
  return out;
}

PathKey childKey(const PathKey& parent, bool forked, size_t i) {
  PathKey k = parent;
  if (forked) k.push_back(static_cast<char32_t>(i));
  return k;
}

namespace {
FrontierEntry takeAt(std::vector<FrontierEntry>& fr, size_t i) {
  FrontierEntry e = std::move(fr[i]);
  fr.erase(fr.begin() + static_cast<long>(i));
  return e;
}
}  // namespace

FrontierEntry takeNext(SearchStrategy s, std::vector<FrontierEntry>& fr,
                       Rng& rng) {
  switch (s) {
    case SearchStrategy::DFS:
      break;  // plunge to path completion first: the back
    case SearchStrategy::BFS:
      return takeAt(fr, 0);
    case SearchStrategy::Random:
      return takeAt(fr, static_cast<size_t>(rng.below(fr.size())));
    case SearchStrategy::Coverage: {
      // Highest new-coverage count wins; newest state breaks ties (keeps a
      // DFS flavor so progress is still made when nothing is novel).
      size_t best = 0;
      for (size_t i = 1; i < fr.size(); ++i) {
        const FrontierEntry& a = fr[i];
        const FrontierEntry& b = fr[best];
        if (a.newCovered > b.newCovered ||
            (a.newCovered == b.newCovered && a.order > b.order)) {
          best = i;
        }
      }
      return takeAt(fr, best);
    }
  }
  return takeAt(fr, fr.size() - 1);
}

FrontierEntry takeVictim(SearchStrategy s, std::vector<FrontierEntry>& fr,
                         Rng& rng) {
  switch (s) {
    case SearchStrategy::DFS:
      break;  // DFS schedules the back first; the front goes last
    case SearchStrategy::BFS:
      return takeAt(fr, fr.size() - 1);  // BFS drains the front
    case SearchStrategy::Random:
      return takeAt(fr, static_cast<size_t>(rng.below(fr.size())));
    case SearchStrategy::Coverage: {
      // Inverse of takeNext: least new coverage loses; oldest breaks ties.
      size_t worst = 0;
      for (size_t i = 1; i < fr.size(); ++i) {
        const FrontierEntry& a = fr[i];
        const FrontierEntry& b = fr[worst];
        if (a.newCovered < b.newCovered ||
            (a.newCovered == b.newCovered && a.order < b.order)) {
          worst = i;
        }
      }
      return takeAt(fr, worst);
    }
  }
  return takeAt(fr, 0);
}

FrontierEntry makeChild(MachineState&& succ, const FrontierEntry& parent,
                        bool newPcHere, PathKey key, uint64_t order,
                        uint64_t node) {
  FrontierEntry f;
  f.newCovered = parent.newCovered / 2 + (newPcHere ? 1 : 0);
  f.order = order;
  f.node = node;
  f.key = std::move(key);
  f.state = std::move(succ);
  f.bytes = f.state.approxBytes();
  fault::hit("alloc");  // frontier growth is the engine's allocation site
  return f;
}

ExploreKernel::ExploreKernel(EngineServices& svc, const ExplorerConfig& cfg)
    : svc(svc),
      cfg(cfg),
      ob(cfg.observer),
      wantKeys(ob != nullptr && ob->wantsPathKeys()) {}

bool ExploreKernel::fuseEligible() const {
  return ob == nullptr && svc.telemetry == nullptr && !cfg.mergeStates &&
         cfg.strategy == SearchStrategy::DFS && cfg.maxFrontier == 0 &&
         cfg.memBudgetBytes == 0 && !fault::armed();
}

uint64_t ExploreKernel::fuel(uint64_t pathSteps, uint64_t totalSteps,
                             uint64_t levelLimit) const {
  uint64_t f = cfg.maxStepsPerPath - pathSteps;
  if (levelLimit != UINT64_MAX) f = std::min(f, levelLimit - pathSteps);
  // The parallel engine's global step count can overshoot the budget
  // between its check and this call; one more instruction is the floor.
  f = std::min(f, cfg.maxTotalSteps > totalSteps
                     ? cfg.maxTotalSteps - totalSteps
                     : uint64_t{1});
  f = std::min<uint64_t>(f, 4096);
  if (cfg.maxWallSeconds > 0.0) f = std::min<uint64_t>(f, 128);
  return f;
}

PathResult ExploreKernel::finishPath(MachineState&& st, const PathKey& key,
                                     uint64_t node) {
  PathResult r;
  r.status = st.status;
  r.truncReason = st.truncReason;
  r.finalPc = st.pc;
  r.steps = st.steps;
  r.forks = st.forks;
  if (wantKeys) r.pathKey = keyToString(key);
  if (st.defect) {
    r.defect = std::move(st.defect);
    r.test = r.defect->witness;
    // A concrete run (bound input stream) also reports what the program
    // output before the fault; its output terms are all constants.
    if (svc.inputStream != nullptr) {
      for (const OutputRecord& o : st.outputs) {
        r.outputs.push_back(o.term.constValue());
      }
    }
  } else if (st.status != PathStatus::Truncated && svc.config.generateTests &&
             svc.solver.check(st.pathCond) == smt::CheckResult::Sat) {
    // One solve of the path condition gives the witness, the concrete
    // exit code and the concrete output trace.
    for (const InputRecord& in : st.inputs) {
      r.test.inputs.push_back(
          {in.name, in.width, svc.solver.modelValue(in.term)});
    }
    if (st.status == PathStatus::Exited && st.exitCode.valid()) {
      r.exitCode = svc.solver.modelValue(st.exitCode);
    }
    for (const OutputRecord& o : st.outputs) {
      r.outputs.push_back(svc.solver.modelValue(o.term));
    }
  }
  if (ob) ob->onPathDone(node, r);
  return r;
}

PathResult ExploreKernel::truncate(FrontierEntry& e, TruncReason why) {
  e.state.status = PathStatus::Truncated;
  e.state.truncReason = why;
  return finishPath(std::move(e.state), e.key, e.node);
}

PathResult ExploreKernel::closeAtBudget(FrontierEntry& e) {
  e.state.status = PathStatus::Budget;
  const uint64_t cutPc = e.state.pc;
  smt::SmtSolver::Stats pre;
  if (ob) pre = svc.solver.stats();
  PathResult r = finishPath(std::move(e.state), e.key, e.node);
  if (ob) {
    // Report the witness solve so per-site attributed queries still sum
    // to the solver total.
    const smt::SmtSolver::Stats post = svc.solver.stats();
    if (post.queries != pre.queries) {
      ob->onOffStepSolve(cutPc, post.queries - pre.queries,
                         post.canon.terms - pre.canon.terms,
                         post.canon.gates - pre.canon.gates,
                         post.canon.conflicts - pre.canon.conflicts,
                         post.preHitSeen - pre.preHitSeen,
                         post.preMissSeen - pre.preMissSeen);
    }
  }
  return r;
}

ExploreObserver::StepInfo ExploreKernel::stepInfo(
    const FrontierEntry& cur, const StepOut& out,
    const smt::SmtSolver::Stats& before, const smt::SmtSolver::Stats& after,
    const smt::SmtSolver::Stats& runBase) const {
  ExploreObserver::StepInfo si;
  si.node = cur.node;
  si.pc = cur.state.pc;
  si.numSuccessors = out.successors.size();
  si.stepSolverQueries = after.queries - before.queries;
  si.stepSolverMicros = after.totalMicros - before.totalMicros;
  si.runSolverQueries = after.queries - runBase.queries;
  si.runSolverMicros = after.totalMicros - runBase.totalMicros;
  si.depth = cur.state.forks;
  si.stepRtlTicks = out.rtlTicks;
  si.stepCanonTerms = after.canon.terms - before.canon.terms;
  si.stepCanonGates = after.canon.gates - before.canon.gates;
  si.stepCanonConflicts = after.canon.conflicts - before.canon.conflicts;
  si.runCacheHits = after.cacheHits - runBase.cacheHits;
  si.stepPrefilterHits = after.preHitSeen - before.preHitSeen;
  si.stepPrefilterMisses = after.preMissSeen - before.preMissSeen;
  if (wantKeys) si.pathKey = keyToString(cur.key);
  si.pathSteps = cur.state.steps;  // pre-step count (cur is unstepped)
  return si;
}

Explorer::Explorer(Executor& exec, EngineServices& services,
                   ExplorerConfig config)
    : exec_(exec), svc_(services), config_(config), kernel_(svc_, config_) {
  if (telemetry::Telemetry* t = svc_.telemetry) {
    frontierPeak_ = &t->metrics().gauge("explore.frontier_peak");
  }
}

namespace {
/// Conjunction of pathCond[from..].
smt::TermRef conjFrom(smt::TermManager& tm,
                      const std::vector<smt::TermRef>& pc, size_t from) {
  smt::TermRef acc = tm.mkTrue();
  for (size_t i = from; i < pc.size(); ++i) acc = tm.mkAnd(acc, pc[i]);
  return acc;
}
}  // namespace

bool Explorer::tryMerge(MachineState& host, const MachineState& incoming) {
  // Compatibility: identical storage shape and identical observable
  // traces so far (inputs must be the very same stream positions; output
  // *counts* must match — values are merged with ites).
  if (host.pc != incoming.pc) return false;
  if (host.status != PathStatus::Running ||
      incoming.status != PathStatus::Running) {
    return false;
  }
  if (host.regs.size() != incoming.regs.size() ||
      host.regfile.size() != incoming.regfile.size() ||
      host.inputCounter != incoming.inputCounter ||
      host.inputs.size() != incoming.inputs.size() ||
      host.outputs.size() != incoming.outputs.size()) {
    return false;
  }
  for (size_t i = 0; i < host.inputs.size(); ++i) {
    if (host.inputs[i].term != incoming.inputs[i].term) return false;
  }

  smt::TermManager& tm = svc_.tm;
  // Split the path conditions at their common prefix.
  size_t k = 0;
  const size_t maxK = std::min(host.pathCond.size(), incoming.pathCond.size());
  while (k < maxK && host.pathCond[k] == incoming.pathCond[k]) ++k;
  const smt::TermRef condHost = conjFrom(tm, host.pathCond, k);
  const smt::TermRef condIn = conjFrom(tm, incoming.pathCond, k);

  auto merge = [&](smt::TermRef a, smt::TermRef b) {
    return a == b ? a : tm.mkIte(condHost, a, b);
  };
  for (size_t i = 0; i < host.regs.size(); ++i) {
    host.regs[i] = merge(host.regs[i], incoming.regs[i]);
  }
  for (size_t i = 0; i < host.regfile.size(); ++i) {
    host.regfile[i] = merge(host.regfile[i], incoming.regfile[i]);
  }
  for (size_t i = 0; i < host.outputs.size(); ++i) {
    host.outputs[i].term = merge(host.outputs[i].term, incoming.outputs[i].term);
  }
  // Memory: ite-merge every byte either side has written.
  std::vector<uint64_t> addrs = host.memory.overlayAddresses();
  const std::vector<uint64_t> other = incoming.memory.overlayAddresses();
  addrs.insert(addrs.end(), other.begin(), other.end());
  std::sort(addrs.begin(), addrs.end());
  addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
  for (const uint64_t addr : addrs) {
    const smt::TermRef a = host.memory.readByte(tm, addr);
    const smt::TermRef b = incoming.memory.readByte(tm, addr);
    check(a.valid() && b.valid(), "merge: overlay byte unreadable");
    if (a != b) host.memory.writeByte(addr, tm.mkIte(condHost, a, b));
  }

  host.pathCond.resize(k);
  host.addConstraint(tm.mkOr(condHost, condIn));
  host.steps = std::max(host.steps, incoming.steps);
  host.forks = std::max(host.forks, incoming.forks);
  return true;
}

ExploreSummary Explorer::run() {
  // Wall time runs on the injectable telemetry clock when attached, the
  // system steady clock otherwise (so the budget stays testable without
  // sleeping).
  telemetry::Clock& clk =
      svc_.telemetry ? svc_.telemetry->clock() : telemetry::Clock::system();
  const uint64_t startUs = clk.nowMicros();
  // Make maxWallSeconds a real bound: hand the solver the same absolute
  // deadline, so one slow query aborts (Unknown) at the budget instead of
  // overshooting it (the documented flaw this replaces). Cleared before
  // returning — the solver instance may outlive this run.
  if (config_.maxWallSeconds > 0.0) {
    svc_.solver.setWallDeadlineMicros(
        startUs + static_cast<uint64_t>(config_.maxWallSeconds * 1e6));
  }
  ExploreSummary summary;
  Rng rng(config_.rngSeed);
  covered_.clear();
  ExploreObserver* ob = config_.observer;
  // Path-forest node ids: 0 is the root; forks mint fresh ids, straight-
  // line steps keep theirs. Only meaningful (and only maintained past the
  // counter) when an observer is attached.
  uint64_t nodeCounter = 0;
  // Solver-work baseline so StepInfo can report run-relative deltas even
  // when the solver instance is shared across explorations.
  const smt::SmtSolver::Stats solverBase = svc_.solver.stats();

  std::vector<FrontierEntry> frontier;
  uint64_t orderCounter = 0;
  size_t frontierBytes = 0;  // sum of FrontierEntry::bytes (governor tally)
  // Completed (non-truncated) paths; the maxPaths unit. Governor
  // evictions do not count against the completed-path budget.
  uint64_t completed = 0;
  // The reason stamped on frontier states left over when the loop stops.
  TruncReason closeReason = TruncReason::None;

  // Close one frontier state as Truncated{why} (governor eviction).
  auto evict = [&](TruncReason why) {
    FrontierEntry ev = takeVictim(config_.strategy, frontier, rng);
    frontierBytes -= ev.bytes;
    summary.paths.push_back(kernel_.truncate(ev, why));
  };

  const bool fuseOk = kernel_.fuseEligible();

  FrontierEntry& root = frontier.emplace_back();
  root.state = exec_.initialState();
  root.order = orderCounter++;
  root.node = nodeCounter++;
  root.bytes = frontierBytes = root.state.approxBytes();
  if (ob) ob->onRoot(root.node, root.state);

  while (!frontier.empty()) {
    if (support::stopRequested()) {
      summary.stopReason = "signal";
      closeReason = TruncReason::Signal;
      break;
    }
    if (completed >= config_.maxPaths) {
      summary.stopReason = "max-paths";
      closeReason = TruncReason::Paths;
      break;
    }
    if (summary.totalSteps >= config_.maxTotalSteps) {
      summary.stopReason = "max-steps";
      closeReason = TruncReason::Steps;
      break;
    }
    if (config_.maxWallSeconds > 0.0 &&
        double(clk.nowMicros() - startUs) / 1e6 > config_.maxWallSeconds) {
      summary.stopReason = "wall";
      closeReason = TruncReason::Wall;
      break;
    }

    FrontierEntry cur = takeNext(config_.strategy, frontier, rng);
    frontierBytes -= cur.bytes;

    if (cur.state.steps >= config_.maxStepsPerPath) {
      summary.paths.push_back(kernel_.closeAtBudget(cur));
      ++completed;
      continue;
    }

    const size_t condBefore = cur.state.pathCond.size();
    smt::SmtSolver::Stats solverBefore;
    if (ob) {
      solverBefore = svc_.solver.stats();
      ob->onStepBegin(cur.node, cur.state);
    }
    StepOut out;
    if (fuseOk) {
      exec_.stepMany(cur.state, out,
                     kernel_.fuel(cur.state.steps, summary.totalSteps));
    } else {
      exec_.step(cur.state, out);
    }
    summary.totalSteps += out.retired;
    const bool newPcHere = covered_.insert(cur.state.pc).second;
    for (const uint64_t fpc : out.fusedPcs) covered_.insert(fpc);

    const bool forked = out.successors.size() > 1;
    if (forked) summary.totalForks += out.successors.size() - 1;
    if (out.successors.empty()) {
      ++summary.statesDropped;
      if (ob) ob->onDrop(cur.node, cur.state.pc);
    }
    bool sawDefect = false;
    for (size_t si = 0; si < out.successors.size(); ++si) {
      MachineState& succ = out.successors[si];
      const uint64_t childNode = forked ? nodeCounter++ : cur.node;
      // Structural keys only on request: each fork costs one key per
      // successor, which un-keyed observers shouldn't pay.
      PathKey key =
          kernel_.wantKeys ? childKey(cur.key, forked, si) : PathKey{};
      if (ob && forked) ob->onChild(cur.node, childNode, succ, condBefore);
      if (succ.status == PathStatus::Running) {
        if (config_.mergeStates) {
          bool merged = false;
          for (FrontierEntry& f : frontier) {
            if (f.state.pc == succ.pc && tryMerge(f.state, succ)) {
              merged = true;
              ++summary.statesMerged;
              if (ob) ob->onMerge(f.node, childNode, succ.pc);
              break;
            }
          }
          if (merged) continue;
        }
        frontier.push_back(makeChild(std::move(succ), cur, newPcHere,
                                     std::move(key), orderCounter++,
                                     childNode));
        frontierBytes += frontier.back().bytes;
        if (frontierPeak_) {
          frontierPeak_->setMax(static_cast<int64_t>(frontier.size()));
        }
        if (config_.maxFrontier != 0 &&
            frontier.size() > config_.maxFrontier) {
          evict(TruncReason::Frontier);
        }
      } else {
        sawDefect = sawDefect || succ.defect.has_value();
        summary.paths.push_back(
            kernel_.finishPath(std::move(succ), key, childNode));
        ++completed;
      }
    }
    // Byte budget: frontier states plus the shared term pool. Evict until
    // under budget; if that drains the whole frontier the run ends as
    // "mem-budget" (the pool alone no longer fits).
    if (config_.memBudgetBytes != 0 && !frontier.empty()) {
      const size_t poolBytes = svc_.tm.numTerms() * kBytesPerTerm;
      while (!frontier.empty() &&
             frontierBytes + poolBytes > config_.memBudgetBytes) {
        evict(TruncReason::Memory);
      }
      if (frontier.empty()) {
        summary.stopReason = "mem-budget";
        break;
      }
    }
    if (ob) {
      ExploreObserver::StepInfo si = kernel_.stepInfo(
          cur, out, solverBefore, svc_.solver.stats(), solverBase);
      si.frontierSize = frontier.size();
      si.totalSteps = summary.totalSteps;
      si.pathsDone = summary.paths.size();
      si.coveredPcs = covered_.size();
      si.frontierBytes = frontierBytes;
      ob->onStepEnd(si);
    }
    if (sawDefect && config_.stopAtFirstDefect) {
      summary.stopReason = "first-defect";
      closeReason = TruncReason::EarlyStop;
      break;
    }
  }

  // Close out *every* remaining frontier state as Truncated{closeReason}
  // so truncated + completed paths account for each forked state:
  //   1 + totalForks == paths.size() + statesDropped + statesMerged.
  // A non-empty frontier here means a break fired, and every break sets
  // closeReason before breaking.
  for (FrontierEntry& f : frontier) {
    summary.paths.push_back(kernel_.truncate(f, closeReason));
  }
  frontier.clear();
  for (const PathResult& p : summary.paths) {
    if (p.status == PathStatus::Truncated) {
      ++summary.statesTruncated;
      ++summary.truncatedByReason[static_cast<size_t>(p.truncReason)];
    }
  }
  summary.solverUnknowns = svc_.solver.stats().unknown - solverBase.unknown;

  summary.coveredPcs = covered_.size();
  summary.coveredSet = covered_;
  summary.wallSeconds = double(clk.nowMicros() - startUs) / 1e6;
  svc_.solver.setWallDeadlineMicros(0);
  return summary;
}

PathResult runConcrete(const adl::ArchModel& model, const loader::Image& image,
                       const EngineConfig& engine, AdlEngineKind kind,
                       const std::vector<uint64_t>& inputs, uint64_t maxSteps,
                       telemetry::Telemetry* telemetry) {
  smt::TermManager tm;
  smt::SmtSolver solver(tm);
  EngineConfig cfg = engine;
  cfg.generateTests = true;  // the exit code and outputs come from the model
  EngineServices svc(tm, solver, image, cfg, telemetry);
  svc.inputStream = &inputs;
  const std::unique_ptr<Executor> exec = makeAdlExecutor(kind, model, svc);
  ExplorerConfig ecfg;
  ecfg.maxStepsPerPath = maxSteps;
  ecfg.maxTotalSteps = std::numeric_limits<uint64_t>::max();
  ExploreSummary summary = Explorer(*exec, svc, ecfg).run();
  check(summary.paths.size() <= 1, "runConcrete: a concrete run forked");
  if (summary.paths.empty()) {
    PathResult dropped;
    dropped.status = PathStatus::Infeasible;
    return dropped;
  }
  return std::move(summary.paths.front());
}

}  // namespace adlsym::core
