// Executor interface + shared engine services. The explorer drives any
// Executor; two implementations exist: the ADL-driven evaluator
// (core/evaluator.h, the paper's contribution) and the hand-written rv32e
// baseline (baseline/rv32_engine.h, the E2 comparison).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/state.h"
#include "loader/image.h"
#include "smt/solver.h"
#include "support/telemetry.h"

namespace adlsym::core {

struct EngineConfig {
  /// Check both sides of a symbolic branch for feasibility at fork time
  /// (eager). When false, infeasible paths die later at their next check.
  bool eagerFeasibility = true;
  /// Case-split bound for symbolic jump targets (indirect branches).
  unsigned maxIndirectTargets = 16;
  /// Enable the engine-internal checkers.
  bool checkOob = true;
  bool checkDivZero = true;
  /// Generate witness test cases for completed paths and defects.
  bool generateTests = true;
};

/// Everything an executor needs from its environment. One instance is
/// shared across all states of an exploration run.
class EngineServices {
 public:
  EngineServices(smt::TermManager& tm, smt::SmtSolver& solver,
                 const loader::Image& image, const EngineConfig& config,
                 telemetry::Telemetry* telemetry = nullptr)
      : tm(tm), solver(solver), image(image), config(config),
        telemetry(telemetry) {
    solver.setTelemetry(telemetry);
  }

  smt::TermManager& tm;
  smt::SmtSolver& solver;
  const loader::Image& image;
  const EngineConfig& config;
  /// Optional observability bundle shared by every layer of this run; null
  /// = telemetry disabled (zero cost: call sites branch on the pointer).
  telemetry::Telemetry* telemetry = nullptr;
  /// Concrete input stream (not owned). Null = inputs are fresh symbolic
  /// variables; set = input k reads inputStream[k] (0 past the end), so
  /// the whole run is concrete (runConcrete, core/explorer.h).
  const std::vector<uint64_t>* inputStream = nullptr;

  /// Create the state's next input of `width` bits: named in<k>_w<width>,
  /// recorded in st.inputs, and returned as a fresh variable or, with an
  /// input stream bound, as the truncated stream value.
  smt::TermRef newInput(MachineState& st, unsigned width);

  /// Is pathCond(state) /\ extra satisfiable? Unknown counts as
  /// infeasible (documented limitation; counted in solver stats).
  bool feasible(const MachineState& st, smt::TermRef extra = {});

  /// Solve pathCond(state) /\ extra and extract a witness for the state's
  /// inputs. Callers must know the query is satisfiable (e.g. via a
  /// preceding feasible() call with the same arguments).
  TestCase solveWitness(const MachineState& st, smt::TermRef extra = {});

  /// Concrete model value of `t` under the last solved query.
  uint64_t modelOf(smt::TermRef t) { return solver.modelValue(t); }
};

/// One instruction executed on one state produces 0..N successor states
/// (0 = path infeasible; >1 = symbolic branch / defect fork).
struct StepOut {
  std::vector<MachineState> successors;
  /// RTL statements evaluated by this step (all forked arms included).
  /// Schedule-independent — the profiler's "evaluator ticks" unit; engines
  /// without RTL semantics (the rv32e baseline) leave it 0.
  uint64_t rtlTicks = 0;
  /// Instructions retired by this call: 1 for a plain step; 1+k when the
  /// executor fused k additional straight-line instructions (stepMany).
  uint64_t retired = 1;
  /// pcs of the fused instructions after the first one (empty for plain
  /// steps). The explorer folds these into its covered set so coverage
  /// accounting is identical whether or not a stretch was fused.
  std::vector<uint64_t> fusedPcs;
};

class RtlProfile;  // core/rtlprofile.h

/// Which ADL-driven engine implementation executes instruction semantics:
/// the load-time bytecode compiler (core/rtlc.h, the default) or the
/// tree-walking reference interpreter (core/evaluator.h). The two are
/// observationally equivalent by contract (docs/bytecode.md).
enum class AdlEngineKind { Bytecode, Interp };

class Executor {
 public:
  virtual ~Executor() = default;
  virtual std::string name() const = 0;
  /// Fresh state at the image entry point: registers zeroed, memory backed
  /// by the image.
  virtual MachineState initialState() = 0;
  /// Execute the instruction at in.pc.
  virtual void step(const MachineState& in, StepOut& out) = 0;
  /// Execute up to `fuel` instructions starting at in.pc, stopping early at
  /// anything that needs per-instruction handling (symbolic data, forks,
  /// checker activity). Engines without a fused fast path fall back to one
  /// step. out.retired reports how many instructions actually retired.
  virtual void stepMany(const MachineState& in, StepOut& out, uint64_t fuel) {
    (void)fuel;
    step(in, out);
  }
  /// Per-RTL-statement profiling hookup (no-op for engines without RTL
  /// semantics). See AdlExecutor::setRtlProfile for the flush contract.
  /// The profile must outlive this executor: the destructor flushes the
  /// executor-local counts into it.
  virtual void setRtlProfile(RtlProfile* p) { (void)p; }
  virtual void flushRtlProfile() {}
};

}  // namespace adlsym::core
