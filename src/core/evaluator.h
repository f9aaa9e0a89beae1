// The retargetable symbolic execution engine (DESIGN.md S7): a single,
// architecture-independent interpreter of ADL instruction semantics over
// SMT terms. Retargeting = loading a different ArchModel; nothing here is
// ISA-specific. This is the paper's primary contribution.
#pragma once

#include "adl/model.h"
#include "core/checkers.h"
#include "core/executor.h"
#include "core/rtlprofile.h"
#include "decode/decoder.h"

namespace adlsym::core {

class AdlExecutor : public Executor {
 public:
  AdlExecutor(const adl::ArchModel& model, EngineServices& services);
  ~AdlExecutor() override { flushRtlProfile(); }

  std::string name() const override { return "adl:" + model_.name; }
  MachineState initialState() override;
  void step(const MachineState& in, StepOut& out) override;

  const adl::ArchModel& model() const { return model_; }
  decode::Decoder& decoder() { return decoder_; }

  /// Enable per-RTL-statement counting into `p` (profiler runs only).
  /// Counts accumulate executor-locally and reach `p` on flush — which the
  /// destructor guarantees, so parallel workers flush before
  /// ParallelExplorer::run() returns.
  void setRtlProfile(RtlProfile* p) override;
  void flushRtlProfile() override;

 private:
  /// Per-instruction evaluation context.
  struct Frame {
    const decode::DecodedInsn* d = nullptr;
    uint64_t insnAddr = 0;
    std::vector<smt::TermRef> lets;
    smt::TermRef newPc;  // set by `pc = ...`; invalid => fall-through
    CheckSite site;
  };

  /// Execute the remaining statement worklist on `st`; may fork (recursing
  /// for each arm of a symbolic if) and appends finished successors to out.
  void execStmts(MachineState st, Frame frame,
                 std::vector<const adl::rtl::Stmt*> work, StepOut& out);

  /// Evaluate an RTL expression. Sets `dead` (and possibly appends defect
  /// successors) when a checker kills the path; the returned term is then
  /// invalid.
  smt::TermRef evalExpr(const adl::rtl::Expr& e, MachineState& st, Frame& f,
                        StepOut& out, bool& dead);

  /// Finish an instruction: resolve the next pc (enumerating symbolic
  /// targets) and emit the successor(s).
  void finishInsn(MachineState st, Frame& frame, StepOut& out);

  smt::TermRef readRegFile(MachineState& st, uint64_t index);
  void writeRegFile(MachineState& st, uint64_t index, smt::TermRef v);

  const adl::ArchModel& model_;
  EngineServices& svc_;
  decode::Decoder decoder_;

  // Telemetry handles, resolved once at construction (null when disabled).
  telemetry::Histogram* decodeHist_ = nullptr;
  telemetry::Histogram* evalHist_ = nullptr;

  // Profiler hookup (null when not profiling): shared site table +
  // executor-local counts, folded in by flushRtlProfile().
  RtlProfile* rtlProf_ = nullptr;
  std::vector<uint64_t> rtlLocal_;
};

}  // namespace adlsym::core
