// Reference interpreter of the pgen IR (workloads/pgen.h) with its strict
// 8-bit semantics. Independent of the ADL models, rtlc and the tree walker:
// it is the oracle every witness the explorer prints is replayed on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/state.h"
#include "workloads/pgen.h"

namespace adlbench {

struct RefResult {
  enum class End { Halt, Defect, InputExhausted, StepLimit };
  End end = End::StepLimit;
  uint64_t exitCode = 0;  // End::Halt
  std::optional<adlsym::core::DefectKind> defect;  // End::Defect
  std::vector<uint64_t> outputs;
  uint64_t steps = 0;  // IR instructions executed (labels excluded)
};

/// Run `p` on `inputs` (consumed in order by In). Stops at Halt, at the
/// first defect (DivU by zero, AddV signed overflow -> Trap, AssertEqR
/// mismatch), when In finds no input left, or after `maxSteps`.
RefResult refRun(const adlsym::workloads::PProgram& p,
                 const std::vector<uint8_t>& inputs,
                 uint64_t maxSteps = 50'000'000);

}  // namespace adlbench
