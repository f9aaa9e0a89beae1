// Seeded program families for adlbench. Every program is written in the
// portable pgen IR (workloads/pgen.h) and lowered to all four shipped ISAs,
// so one generated program exercises the retargeting claim on each ISA.
// The same (seed, family, index) always yields the same IR, hence a
// byte-identical image per ISA.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/state.h"
#include "workloads/pgen.h"

namespace adlbench {

struct GenProgram {
  std::string family;  // firmware | hash | sort | tlv | bitcount
  std::string name;    // family + index, unique within one workload batch
  adlsym::workloads::PProgram ir;
  /// Path count implied by the program's structure (unconstrained 8-bit
  /// inputs), when one is known.
  std::optional<uint64_t> closedFormPaths;
  /// Defect the generator planted; the explorer must report at least one
  /// path with this kind, and every reported defect must replay to it.
  /// Workloads choose which programs carry one, so a batch's work does not
  /// depend on the seed.
  std::optional<adlsym::core::DefectKind> planted;
};

/// Long concrete checksum/LCG loops over seeded tables behind `guards`
/// symbolic bit tests of one input byte: 2^guards paths, exactly
/// `itersPerGuard` inner iterations per taken guard.
GenProgram genFirmware(uint64_t seed, unsigned guards, unsigned itersPerGuard);

/// h = h*M + x over `n` symbolic bytes with a 3-bit masked compare after
/// every round: 2^n paths. `plant` divides by the last input byte, adding
/// 2^(n-1) division-by-zero paths.
GenProgram genHashChain(uint64_t seed, unsigned n, bool plant);

/// Bubble sort of `n` symbolic bytes (seeded slot order and direction),
/// then a sortedness assertion that a correct sort never fails: one path
/// per weak order of the inputs.
GenProgram genSort(uint64_t seed, unsigned n);

/// Tag-length-value parser over `records` records with seeded tags and
/// payload limits on the odd records. `plant` makes record 1's
/// accumulate a checked (trapping) add.
GenProgram genTlv(uint64_t seed, unsigned records, bool plant);

/// Population count over `bits` seeded bit positions of an input byte
/// xored with a seeded key: 2^bits paths, zero-gate queries.
GenProgram genBitcount(uint64_t seed, unsigned bits);

/// Stable per-(seed, family, index) stream seed, so a family's i-th
/// program is the same whichever workload generates it.
uint64_t streamSeed(uint64_t seed, const std::string& family, unsigned index);

}  // namespace adlbench
