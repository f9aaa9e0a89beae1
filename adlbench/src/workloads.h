// The four adlbench workloads: which generated programs each one runs and
// how it runs `adlsym explore` on them. Why each exists is recorded in
// adlbench/README.md.
#pragma once

#include <string>
#include <vector>

#include "gen.h"
#include "pipeline.h"

namespace adlbench {

struct Workload {
  std::string name;
  RunConfig cfg;
  /// Wall of one round of the batch on the reference machine (README.md).
  /// A timed run of S seconds runs round(S / roundSeconds) rounds, at
  /// least 3: a fixed count, so every run takes the same number of samples
  /// and the tail percentile does not move with the machine's speed.
  double roundSeconds = 1;
  /// The batch one seed generates; every program runs on all four ISAs.
  std::vector<GenProgram> programs(uint64_t seed) const;
};

/// Looks a workload up by name; nullptr when unknown.
const Workload* findWorkload(const std::string& name);

std::vector<std::string> workloadNames();

}  // namespace adlbench
