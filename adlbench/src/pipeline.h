// The explore pipeline adlbench measures, in two forms: the CLI entry point
// (driver::cli::cmdExplore, what users run) and the same pipeline rebuilt
// from the layers' public calls (isa::loadIsa, the assembler, a
// BytecodeExecutor, core::Explorer or core::ParallelExplorer). The rebuilt
// form runs either plain or traced; traced, it times the calls into each
// layer from outside the library and counts their work.
#pragma once

#include <cstdint>
#include <string>

#include "driver/cli.h"

namespace adlbench {

/// How a workload runs `adlsym explore`.
struct RunConfig {
  unsigned jobs = 0;  // 0 = sequential engine; N = --jobs=N
  /// ckpt-events flags: --jobs=1 --clock=manual --checkpoint-every=K
  /// --events --stats-json --manifest, files under `tmpDir`.
  bool ckptEvents = false;
  uint64_t checkpointEvery = 0;
  std::string tmpDir;
};

/// The options the CLI would parse for this workload. `ckpt`/`events`
/// drop one flag each for the ckpt-events overhead differentials.
adlsym::driver::cli::ExploreOptions cliOptions(const RunConfig& cfg,
                                               bool ckpt = true,
                                               bool events = true);

/// One program lowered to one ISA.
struct Job {
  size_t program = 0;  // index into the workload's program list
  std::string isa;
  std::string asmText;
  std::string imageText;  // assembled + serialized once, up front
};

/// Assemble `asmText` for `isa` (throws adlsym::Error on diagnostics).
std::string assembleImageText(const std::string& isa, const std::string& asmText);

/// Wall-clock microseconds on the steady clock.
double nowUs();

/// Per-layer accumulation of one traced round. Times are microseconds;
/// layers that run on worker threads are summed over threads here and
/// scaled by 1/jobs when reported.
struct LayerTally {
  double loadUs = 0, assembleUs = 0, compileUs = 0;
  double compileInExploreUs = 0;  // executor construction inside run()
  double exploreWallUs = 0;       // Explorer::run / ParallelExplorer::run
  double pipelineWallUs = 0;      // the whole rebuilt pipeline
  double execBusyUs = 0, smtInsideExecUs = 0;  // thread-time
  uint64_t execCalls = 0, execRetired = 0, execSuccessors = 0;
  double smtUs = 0;  // thread-time, QueryListener micros
  uint64_t smtQueries = 0, smtHits = 0, smtUnknown = 0;
  uint64_t preConsulted = 0, preDecided = 0;
  uint64_t blastTerms = 0, blastGates = 0, satConflicts = 0, satPropagations = 0;
  uint64_t paths = 0, forks = 0;
  uint64_t qcacheHits = 0, qcacheMisses = 0, qcacheInflightWaits = 0;
  uint64_t poolSteals = 0, poolStealWaitUs = 0;
  uint64_t poolMinSteps = 0, poolMaxSteps = 0;
  double poolBusyUs = 0, poolCapacityUs = 0;  // worker busy / jobs x wall
  uint64_t ckptWrites = 0, ckptBytes = 0;
  uint64_t eventsLines = 0, eventsBytes = 0;
  unsigned jobs = 1;
};

/// Counts that identify what one pipeline run did.
struct RunCounts {
  uint64_t paths = 0;
  uint64_t steps = 0;
  uint64_t queries = 0;
};

/// Run the rebuilt pipeline on one job and add its spans to `t`: the
/// load/assemble/compile/explore walls always, and with `traced` the
/// executor decorator's and the query listener's tallies too. Plain runs
/// attach neither.
RunCounts runLibrary(const Job& job, const RunConfig& cfg, LayerTally& t,
                     bool traced);

}  // namespace adlbench
