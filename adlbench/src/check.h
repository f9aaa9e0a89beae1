// Output checks for adlbench: parse the path table `adlsym explore` prints
// and hold every witness against the reference interpreter.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gen.h"

namespace adlbench {

struct PathRow {
  std::string status;  // exited | defect | budget | illegal | truncated ...
  uint64_t steps = 0;
  std::optional<uint64_t> exitCode;
  std::string defectKind;  // "" unless status == defect
  std::vector<uint64_t> outputs;
  std::vector<uint8_t> inputs;  // witness, in stream order
  std::string line;             // the printed row, for messages
};

struct ExploreTable {
  uint64_t paths = 0;
  uint64_t steps = 0;
  uint64_t forks = 0;
  uint64_t queries = 0;
  std::vector<PathRow> rows;
};

/// Parse the text cmdExplore returns (summary line, one row per path, the
/// solver lines). Returns nullopt and sets `err` on anything unexpected.
std::optional<ExploreTable> parseExploreOutput(const std::string& text,
                                               std::string& err);

/// Check one explore of `g` on one ISA: the exit code the CLI returned,
/// the closed-form path count, every witness replayed on the reference
/// interpreter (exit code, outputs, defect kind), and the planted defect.
/// Returns one message per problem found (empty = pass).
std::vector<std::string> checkExplore(const GenProgram& g, int exitCode,
                                      const ExploreTable& t);

}  // namespace adlbench
