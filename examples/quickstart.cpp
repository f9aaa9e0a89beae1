// Quickstart: symbolically execute a tiny handwritten rv32e program,
// enumerate all paths, and print the generated test inputs.
//
//   $ build/examples/quickstart
//
// The program reads one byte and classifies it — three paths, one witness
// input each.
#include <cstdio>

#include "core/testgen.h"
#include "driver/session.h"

int main() {
  const char* program = R"(
    ; classify one input byte: 0 -> exit 1, <16 -> exit 2, else exit 3
    .section text 0x0
    .entry _start
  _start:
    in8 x5              ; x5 = symbolic input byte
    beq x5, x0, is_zero
    addi x6, x0, 16
    bltu x5, x6, is_small
    halti 3
  is_zero:
    halti 1
  is_small:
    halti 2
  )";

  adlsym::driver::Session session("rv32e", program);
  adlsym::core::ExploreSummary summary = session.explore();

  std::printf("explored %zu paths on %s\n\n", summary.paths.size(),
              session.model().name.c_str());
  std::printf("%s", adlsym::core::formatSummary(summary).c_str());

  // Every witness replays concretely to the predicted exit code.
  for (const adlsym::core::PathResult& p : summary.paths) {
    const auto replayed = session.replay(p.test);
    std::printf("replay: exit=%llu (predicted %llu) -> %s\n",
                static_cast<unsigned long long>(
                    replayed.exitCode.value_or(~0ull)),
                static_cast<unsigned long long>(p.exitCode.value_or(~0ull)),
                replayed.exitCode == p.exitCode ? "match" : "MISMATCH");
  }
  return 0;
}
