// Lower a named portable workload (src/workloads/programs.h, or a case of
// the defect suite in src/workloads/defects.h) to the
// textual image format for any shipped ISA and print it. CI smoke
// scripts (tools/ckpt_smoke.sh) use this to run the *same* program on
// every ISA without maintaining per-ISA assembly sources.
#include <cstdio>
#include <string>

#include "driver/session.h"
#include "workloads/defects.h"
#include "workloads/programs.h"

namespace {

/// `forks` symbolic branches, then a concrete 255-round loop folding the
/// round counter into a symbolic accumulator. Every path mints ~800 fresh
/// terms, so the term pools outgrow the smallest --mem-budget-mb (1 MiB)
/// after a few dozen paths and the memory governor evicts.
adlsym::workloads::PProgram progAccum(unsigned forks) {
  adlsym::workloads::PProgram p;
  p.in(0);
  p.li(2, 0);
  for (unsigned i = 0; i < forks; ++i) {
    const std::string skip = "skip" + std::to_string(i);
    p.in(1);
    p.beq(1, 2, skip);
    p.add(0, 0, 1);
    p.label(skip);
  }
  p.li(3, 0);
  p.li(4, 255);
  p.label("loop");
  p.bgeu(3, 4, "done");
  p.shli(1, 0, 1);
  p.xorr(0, 0, 1);
  p.add(0, 0, 3);
  p.li(1, 1);
  p.add(3, 3, 1);
  p.jmp("loop");
  p.label("done");
  p.out(0);
  p.halt(0);
  return p;
}

adlsym::workloads::PProgram byName(const std::string& name) {
  using namespace adlsym::workloads;
  if (name == "bitcount3") return progBitcount(3);
  if (name == "earlyexit4") return progEarlyExit(4);
  if (name == "max3") return progMax(3);
  if (name == "checksum2") return progChecksum(2);
  if (name == "parse2") return progParse(2);
  if (name == "accum5") return progAccum(5);
  for (DefectCase& c : defectSuite()) {
    if (c.name == name) return std::move(c.program);
  }
  throw adlsym::InputError("unknown workload '" + name +
                           "' (want bitcount3|earlyexit4|max3|checksum2|"
                           "parse2|bitcount10|sort4 or a defect-suite case)");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: workload_img <workload> <isa>\n");
    return 2;
  }
  try {
    const auto s =
        adlsym::driver::Session::forPortable(byName(argv[1]), argv[2]);
    std::fputs(s->image().serialize().c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}
