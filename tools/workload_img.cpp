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

namespace wl = adlsym::workloads;

/// The named portable workloads: the one list both the lookup and the
/// error message read.
struct Named {
  const char* name;
  wl::PProgram (*make)();
};
const Named kWorkloads[] = {
    {"bitcount3", [] { return wl::progBitcount(3); }},
    {"earlyexit4", [] { return wl::progEarlyExit(4); }},
    {"max3", [] { return wl::progMax(3); }},
    {"checksum2", [] { return wl::progChecksum(2); }},
    {"parse2", [] { return wl::progParse(2); }},
    {"accum5", [] { return wl::progAccum(5); }},
};

wl::PProgram byName(const std::string& name) {
  std::string names;
  for (const Named& w : kWorkloads) {
    if (name == w.name) return w.make();
    names += names.empty() ? "" : "|";
    names += w.name;
  }
  for (wl::DefectCase& c : wl::defectSuite()) {
    if (c.name == name) return std::move(c.program);
  }
  throw adlsym::InputError("unknown workload '" + name + "' (want " + names +
                           " or a defect-suite case)");
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
