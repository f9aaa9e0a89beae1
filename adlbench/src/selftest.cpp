// Self-tests of the benchmark's own machinery: the generators are
// deterministic per seed, the reference interpreter agrees with the
// explorer on the fixed workloads::prog* programs on every ISA, and the
// output check catches a corrupted witness. Exit 0 when all pass.
#include <cstdio>
#include <string>
#include <vector>

#include "check.h"
#include "isa/registry.h"
#include "pipeline.h"
#include "refinterp.h"
#include "workloads.h"
#include "workloads/programs.h"

namespace {

using namespace adlbench;
namespace cli = adlsym::driver::cli;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<std::string> images(const GenProgram& g) {
  std::vector<std::string> out;
  for (const std::string& isa : adlsym::isa::allIsaNames()) {
    out.push_back(assembleImageText(isa, adlsym::workloads::emitAssembly(g.ir, isa)));
  }
  return out;
}

void generatorIsDeterministic() {
  for (const std::string& w : workloadNames()) {
    const Workload* wl = findWorkload(w);
    for (const uint64_t seed : {1ull, 7ull, 123456789ull}) {
      const auto a = wl->programs(seed);
      const auto b = wl->programs(seed);
      bool same = a.size() == b.size();
      for (size_t i = 0; same && i < a.size(); ++i) same = images(a[i]) == images(b[i]);
      expect(same, w + " seed " + std::to_string(seed) + ": identical images per ISA");
    }
    const auto a = wl->programs(1);
    const auto b = wl->programs(2);
    bool differ = false;
    for (size_t i = 0; i < a.size(); ++i) differ |= images(a[i]) != images(b[i]);
    expect(differ, w + ": seeds 1 and 2 give different programs");
  }
}

cli::CommandResult explore(const std::string& isa, const GenProgram& g) {
  cli::ExploreOptions opt = cliOptions(RunConfig{});
  return cli::cmdExplore(
      isa, assembleImageText(isa, adlsym::workloads::emitAssembly(g.ir, isa)), opt);
}

void referenceAgreesOnFixedPrograms() {
  using namespace adlsym::workloads;
  struct Fixed {
    std::string name;
    PProgram ir;
    std::optional<uint64_t> paths;
  };
  const std::vector<Fixed> fixed = {
      {"progSum(4)", progSum(4), 1},
      {"progMax(4)", progMax(4), std::nullopt},
      {"progEarlyExit(5)", progEarlyExit(5), 6},
      {"progBitcount(6)", progBitcount(6), 64},
      {"progFib(30)", progFib(30), 1},
      {"progSort(4)", progSort(4), std::nullopt},
      {"progFind", progFind({3, 9, 27, 81}), 5},
      {"progChecksum(3)", progChecksum(3), 2},
      {"progParse(3)", progParse(3), 15},
  };
  for (const Fixed& f : fixed) {
    GenProgram g;
    g.family = "fixed";
    g.name = f.name;
    g.ir = f.ir;
    g.closedFormPaths = f.paths;
    for (const std::string& isa : adlsym::isa::allIsaNames()) {
      const cli::CommandResult r = explore(isa, g);
      std::string err;
      const auto t = parseExploreOutput(r.output, err);
      const auto bad = t ? checkExplore(g, r.exitCode, *t) : std::vector<std::string>{err};
      expect(bad.empty(), f.name + " on " + isa + ": every witness replays on the reference" +
                              (bad.empty() ? "" : " (" + bad.front() + ")"));
    }
  }
  // A value the reference computes without any explorer: fib(30) mod 256.
  const RefResult fib = refRun(progFib(30), {});
  expect(fib.end == RefResult::End::Halt && fib.outputs == std::vector<uint64_t>{832040 % 256},
         "reference computes fib(30) mod 256");
}

void corruptedWitnessIsCaught() {
  const GenProgram g = genBitcount(streamSeed(5, "bitcount", 0), 8);
  const cli::CommandResult r = explore("rv32e", g);
  std::string err;
  const auto clean = parseExploreOutput(r.output, err);
  expect(clean && checkExplore(g, r.exitCode, *clean).empty(), "clean bitcount table passes");
  if (!clean) return;
  // Flip one bit of the first witness: the weighted count it prints no
  // longer matches, since every bit position carries a nonzero weight.
  const std::string& row = clean->rows.front().line;
  const size_t at = r.output.find(row);
  const size_t eq = r.output.find("=0x", r.output.find("in0_w8", at));
  std::string text = r.output;
  const size_t end = text.find_first_of(" \n", eq + 3);
  const uint64_t v = std::stoull(text.substr(eq + 3, end - eq - 3), nullptr, 16);
  char hex[8];
  std::snprintf(hex, sizeof hex, "%llx", static_cast<unsigned long long>(v ^ 0x01));
  text.replace(eq + 3, end - eq - 3, hex);
  const auto bad = parseExploreOutput(text, err);
  expect(bad && !checkExplore(g, r.exitCode, *bad).empty(), "corrupted witness is caught");

  // A defect row whose kind was swapped must be caught too.
  const GenProgram div = [] {
    GenProgram d;
    d.family = "fixed";
    d.ir.in(0);
    d.ir.li(1, 100);
    d.ir.divu(2, 1, 0);
    d.ir.out(2);
    d.ir.halt(0);
    d.planted = adlsym::core::DefectKind::DivByZero;
    return d;
  }();
  const cli::CommandResult dr = explore("m16", div);
  const auto dt = parseExploreOutput(dr.output, err);
  expect(dt && checkExplore(div, dr.exitCode, *dt).empty(), "planted division by zero is reported");
  std::string swapped = dr.output;
  const size_t k = swapped.find("defect=division-by-zero");
  if (k != std::string::npos) swapped.replace(k, 23, "defect=trap");
  const auto st = parseExploreOutput(swapped, err);
  expect(k != std::string::npos && st && !checkExplore(div, dr.exitCode, *st).empty(),
         "defect row with the wrong kind is caught");
}

}  // namespace

int main() {
  generatorIsDeterministic();
  referenceAgreesOnFixedPrograms();
  corruptedWitnessIsCaught();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
