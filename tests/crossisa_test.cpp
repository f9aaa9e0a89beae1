// E6 invariance as a test: the same portable workload explored on all
// three ISAs must produce identical path structure (counts, exit-code
// multisets, defect-kind multisets), and every witness must cross-replay
// on every other ISA with identical observable behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/testgen.h"
#include "driver/session.h"
#include "isa/registry.h"
#include "workloads/defects.h"
#include "workloads/programs.h"

namespace adlsym {
namespace {

using core::ExploreSummary;
using core::PathResult;
using core::PathStatus;
using driver::Session;

struct IsaRun {
  std::unique_ptr<Session> session;
  ExploreSummary summary;
};

std::map<std::string, IsaRun> runEverywhere(const workloads::PProgram& p) {
  std::map<std::string, IsaRun> out;
  for (const std::string& isa : isa::allIsaNames()) {
    IsaRun run;
    run.session = Session::forPortable(p, isa);
    run.summary = run.session->explore();
    out.emplace(isa, std::move(run));
  }
  return out;
}

std::vector<std::string> structure(const ExploreSummary& s) {
  std::vector<std::string> lines;
  for (const PathResult& p : s.paths) {
    std::string l = core::pathStatusName(p.status);
    if (p.exitCode) l += " exit=" + std::to_string(*p.exitCode);
    if (p.defect) l += std::string(" ") + core::defectKindName(p.defect->kind);
    l += " outs=" + std::to_string(p.outputs.size());
    lines.push_back(std::move(l));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

void expectInvariant(const workloads::PProgram& p) {
  auto runs = runEverywhere(p);
  const auto& ref = runs.at("rv32e");
  for (const auto& [isa, run] : runs) {
    EXPECT_EQ(structure(run.summary), structure(ref.summary))
        << "path structure differs on " << isa;
  }
  // Cross-replay: each ISA's witnesses on every other ISA.
  for (const auto& [fromIsa, fromRun] : runs) {
    for (const PathResult& path : fromRun.summary.paths) {
      for (const auto& [toIsa, toRun] : runs) {
        if (path.status == PathStatus::Exited) {
          const auto r = toRun.session->replay(path.test);
          ASSERT_EQ(r.status, PathStatus::Exited)
              << fromIsa << " witness diverged on " << toIsa;
          EXPECT_EQ(r.exitCode, *path.exitCode) << fromIsa << "->" << toIsa;
          EXPECT_EQ(r.outputs, path.outputs) << fromIsa << "->" << toIsa;
        } else if (path.status == PathStatus::Defect) {
          const auto r = toRun.session->replay(path.defect->witness);
          ASSERT_EQ(r.status, PathStatus::Defect)
              << fromIsa << " defect witness diverged on " << toIsa;
          ASSERT_TRUE(r.defect.has_value()) << fromIsa << "->" << toIsa;
          EXPECT_EQ(r.defect->kind, path.defect->kind)
              << fromIsa << "->" << toIsa;
        }
      }
    }
  }
}

TEST(CrossIsa, Sum) { expectInvariant(workloads::progSum(3)); }
TEST(CrossIsa, Max) { expectInvariant(workloads::progMax(3)); }
TEST(CrossIsa, EarlyExit) { expectInvariant(workloads::progEarlyExit(3)); }
TEST(CrossIsa, Bitcount) { expectInvariant(workloads::progBitcount(4)); }
TEST(CrossIsa, Fib) { expectInvariant(workloads::progFib(9)); }
TEST(CrossIsa, Find) { expectInvariant(workloads::progFind({8, 1, 8})); }
TEST(CrossIsa, Checksum) { expectInvariant(workloads::progChecksum(3)); }
TEST(CrossIsa, Sort) { expectInvariant(workloads::progSort(3)); }
TEST(CrossIsa, Parse) { expectInvariant(workloads::progParse(2)); }

TEST(CrossIsa, DefectSuiteInvariant) {
  for (const auto& dc : workloads::defectSuite()) {
    SCOPED_TRACE(dc.name);
    expectInvariant(dc.program);
  }
}

}  // namespace
}  // namespace adlsym
