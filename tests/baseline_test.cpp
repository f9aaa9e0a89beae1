// Differential testing: the hand-written rv32e baseline engine must agree
// with the ADL-driven engine on the complete observable behavior of every
// workload (path multisets of status/exit/outputs, defect kinds, step
// counts). This is what makes the E2 overhead comparison meaningful.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/testgen.h"
#include "driver/session.h"
#include "workloads/defects.h"
#include "workloads/programs.h"

namespace adlsym::baseline {
namespace {

using core::ExploreSummary;
using core::PathResult;
using driver::Session;
using driver::SessionOptions;

/// Canonical fingerprint of a path set, independent of completion order
/// and of solver model choices (witness values and outputs are
/// model-dependent and may legitimately differ between engines; their
/// consistency is checked separately by replaying).
std::vector<std::string> fingerprint(const ExploreSummary& s) {
  std::vector<std::string> lines;
  for (const PathResult& p : s.paths) {
    std::string line = core::pathStatusName(p.status);
    line += " steps=" + std::to_string(p.steps);
    if (p.exitCode) line += " exit=" + std::to_string(*p.exitCode);
    if (p.defect) {
      line += std::string(" defect=") + core::defectKindName(p.defect->kind);
      line += " dpc=" + std::to_string(p.defect->pc);
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Every witness of `summary`, replayed concretely, must reproduce the
/// predicted behavior of its path.
void expectReplayConsistent(Session& session, const ExploreSummary& summary) {
  for (const PathResult& p : summary.paths) {
    if (p.status == core::PathStatus::Exited) {
      const auto r = session.replay(p.test);
      EXPECT_EQ(r.status, core::PathStatus::Exited);
      EXPECT_EQ(r.exitCode, *p.exitCode);
      EXPECT_EQ(r.outputs, p.outputs);
    } else if (p.status == core::PathStatus::Defect) {
      const auto r = session.replay(p.defect->witness);
      ASSERT_EQ(r.status, core::PathStatus::Defect);
      ASSERT_TRUE(r.defect.has_value());
      EXPECT_EQ(r.defect->kind, p.defect->kind);
    }
  }
}

void expectEngineAgreement(const workloads::PProgram& prog) {
  SessionOptions adl;
  SessionOptions base;
  base.useBaselineEngine = true;
  auto sa = Session::forPortable(prog, "rv32e", adl);
  auto sb = Session::forPortable(prog, "rv32e", base);
  const auto ra = sa->explore();
  const auto rb = sb->explore();
  EXPECT_EQ(fingerprint(ra), fingerprint(rb));
  expectReplayConsistent(*sa, ra);
  expectReplayConsistent(*sb, rb);
}

TEST(BaselineDifferential, StraightLine) { expectEngineAgreement(workloads::progSum(4)); }
TEST(BaselineDifferential, Branching) { expectEngineAgreement(workloads::progMax(4)); }
TEST(BaselineDifferential, Loops) { expectEngineAgreement(workloads::progFib(10)); }
TEST(BaselineDifferential, EarlyExit) { expectEngineAgreement(workloads::progEarlyExit(4)); }
TEST(BaselineDifferential, Bitcount) { expectEngineAgreement(workloads::progBitcount(5)); }
TEST(BaselineDifferential, ArraysAndSort) { expectEngineAgreement(workloads::progSort(3)); }
TEST(BaselineDifferential, TableSearch) {
  expectEngineAgreement(workloads::progFind({3, 1, 4, 1, 5}));
}
TEST(BaselineDifferential, Checksum) { expectEngineAgreement(workloads::progChecksum(4)); }

TEST(BaselineDifferential, WholeDefectSuite) {
  for (const auto& dc : workloads::defectSuite()) {
    SCOPED_TRACE(dc.name);
    expectEngineAgreement(dc.program);
  }
}

TEST(Baseline, RejectsOtherIsas) {
  SessionOptions opt;
  opt.useBaselineEngine = true;
  EXPECT_THROW(Session("m16", "halt r0\n", opt), Error);
}

TEST(Baseline, HandlesHandwrittenCorners) {
  // jalr, lui, shifts, signed ops — the instructions most likely to
  // diverge between a hand-coded and a generated engine.
  const char* src = R"(
    in8 x1
    lui x2, 0xfffff
    sra x3, x2, x1
    srl x4, x2, x1
    slt x5, x3, x4
    sltu x6, x3, x4
    out x5
    out x6
    jal x7, skip
    halti 9
  skip:
    div x8, x2, x1
    rem x9, x2, x1
    out x8
    halti 0
  )";
  SessionOptions adl;
  SessionOptions base;
  base.useBaselineEngine = true;
  Session sa("rv32e", src, adl);
  Session sb("rv32e", src, base);
  EXPECT_EQ(fingerprint(sa.explore()), fingerprint(sb.explore()));
}

}  // namespace
}  // namespace adlsym::baseline
