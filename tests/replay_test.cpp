// Witness soundness: every test case the symbolic engine generates,
// replayed concretely, must reproduce exactly the predicted path behavior
// (outputs, exit code, defect). This is the end-to-end soundness property
// of the whole pipeline.
#include <gtest/gtest.h>

#include "core/testgen.h"
#include "driver/session.h"
#include "isa/registry.h"
#include "workloads/defects.h"
#include "workloads/programs.h"

namespace adlsym {
namespace {

using core::PathResult;
using core::PathStatus;
using driver::Session;

void expectAllWitnessesSound(const workloads::PProgram& prog,
                             const std::string& isa) {
  auto s = Session::forPortable(prog, isa);
  const auto summary = s->explore();
  EXPECT_FALSE(summary.paths.empty());
  unsigned replayed = 0;
  for (const PathResult& p : summary.paths) {
    if (p.status == PathStatus::Exited) {
      const auto r = s->replay(p.test);
      ASSERT_EQ(r.status, PathStatus::Exited) << core::formatPath(p);
      EXPECT_EQ(r.exitCode, *p.exitCode);
      EXPECT_EQ(r.outputs, p.outputs);
      EXPECT_EQ(r.steps, p.steps) << "step-exact prediction";
      ++replayed;
    } else if (p.status == PathStatus::Defect) {
      const auto r = s->replay(p.defect->witness);
      ASSERT_EQ(r.status, PathStatus::Defect) << core::formatPath(p);
      ASSERT_TRUE(r.defect.has_value());
      EXPECT_EQ(r.defect->kind, p.defect->kind);
      EXPECT_EQ(r.defect->pc, p.defect->pc);
      ++replayed;
    }
  }
  EXPECT_GT(replayed, 0u);
}

class ReplaySoundness
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ReplaySoundness, WitnessesReproducePrediction) {
  const auto& [isa, which] = GetParam();
  switch (which) {
    case 0: expectAllWitnessesSound(workloads::progSum(3), isa); break;
    case 1: expectAllWitnessesSound(workloads::progMax(3), isa); break;
    case 2: expectAllWitnessesSound(workloads::progEarlyExit(3), isa); break;
    case 3: expectAllWitnessesSound(workloads::progBitcount(4), isa); break;
    case 4: expectAllWitnessesSound(workloads::progFind({5, 5, 1}), isa); break;
    case 5: expectAllWitnessesSound(workloads::progChecksum(2), isa); break;
    case 6: expectAllWitnessesSound(workloads::progSort(3), isa); break;
    case 7: expectAllWitnessesSound(workloads::progParse(2), isa); break;
  }
}

std::vector<std::tuple<std::string, int>> replayParams() {
  std::vector<std::tuple<std::string, int>> out;
  for (const std::string& isa : isa::allIsaNames()) {
    for (int w = 0; w <= 7; ++w) out.emplace_back(isa, w);
  }
  return out;
}

std::string replayParamName(
    const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
  static const char* const kNames[] = {"sum",  "max",      "earlyexit",
                                       "bitcount", "find", "checksum",
                                       "sort", "parse"};
  return std::get<0>(info.param) + "_" +
         kNames[static_cast<size_t>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(Corpus, ReplaySoundness,
                         ::testing::ValuesIn(replayParams()),
                         replayParamName);

TEST(ReplaySoundness, DefectSuiteAllIsas) {
  for (const std::string& isa : isa::allIsaNames()) {
    for (const auto& dc : workloads::defectSuite()) {
      SCOPED_TRACE(dc.name + " on " + isa);
      expectAllWitnessesSound(dc.program, isa);
    }
  }
}

TEST(ReplaySoundness, HandwrittenWithIndirectJump) {
  Session s("rv32e", R"(
    in8 x1
    andi x1, x1, 4
    addi x2, x0, t0
    add x2, x2, x1
    jalr x0, x2, 0
  t0:
    halti 10
  t4:
    halti 11
  )");
  const auto summary = s.explore();
  ASSERT_EQ(summary.paths.size(), 2u);
  for (const auto& p : summary.paths) {
    const auto r = s.replay(p.test);
    EXPECT_EQ(r.exitCode, *p.exitCode);
  }
}

}  // namespace
}  // namespace adlsym
