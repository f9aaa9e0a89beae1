// Workload corpus and defect-suite behavior on the symbolic engine.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/testgen.h"
#include "driver/session.h"
#include "isa/registry.h"
#include "workloads/defects.h"
#include "workloads/programs.h"

namespace adlsym::workloads {
namespace {

using core::DefectKind;
using core::PathStatus;
using driver::Session;

TEST(Workloads, SumIsSinglePathAndCorrect) {
  auto s = Session::forPortable(progSum(3), "rv32e");
  const auto r = s->explore();
  ASSERT_EQ(r.paths.size(), 1u);
  const auto& p = r.paths[0];
  uint64_t expect = 0;
  for (const auto& in : p.test.inputs) expect = (expect + in.value) & 0xff;
  EXPECT_EQ(p.outputs.at(0), expect);
}

TEST(Workloads, MaxOutputsAreMaxOfWitness) {
  auto s = Session::forPortable(progMax(4), "rv32e");
  const auto r = s->explore();
  EXPECT_GE(r.paths.size(), 4u);
  for (const auto& p : r.paths) {
    ASSERT_EQ(p.status, PathStatus::Exited);
    uint64_t mx = 0;
    for (const auto& in : p.test.inputs) mx = std::max(mx, in.value);
    EXPECT_EQ(p.outputs.at(0), mx);
  }
}

TEST(Workloads, FindLocatesEveryOccurrence) {
  // Distinct table entries: every position is a reachable first match.
  auto s = Session::forPortable(progFind({9, 4, 7, 2}), "rv32e");
  const auto r = s->explore();
  // 4 hit paths (one per position) + 1 miss path.
  ASSERT_EQ(r.paths.size(), 5u);
  std::vector<uint64_t> hitIdx;
  unsigned misses = 0;
  for (const auto& p : r.paths) {
    if (*p.exitCode == 1) {
      hitIdx.push_back(p.outputs.at(0));
      // Witness needle must equal the table entry at that index.
      const uint8_t table[] = {9, 4, 7, 2};
      EXPECT_EQ(p.test.inputs[0].value, table[p.outputs.at(0)]);
    } else {
      ++misses;
      EXPECT_EQ(p.outputs.at(0), 255u);
    }
  }
  std::sort(hitIdx.begin(), hitIdx.end());
  EXPECT_EQ(hitIdx, (std::vector<uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(misses, 1u);
}

TEST(Workloads, ChecksumHasExactlyTwoOutcomes) {
  auto s = Session::forPortable(progChecksum(3), "rv32e");
  const auto r = s->explore();
  ASSERT_EQ(r.paths.size(), 2u);
  std::vector<uint64_t> exits;
  for (const auto& p : r.paths) exits.push_back(*p.exitCode);
  std::sort(exits.begin(), exits.end());
  EXPECT_EQ(exits, (std::vector<uint64_t>{0, 1}));
  // The matching path's witness really checksums.
  for (const auto& p : r.paths) {
    if (*p.exitCode != 0) continue;
    uint64_t x = 0;
    for (size_t i = 0; i + 1 < p.test.inputs.size(); ++i)
      x ^= p.test.inputs[i].value;
    EXPECT_EQ(x, p.test.inputs.back().value);
  }
}

TEST(Workloads, SortAssertsNeverFire) {
  auto s = Session::forPortable(progSort(3), "rv32e");
  const auto r = s->explore();
  EXPECT_GE(r.paths.size(), 4u);
  for (const auto& p : r.paths) {
    ASSERT_EQ(p.status, PathStatus::Exited) << core::formatPath(p);
    // Outputs are sorted.
    EXPECT_TRUE(std::is_sorted(p.outputs.begin(), p.outputs.end()));
  }
}

TEST(Workloads, ParseEnumeratesRecordShapes) {
  // Per record: type 1, type 2, or reject. With 2 records the accept
  // paths are 2^2 = 4 plus rejects at each level (3 + ... per record).
  auto s = Session::forPortable(progParse(2), "rv32e");
  const auto r = s->explore();
  unsigned accepts = 0;
  unsigned rejects = 0;
  for (const auto& p : r.paths) {
    ASSERT_EQ(p.status, PathStatus::Exited);
    if (*p.exitCode == 0) {
      ++accepts;
      // Verify the parsed sum from the witness input stream.
      uint64_t sum = 0;
      size_t pos = 0;
      const auto& ins = p.test.inputs;
      for (int rec = 0; rec < 2; ++rec) {
        const uint64_t tag = ins.at(pos++).value;
        if (tag == 1) {
          sum = (sum + ins.at(pos++).value) & 0xff;
        } else {
          ASSERT_EQ(tag, 2u);
          const uint64_t a = ins.at(pos++).value;
          const uint64_t b = ins.at(pos++).value;
          sum = (sum + ((a + b) & 0xff)) & 0xff;
        }
      }
      EXPECT_EQ(p.outputs.back(), sum) << core::formatPath(p);
    } else {
      ++rejects;
      // The reported tag is neither 1 nor 2.
      EXPECT_NE(p.outputs.at(0), 1u);
      EXPECT_NE(p.outputs.at(0), 2u);
    }
  }
  EXPECT_EQ(accepts, 4u);
  EXPECT_EQ(rejects, 3u);  // reject at record 0, or after either type
}

TEST(Workloads, FibIsConcreteSinglePath) {
  auto s = Session::forPortable(progFib(12), "rv32e");
  const auto r = s->explore();
  ASSERT_EQ(r.paths.size(), 1u);
  EXPECT_EQ(r.paths[0].outputs.at(0), 144u);  // fib(12)
}

class DefectSuiteOnIsa
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

TEST_P(DefectSuiteOnIsa, ExpectedOutcome) {
  const auto& [isaName, caseIdx] = GetParam();
  const auto suite = defectSuite();
  ASSERT_LT(caseIdx, suite.size());
  const DefectCase& dc = suite[caseIdx];
  SCOPED_TRACE(dc.name + " on " + isaName);
  auto s = Session::forPortable(dc.program, isaName);
  const auto r = s->explore();
  std::vector<DefectKind> reported;
  for (const auto& p : r.paths) {
    if (p.defect) reported.push_back(p.defect->kind);
  }
  if (dc.expected) {
    ASSERT_EQ(reported.size(), 1u) << "expected exactly one defect";
    EXPECT_EQ(reported[0], *dc.expected);
  } else {
    EXPECT_TRUE(reported.empty()) << "false alarm on guarded twin";
  }
}

std::vector<std::tuple<std::string, size_t>> allDefectParams() {
  std::vector<std::tuple<std::string, size_t>> out;
  const size_t n = defectSuite().size();
  for (const std::string& isa : isa::allIsaNames()) {
    for (size_t i = 0; i < n; ++i) out.emplace_back(isa, i);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    All, DefectSuiteOnIsa, ::testing::ValuesIn(allDefectParams()),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_" +
                         defectSuite()[std::get<1>(info.param)].name;
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Workloads, DefectWitnessesReplayToTheDefect) {
  for (const auto& dc : defectSuite()) {
    if (!dc.expected) continue;
    SCOPED_TRACE(dc.name);
    auto s = Session::forPortable(dc.program, "rv32e");
    const auto r = s->explore();
    for (const auto& p : r.paths) {
      if (!p.defect) continue;
      const auto replayed = s->replay(p.defect->witness);
      EXPECT_EQ(replayed.status, PathStatus::Defect);
      ASSERT_TRUE(replayed.defect.has_value());
      EXPECT_EQ(replayed.defect->kind, p.defect->kind);
    }
  }
}

}  // namespace
}  // namespace adlsym::workloads
