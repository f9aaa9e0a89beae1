#include <gtest/gtest.h>

#include "core/testgen.h"
#include "driver/session.h"
#include "workloads/programs.h"

namespace adlsym::driver {
namespace {

TEST(Session, ThrowsOnBadInputs) {
  EXPECT_THROW(Session("z80", "halt x1\n"), Error);
  EXPECT_THROW(Session("rv32e", "frob x1\n"), Error);
  // Assembly diagnostics are carried in the exception message.
  try {
    Session s("rv32e", "frob x1\n");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown mnemonic"),
              std::string::npos);
  }
}

TEST(Session, AccessorsWork) {
  Session s("m16", "movi r1, 1\nhalt r1\n");
  EXPECT_EQ(s.model().name, "m16");
  EXPECT_FALSE(s.image().sections().empty());
  // The bytecode engine is the default; --engine=interp selects the
  // tree-walking reference evaluator (docs/bytecode.md).
  EXPECT_EQ(s.executor().name(), "rtlc:m16");
  EXPECT_TRUE(s.options().rewriting);

  SessionOptions interp;
  interp.engineKind = core::AdlEngineKind::Interp;
  Session si("m16", "movi r1, 1\nhalt r1\n", interp);
  EXPECT_EQ(si.executor().name(), "adl:m16");
}

TEST(Session, WallClockBudgetStopsExploration) {
  SessionOptions opt;
  opt.explorer.maxWallSeconds = 0.02;
  opt.explorer.maxTotalSteps = 1000000000;
  opt.explorer.maxStepsPerPath = 1000000000;
  // Unbounded symbolic loop: only the wall budget can stop it.
  Session s("rv32e", R"(
  loop:
    in8 x1
    beq x1, x0, loop
    jal x0, loop
  )", opt);
  const auto t0 = std::chrono::steady_clock::now();
  const auto summary = s.explore();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(secs, 5.0);  // stopped well before any step budget
  EXPECT_GT(summary.totalSteps, 0u);
}

TEST(Session, ReplayRecordsNoTelemetry) {
  telemetry::Telemetry tel;
  SessionOptions opt;
  opt.telemetry = &tel;
  Session s("rv32e", "in8 x1\nout x1\nhalti 0\n", opt);
  const auto summary = s.explore();
  ASSERT_EQ(summary.paths.size(), 1u);
  const std::string before = tel.metrics().toJson();
  const auto r = s.replay(summary.paths[0].test);
  EXPECT_EQ(r.status, core::PathStatus::Exited);
  // Replay does not add to the session's explore and solver metrics.
  EXPECT_EQ(tel.metrics().toJson(), before);
}

TEST(Session, CoverageReportMarksExecutedInsns) {
  Session s("rv32e", R"(
    in8 x5
    beq x5, x0, a
    halti 1
  a:
    halti 2
  )");
  const auto summary = s.explore();
  const std::string report =
      core::formatCoverage(s.model(), s.image(), "text", summary);
  // Everything is reachable here: 100% coverage.
  EXPECT_NE(report.find("covered 4/4 (100%)"), std::string::npos) << report;

  Session dead("rv32e", R"(
    halti 0
    halti 9   ; unreachable
  )");
  const auto deadSummary = dead.explore();
  const std::string deadReport =
      core::formatCoverage(dead.model(), dead.image(), "text", deadSummary);
  EXPECT_NE(deadReport.find("covered 1/2 (50%)"), std::string::npos)
      << deadReport;
  // The unreachable line is unmarked.
  EXPECT_NE(deadReport.find("   00000004:  halti 9"), std::string::npos);
  EXPECT_NE(deadReport.find(" * 00000000:  halti 0"), std::string::npos);
}

TEST(Session, SolverBudgetProducesUnknowns) {
  SessionOptions opt;
  opt.solverConflictBudget = 1;  // give up almost immediately
  auto s = Session::forPortable(workloads::progChecksum(24), "rv32e", opt);
  const auto summary = s->explore();
  // With a crippled solver the engine still terminates; it may drop paths
  // (treated as infeasible) and records Unknown results in the stats.
  (void)summary;
  EXPECT_GE(s->solver().stats().queries, 1u);
}

TEST(Session, ForPortableMatchesManualAssembly) {
  auto a = Session::forPortable(workloads::progSum(2), "rv32e");
  Session b("rv32e", workloads::emitAssembly(workloads::progSum(2), "rv32e"));
  const auto ra = a->explore();
  const auto rb = b.explore();
  ASSERT_EQ(ra.paths.size(), rb.paths.size());
  EXPECT_EQ(ra.totalSteps, rb.totalSteps);
}

}  // namespace
}  // namespace adlsym::driver
