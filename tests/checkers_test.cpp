// Defect-checker behavior: reachability analysis, witnesses, continuation
// constraints, and the guarded (no-false-alarm) twins.
#include <gtest/gtest.h>

#include "core/testgen.h"
#include "driver/session.h"

namespace adlsym::core {
namespace {

using driver::Session;

ExploreSummary explore(const std::string& isa, const std::string& src,
                       driver::SessionOptions opt = {}) {
  Session s(isa, src, opt);
  return s.explore();
}

unsigned countDefects(const ExploreSummary& s, DefectKind k) {
  unsigned n = 0;
  for (const auto& p : s.paths) {
    if (p.defect && p.defect->kind == k) ++n;
  }
  return n;
}

TEST(Checkers, DivByZeroReachable) {
  const auto s = explore("rv32e", R"(
    in8 x1
    addi x2, x0, 100
    divu x3, x2, x1
    out x3
    halti 0
  )");
  // One defect path (x1 == 0) and one surviving path (x1 != 0).
  ASSERT_EQ(s.paths.size(), 2u);
  EXPECT_EQ(countDefects(s, DefectKind::DivByZero), 1u);
  for (const auto& p : s.paths) {
    if (p.defect) {
      EXPECT_EQ(p.defect->witness.inputs[0].value, 0u);
      EXPECT_EQ(p.defect->mnemonic, "divu");
    } else {
      EXPECT_NE(p.test.inputs[0].value, 0u);
    }
  }
}

TEST(Checkers, DivByZeroDefinite) {
  const auto s = explore("rv32e", R"(
    addi x2, x0, 100
    divu x3, x2, x0    ; divisor is literally zero
    halti 0
  )");
  ASSERT_EQ(s.paths.size(), 1u);
  EXPECT_EQ(countDefects(s, DefectKind::DivByZero), 1u);
}

TEST(Checkers, DivByZeroProvablyNonzeroIsSilent) {
  const auto s = explore("rv32e", R"(
    in8 x1
    ori x1, x1, 1      ; odd -> nonzero
    addi x2, x0, 100
    divu x3, x2, x1
    halti 0
  )");
  EXPECT_EQ(countDefects(s, DefectKind::DivByZero), 0u);
}

TEST(Checkers, SignedDivisionAlsoGuarded) {
  const auto s = explore("rv32e", R"(
    in8 x1
    addi x2, x0, 100
    div x3, x2, x1
    halti 0
  )");
  EXPECT_EQ(countDefects(s, DefectKind::DivByZero), 1u);
  const auto s2 = explore("rv32e", R"(
    in8 x1
    addi x2, x0, 100
    rem x3, x2, x1
    halti 0
  )");
  EXPECT_EQ(countDefects(s2, DefectKind::DivByZero), 1u);
}

TEST(Checkers, OobReadConcreteAddress) {
  const auto s = explore("rv32e", R"(
    addi x1, x0, 0x700   ; unmapped
    lw x2, 0(x1)
    halti 0
  )");
  ASSERT_EQ(s.paths.size(), 1u);
  EXPECT_EQ(countDefects(s, DefectKind::OobRead), 1u);
}

TEST(Checkers, OobReadStraddlesSectionEnd) {
  // 4-byte load at data+6 in an 8-byte section crosses the boundary.
  const auto s = explore("rv32e", R"(
    .section text 0x0
    .entry _start
  _start:
    addi x1, x0, buf
    lw x2, 6(x1)
    halti 0
    .section data 0x400 rw
  buf: .space 8
  )");
  EXPECT_EQ(countDefects(s, DefectKind::OobRead), 1u);
}

TEST(Checkers, OobWriteRequiresWritableSection) {
  // Writing into the code section (read-only) is an OobWrite even though
  // the address is mapped.
  const auto s = explore("rv32e", R"(
    addi x1, x0, 0
    sw x1, 0(x1)        ; store to address 0 = text section
    halti 0
  )");
  EXPECT_EQ(countDefects(s, DefectKind::OobWrite), 1u);
}

TEST(Checkers, SymbolicOobSplitsDefectAndSurvivor) {
  const auto s = explore("rv32e", R"(
    .section text 0x0
    .entry _start
  _start:
    in8 x1
    addi x2, x0, buf
    add x2, x2, x1
    lbu x3, 0(x2)       ; buf[in0]: OOB when in0 >= 8
    out x3
    halti 0
    .section data 0x400 rw
  buf: .byte 9, 8, 7, 6, 5, 4, 3, 2
  )");
  ASSERT_EQ(s.paths.size(), 2u);
  EXPECT_EQ(countDefects(s, DefectKind::OobRead), 1u);
  for (const auto& p : s.paths) {
    if (p.defect) {
      EXPECT_GE(p.defect->witness.inputs[0].value, 8u);
    } else {
      // Survivor path: constrained in-bounds; output = buf[in0] = 9 - in0.
      ASSERT_EQ(p.status, PathStatus::Exited);
      const uint64_t idx = p.test.inputs[0].value;
      EXPECT_LT(idx, 8u);
      EXPECT_EQ(p.outputs[0], 9 - idx);
    }
  }
}

TEST(Checkers, SymbolicWriteUpdatesCorrectCell) {
  // buf[in0 & 3] = 42 then read back all 4 cells and sum: the sum must be
  // 42 + 3 regardless of which cell was hit (cells start at 1).
  const auto s = explore("rv32e", R"(
    .section text 0x0
    .entry _start
  _start:
    in8 x1
    andi x1, x1, 3
    addi x2, x0, buf
    add x2, x2, x1
    addi x3, x0, 42
    sb x3, 0(x2)
    addi x4, x0, buf
    lbu x5, 0(x4)
    lbu x6, 1(x4)
    add x5, x5, x6
    lbu x6, 2(x4)
    add x5, x5, x6
    lbu x6, 3(x4)
    add x5, x5, x6
    addi x6, x0, 45
    asrt x5, x6
    halti 0
    .section data 0x400 rw
  buf: .byte 1, 1, 1, 1
  )");
  ASSERT_EQ(s.paths.size(), 1u);
  EXPECT_EQ(s.paths[0].status, PathStatus::Exited) << formatSummary(s);
}

TEST(Checkers, AssertFailWitnessFound) {
  const auto s = explore("rv32e", R"(
    in8 x1
    addi x2, x0, 77
    asrt x1, x2
    halti 0
  )");
  ASSERT_EQ(s.paths.size(), 2u);
  unsigned asserts = countDefects(s, DefectKind::AssertFail);
  EXPECT_EQ(asserts, 1u);
  for (const auto& p : s.paths) {
    if (p.defect) {
      EXPECT_NE(p.defect->witness.inputs[0].value, 77u);
    } else {
      // Survivor is constrained equal.
      EXPECT_EQ(p.test.inputs[0].value, 77u);
    }
  }
}

TEST(Checkers, AssertHoldingIsSilent) {
  const auto s = explore("rv32e", R"(
    in8 x1
    xor x2, x1, x1
    asrt x2, x0
    halti 0
  )");
  EXPECT_EQ(countDefects(s, DefectKind::AssertFail), 0u);
  ASSERT_EQ(s.paths.size(), 1u);
}

TEST(Checkers, TrapInsideConditionIsPathSensitive) {
  // addv traps only when overflow is reachable; constants 1 + 2 never do.
  const auto s = explore("rv32e", R"(
    addi x1, x0, 1
    addi x2, x0, 2
    addv x3, x1, x2
    out x3
    halti 0
  )");
  ASSERT_EQ(s.paths.size(), 1u);
  EXPECT_EQ(countDefects(s, DefectKind::Trap), 0u);
  EXPECT_EQ(s.paths[0].outputs[0], 3u);
}

TEST(Checkers, CheckersCanBeDisabled) {
  driver::SessionOptions opt;
  opt.engine.checkDivZero = false;
  Session session("rv32e", R"(
    in8 x1
    addi x2, x0, 100
    divu x3, x2, x1
    out x3
    halti 0
  )", opt);
  const auto s = session.explore();
  EXPECT_EQ(countDefects(s, DefectKind::DivByZero), 0u);
  // With SMT-LIB semantics udiv(100, 0) = all-ones; both behaviors are on
  // one path now.
  ASSERT_EQ(s.paths.size(), 1u);
  // Replay runs under the session's checkers too: input 0 divides by zero
  // without a defect.
  TestCase zero;
  zero.inputs.push_back({"in0_w8", 8, 0});
  const PathResult r = session.replay(zero);
  EXPECT_EQ(r.status, PathStatus::Exited);
  EXPECT_FALSE(r.defect.has_value());
  EXPECT_EQ(r.outputs, std::vector<uint64_t>{0xffffffffu});
}

TEST(Checkers, OobCheckDisabledStillConstrainsInBounds) {
  driver::SessionOptions opt;
  opt.engine.checkOob = false;
  Session session("rv32e", R"(
    .section text 0x0
    .entry _start
  _start:
    in8 x1
    addi x2, x0, buf
    add x2, x2, x1
    lbu x3, 0(x2)
    out x3
    halti 0
    .section data 0x400 rw
  buf: .byte 5, 6, 7, 8
  )", opt);
  const auto s = session.explore();
  ASSERT_EQ(s.paths.size(), 1u);
  EXPECT_EQ(s.paths[0].status, PathStatus::Exited);
  EXPECT_LT(s.paths[0].test.inputs[0].value, 4u);  // forced in-bounds
  EXPECT_EQ(session.replay(s.paths[0].test).status, PathStatus::Exited);
  // An out-of-bounds input has no path: the unchecked engine drops it.
  TestCase oob;
  oob.inputs.push_back({"in0_w8", 8, 200});
  EXPECT_EQ(session.replay(oob).status, PathStatus::Infeasible);
}

}  // namespace
}  // namespace adlsym::core
