// Concrete runs (core::runConcrete): the ADL engines on a bound input
// stream, checked against hand-computed results on both engine kinds.
#include <gtest/gtest.h>

#include "asmgen/assembler.h"
#include "core/explorer.h"
#include "isa/registry.h"

namespace adlsym::core {
namespace {

loader::Image assembleFor(const adl::ArchModel& model, const std::string& src) {
  DiagEngine diags;
  asmgen::Assembler assembler(model);
  auto img = assembler.assemble(src, diags);
  EXPECT_TRUE(img.has_value()) << diags.str();
  return std::move(*img);
}

class Concrete : public ::testing::TestWithParam<AdlEngineKind> {
 protected:
  PathResult run(const adl::ArchModel& model, const loader::Image& img,
                 const std::vector<uint64_t>& inputs,
                 uint64_t maxSteps = kConcreteStepBudget) {
    return runConcrete(model, img, EngineConfig{}, GetParam(), inputs,
                       maxSteps);
  }
  std::optional<DefectKind> defectOf(const adl::ArchModel& model,
                                     const loader::Image& img,
                                     const std::vector<uint64_t>& inputs) {
    const PathResult r = run(model, img, inputs);
    if (!r.defect) return std::nullopt;
    return r.defect->kind;
  }
};

TEST_P(Concrete, ArithmeticAndOutput) {
  auto model = isa::loadIsa("rv32e");
  const auto img = assembleFor(*model, R"(
    addi x1, x0, 6
    addi x2, x0, 7
    mul x3, x1, x2
    out x3
    halti 5
  )");
  const auto r = run(*model, img, {});
  EXPECT_EQ(r.status, PathStatus::Exited);
  EXPECT_EQ(r.exitCode, 5u);
  ASSERT_EQ(r.outputs.size(), 1u);
  EXPECT_EQ(r.outputs[0], 42u);
  EXPECT_EQ(r.steps, 5u);
}

TEST_P(Concrete, InputStreamConsumedInOrder) {
  auto model = isa::loadIsa("rv32e");
  const auto img = assembleFor(*model, R"(
    in8 x1
    in8 x2
    sub x3, x1, x2
    out x3
    halti 0
  )");
  const auto r = run(*model, img, {10, 3});
  ASSERT_EQ(r.outputs.size(), 1u);
  EXPECT_EQ(r.outputs[0], 7u);
  ASSERT_EQ(r.test.inputs.size(), 2u);
  EXPECT_EQ(r.test.inputs[0].name, "in0_w8");
  EXPECT_EQ(r.test.inputs[1].value, 3u);
  // Exhausted inputs read as zero.
  const auto r2 = run(*model, img, {10});
  ASSERT_EQ(r2.outputs.size(), 1u);
  EXPECT_EQ(r2.outputs[0], 10u);
}

TEST_P(Concrete, InputTruncatedToItsWidth) {
  auto model = isa::loadIsa("rv32e");
  const auto img = assembleFor(*model, R"(
    in8 x1
    out x1
    halti 0
  )");
  const auto r = run(*model, img, {300});
  ASSERT_EQ(r.status, PathStatus::Exited);
  ASSERT_EQ(r.outputs.size(), 1u);
  EXPECT_EQ(r.outputs[0], 44u);  // 300 mod 256
  ASSERT_EQ(r.test.inputs.size(), 1u);
  EXPECT_EQ(r.test.inputs[0].value, 44u);
}

TEST_P(Concrete, BranchesAndLoops) {
  auto model = isa::loadIsa("rv32e");
  const auto img = assembleFor(*model, R"(
    in8 x1
    addi x2, x0, 0
  loop:
    beq x1, x0, done
    addi x1, x1, -1
    addi x2, x2, 2
    jal x0, loop
  done:
    out x2
    halti 0
  )");
  EXPECT_EQ(run(*model, img, {5}).outputs.at(0), 10u);
  EXPECT_EQ(run(*model, img, {0}).outputs.at(0), 0u);
}

TEST_P(Concrete, DefectsDetected) {
  auto model = isa::loadIsa("rv32e");
  const auto divImg = assembleFor(*model, R"(
    in8 x1
    addi x2, x0, 9
    divu x3, x2, x1
    halti 0
  )");
  const auto r = run(*model, divImg, {0});
  EXPECT_EQ(r.status, PathStatus::Defect);
  ASSERT_TRUE(r.defect.has_value());
  EXPECT_EQ(r.defect->kind, DefectKind::DivByZero);
  EXPECT_EQ(r.defect->pc, 8u);
  EXPECT_EQ(r.steps, 2u);  // the faulting divu does not retire
  EXPECT_EQ(run(*model, divImg, {3}).status, PathStatus::Exited);

  // Outputs written before the fault are still reported.
  const auto outDivImg = assembleFor(*model, R"(
    in8 x1
    out x1
    addi x2, x0, 9
    out x2
    divu x3, x2, x1
    out x3
    halti 0
  )");
  const auto od = run(*model, outDivImg, {0});
  EXPECT_EQ(od.status, PathStatus::Defect);
  EXPECT_EQ(od.outputs, (std::vector<uint64_t>{0, 9}));

  const auto oobImg = assembleFor(*model, R"(
    lui x1, 0x7        ; 0x7000: unmapped
    lw x2, 0(x1)
    halti 0
  )");
  EXPECT_EQ(defectOf(*model, oobImg, {}), DefectKind::OobRead);

  const auto wrImg = assembleFor(*model, R"(
    sw x0, 0(x0)
    halti 0
  )");
  EXPECT_EQ(defectOf(*model, wrImg, {}), DefectKind::OobWrite);

  const auto asrtImg = assembleFor(*model, R"(
    in8 x1
    addi x2, x0, 4
    asrt x1, x2
    halti 0
  )");
  EXPECT_EQ(defectOf(*model, asrtImg, {5}), DefectKind::AssertFail);
  EXPECT_EQ(run(*model, asrtImg, {4}).status, PathStatus::Exited);

  const auto ovfImg = assembleFor(*model, R"(
    lui x1, 0x7ffff
    lui x2, 0x7ffff
    addv x3, x1, x2
    halti 0
  )");
  EXPECT_EQ(defectOf(*model, ovfImg, {}), DefectKind::Trap);
}

TEST_P(Concrete, MemoryWritesPersist) {
  auto model = isa::loadIsa("rv32e");
  const auto img = assembleFor(*model, R"(
    .section text 0x0
    .entry _start
  _start:
    addi x1, x0, buf
    addi x2, x0, 0x77
    sw x2, 0(x1)
    lw x3, 0(x1)
    out x3
    halti 0
    .section data 0x400 rw
  buf: .space 4
  )");
  EXPECT_EQ(run(*model, img, {}).outputs.at(0), 0x77u);
}

TEST_P(Concrete, LoadStraddlingTwoSectionsIsOob) {
  // An access must fit in one section, even when the next section starts
  // right where this one ends.
  auto model = isa::loadIsa("rv32e");
  const auto img = assembleFor(*model, R"(
    .section text 0x0
    .entry _start
  _start:
    addi x1, x0, 0x400
    lw x2, 0(x1)
    out x2
    halti 0
    .section lo 0x400 rw
    .byte 1, 2
    .section hi 0x402 rw
    .byte 3, 4
  )");
  const auto r = run(*model, img, {});
  EXPECT_EQ(r.status, PathStatus::Defect);
  ASSERT_TRUE(r.defect.has_value());
  EXPECT_EQ(r.defect->kind, DefectKind::OobRead);
  EXPECT_EQ(r.steps, 1u);
}

TEST_P(Concrete, IllegalAndBudget) {
  auto model = isa::loadIsa("rv32e");
  const auto badImg = assembleFor(*model, ".word 0xffffffff\n");
  const auto bad = run(*model, badImg, {});
  EXPECT_EQ(bad.status, PathStatus::Illegal);
  EXPECT_EQ(bad.steps, 0u);

  const auto loopImg = assembleFor(*model, "l: jal x0, l\n");
  const auto r = run(*model, loopImg, {}, 100);
  EXPECT_EQ(r.status, PathStatus::Budget);
  EXPECT_EQ(r.steps, 100u);
}

TEST_P(Concrete, Acc8FlagsAndIndexing) {
  auto model = isa::loadIsa("acc8");
  const auto img = assembleFor(*model, R"(
    .section text 0x0
    .entry _start
  _start:
    ldx_i tab
    adx_i 2
    lda_x        ; tab[2] == 30
    out
    cmp_i 30
    beq good
    hlt 1
  good:
    hlt 0
    .section data 0x300 rw
  tab: .byte 10, 20, 30, 40
  )");
  const auto r = run(*model, img, {});
  EXPECT_EQ(r.status, PathStatus::Exited);
  EXPECT_EQ(r.exitCode, 0u);
  EXPECT_EQ(r.outputs.at(0), 30u);
}

INSTANTIATE_TEST_SUITE_P(Engines, Concrete,
                         ::testing::Values(AdlEngineKind::Bytecode,
                                           AdlEngineKind::Interp),
                         [](const auto& info) {
                           return info.param == AdlEngineKind::Bytecode
                                      ? "bytecode"
                                      : "interp";
                         });

}  // namespace
}  // namespace adlsym::core
