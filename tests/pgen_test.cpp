// Portable code generator: lowering correctness is checked by running the
// generated programs CONCRETELY on each ISA and comparing against a direct
// C++ evaluation of the IR semantics.
#include <gtest/gtest.h>

#include "core/explorer.h"
#include "driver/session.h"
#include "isa/registry.h"
#include "support/rng.h"
#include "workloads/pgen.h"

namespace adlsym::workloads {
namespace {

struct RefResult {
  std::vector<uint64_t> outputs;
  uint64_t exitCode = 0;
};

/// Direct interpreter of the pgen IR (the semantic contract).
RefResult referenceRun(const PProgram& p, const std::vector<uint64_t>& inputs) {
  RefResult res;
  uint8_t v[PProgram::kMaxVRegs] = {};
  std::map<std::string, std::vector<uint8_t>> arrays;
  for (const PArray& a : p.arrays) arrays[a.name] = a.init;
  size_t inPos = 0;
  auto findLabel = [&](const std::string& l) {
    for (size_t i = 0; i < p.insts.size(); ++i) {
      if (p.insts[i].op == POp::Label && p.insts[i].label == l) return i;
    }
    throw Error("reference: unknown label " + l);
  };
  size_t ip = 0;
  for (int fuel = 0; fuel < 100000; ++fuel) {
    if (ip >= p.insts.size()) throw Error("reference: fell off program");
    const PInst& i = p.insts[ip++];
    switch (i.op) {
      case POp::Li: v[i.a] = static_cast<uint8_t>(i.imm); break;
      case POp::Mov: v[i.a] = v[i.b]; break;
      case POp::Add: v[i.a] = static_cast<uint8_t>(v[i.b] + v[i.c]); break;
      case POp::Sub: v[i.a] = static_cast<uint8_t>(v[i.b] - v[i.c]); break;
      case POp::And: v[i.a] = v[i.b] & v[i.c]; break;
      case POp::Or: v[i.a] = v[i.b] | v[i.c]; break;
      case POp::Xor: v[i.a] = v[i.b] ^ v[i.c]; break;
      case POp::Mul: v[i.a] = static_cast<uint8_t>(v[i.b] * v[i.c]); break;
      case POp::DivU: v[i.a] = static_cast<uint8_t>(v[i.b] / v[i.c]); break;
      case POp::AddV: v[i.a] = static_cast<uint8_t>(v[i.b] + v[i.c]); break;
      case POp::ShlI: v[i.a] = static_cast<uint8_t>(v[i.b] << i.imm); break;
      case POp::ShrI: v[i.a] = static_cast<uint8_t>(v[i.b] >> i.imm); break;
      case POp::LoadArr: v[i.a] = arrays.at(i.array).at(v[i.b]); break;
      case POp::StoreArr: arrays.at(i.array).at(v[i.a]) = v[i.b]; break;
      case POp::In:
        v[i.a] = inPos < inputs.size() ? static_cast<uint8_t>(inputs[inPos]) : 0;
        ++inPos;
        break;
      case POp::Out: res.outputs.push_back(v[i.a]); break;
      case POp::Halt: res.exitCode = i.imm; return res;
      case POp::AssertEqR:
        if (v[i.a] != v[i.b]) throw Error("reference: assert failed");
        break;
      case POp::Label: break;
      case POp::Jmp: ip = findLabel(i.label); break;
      case POp::Beq: if (v[i.a] == v[i.b]) ip = findLabel(i.label); break;
      case POp::Bne: if (v[i.a] != v[i.b]) ip = findLabel(i.label); break;
      case POp::Bltu: if (v[i.a] < v[i.b]) ip = findLabel(i.label); break;
      case POp::Bgeu: if (v[i.a] >= v[i.b]) ip = findLabel(i.label); break;
    }
  }
  throw Error("reference: fuel exhausted");
}

/// A torture program exercising every IR op except AddV/DivU traps.
PProgram tortureProgram() {
  PProgram p;
  p.array("arr", {3, 1, 4, 1, 5, 9, 2, 6});
  p.in(0);
  p.in(1);
  p.li(2, 7);
  p.andr(0, 0, 2);     // idx in [0,7]
  p.loadArr(3, "arr", 0);
  p.out(3);
  p.add(3, 3, 1);
  p.out(3);
  p.sub(3, 3, 0);
  p.mul(3, 3, 3);
  p.out(3);
  p.shli(4, 3, 2);
  p.shri(4, 4, 1);
  p.out(4);
  p.orr(4, 4, 1);
  p.xorr(4, 4, 0);
  p.out(4);
  p.li(2, 3);
  p.andr(1, 1, 2);     // second idx in [0,3]
  p.storeArr("arr", 1, 4);
  p.loadArr(3, "arr", 1);
  p.out(3);
  p.mov(2, 3);
  p.assertEq(2, 3);
  // Branch ladder.
  p.bltu(0, 1, "a");
  p.li(4, 100);
  p.jmp("end");
  p.label("a");
  p.bgeu(1, 0, "b");
  p.li(4, 101);
  p.jmp("end");
  p.label("b");
  p.beq(0, 0, "c");
  p.li(4, 102);
  p.label("c");
  p.bne(0, 1, "d");
  p.li(4, 103);
  p.label("d");
  p.label("end");
  p.out(4);
  p.halt(7);
  return p;
}

class PgenConcreteEquivalence
    : public ::testing::TestWithParam<std::string> {};

TEST_P(PgenConcreteEquivalence, TortureMatchesReference) {
  const std::string isa = GetParam();
  const PProgram prog = tortureProgram();
  auto model = isa::loadIsa(isa);
  DiagEngine diags;
  asmgen::Assembler assembler(*model);
  auto img = assembler.assemble(emitAssembly(prog, isa), diags);
  ASSERT_TRUE(img.has_value()) << diags.str();
  Rng rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<uint64_t> inputs = {rng.below(256), rng.below(256)};
    const RefResult expect = referenceRun(prog, inputs);
    for (const core::AdlEngineKind kind :
         {core::AdlEngineKind::Bytecode, core::AdlEngineKind::Interp}) {
      SCOPED_TRACE(kind == core::AdlEngineKind::Bytecode ? "bytecode"
                                                         : "interp");
      const auto actual =
          core::runConcrete(*model, *img, core::EngineConfig{}, kind, inputs);
      ASSERT_EQ(actual.status, core::PathStatus::Exited)
          << isa << " trial " << trial;
      EXPECT_EQ(actual.outputs, expect.outputs) << isa << " trial " << trial;
      EXPECT_EQ(actual.exitCode, expect.exitCode);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, PgenConcreteEquivalence,
                         ::testing::ValuesIn(isa::allIsaNames()),
                         [](const auto& info) { return info.param; });

TEST(Pgen, ValidationRejectsBadPrograms) {
  PProgram bad;
  bad.li(7, 1);  // vreg out of range
  EXPECT_THROW(emitAssembly(bad, "rv32e"), Error);

  PProgram badArr;
  badArr.li(0, 0);
  badArr.loadArr(1, "nope", 0);
  EXPECT_THROW(emitAssembly(badArr, "rv32e"), Error);

  PProgram badShift;
  badShift.li(0, 1);
  badShift.shli(0, 0, 9);
  EXPECT_THROW(emitAssembly(badShift, "rv32e"), Error);

  PProgram ok;
  ok.halt(0);
  EXPECT_THROW(emitAssembly(ok, "pdp11"), Error);  // unknown ISA
}

TEST(Pgen, EmittedAssemblyHasEntryAndSections) {
  PProgram p;
  p.array("a", {1});
  p.li(0, 0);
  p.loadArr(1, "a", 0);
  p.halt(0);
  for (const std::string& isa : isa::allIsaNames()) {
    const std::string s = emitAssembly(p, isa);
    EXPECT_NE(s.find(".entry _start"), std::string::npos) << isa;
    EXPECT_NE(s.find("rw"), std::string::npos) << isa;  // writable data
  }
}

}  // namespace
}  // namespace adlsym::workloads
