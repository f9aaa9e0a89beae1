// Instruction-level differential fuzzing: random byte streams are decoded
// through the model; every stream that forms a valid instruction sequence
// becomes a program that is explored symbolically on the tree-walking
// engine, and every witness replayed concretely on the bytecode engine must
// reproduce the observable results. Unlike the pgen-level fuzz
// (fuzz_test.cpp), this reaches every instruction of every ISA — including
// flags, shifts, stack manipulation and corner encodings the portable IR
// never emits.
#include <gtest/gtest.h>

#include <map>

#include "core/rtlc.h"
#include "core/testgen.h"
#include "decode/decoder.h"
#include "driver/session.h"
#include "isa/registry.h"
#include "loader/image.h"
#include "smt/printer.h"
#include "smt/solver.h"
#include "support/rng.h"

namespace adlsym {
namespace {

/// Build a random but decodable straight-line program: draw random bytes,
/// keep any window that decodes, and stop after `maxInsns` instructions.
/// Control-flow and environment instructions are allowed — wild jumps just
/// end the path as Illegal, which both executors must agree on.
std::vector<uint8_t> randomCode(const adl::ArchModel& model, Rng& rng,
                                unsigned maxInsns) {
  decode::Decoder decoder(model);
  std::vector<uint8_t> code;
  unsigned insns = 0;
  unsigned attempts = 0;
  while (insns < maxInsns && attempts < 4000) {
    ++attempts;
    uint8_t buf[8];
    for (unsigned i = 0; i < model.maxInsnBytes; ++i) {
      buf[i] = static_cast<uint8_t>(rng.below(256));
    }
    const auto d = decoder.decodeBytes(buf, model.maxInsnBytes);
    if (!d) continue;
    code.insert(code.end(), buf, buf + d->lengthBytes);
    ++insns;
  }
  return code;
}

loader::Image makeImage(const std::vector<uint8_t>& code) {
  loader::Image img;
  loader::Section text;
  text.name = "text";
  text.base = 0;
  text.bytes = code;
  img.addSection(std::move(text));
  // Generous rw scratch so random loads/stores often land somewhere
  // mapped (both engines still agree when they don't).
  loader::Section data;
  data.name = "data";
  data.base = 0x4000;
  data.bytes.assign(512, 0xa5);
  data.writable = true;
  img.addSection(std::move(data));
  img.setEntry(0);
  return img;
}

class InsnFuzz
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(InsnFuzz, SymbolicAgreesWithConcrete) {
  const auto& [isaName, seedBase] = GetParam();
  auto model = isa::loadIsa(isaName);
  Rng rng(0xbeef0000ull + static_cast<uint64_t>(seedBase) * 977 +
          std::hash<std::string>{}(isaName));

  for (int trial = 0; trial < 8; ++trial) {
    const std::vector<uint8_t> code = randomCode(*model, rng, 12);
    if (code.empty()) continue;
    const loader::Image img = makeImage(code);

    // Symbolic exploration. Random code may read inputs and branch on
    // them; budget-bound everything and check each completed path.
    smt::TermManager tm;
    smt::SmtSolver solver(tm);
    solver.setConflictBudget(200000);
    core::EngineConfig engineCfg;
    core::EngineServices services(tm, solver, img, engineCfg);
    core::AdlExecutor executor(*model, services);
    core::ExplorerConfig exploreCfg;
    exploreCfg.maxPaths = 64;
    exploreCfg.maxTotalSteps = 4000;
    exploreCfg.maxStepsPerPath = 200;
    core::Explorer explorer(executor, services, exploreCfg);
    const auto summary = explorer.run();

    // Replay each witness on the other engine (bytecode), so the check
    // stays cross-engine.
    for (const auto& p : summary.paths) {
      if (p.status == core::PathStatus::Budget) continue;  // unaligned caps
      const core::TestCase& witness =
          p.defect ? p.defect->witness : p.test;
      std::vector<uint64_t> inputs;
      for (const auto& v : witness.inputs) inputs.push_back(v.value);
      const auto r = core::runConcrete(*model, img, engineCfg,
                                       core::AdlEngineKind::Bytecode, inputs,
                                       200);
      ASSERT_EQ(r.status, p.status)
          << isaName << " trial " << trial << "\n"
          << core::formatPath(p);
      if (p.status == core::PathStatus::Exited) {
        EXPECT_EQ(r.exitCode, *p.exitCode);
        EXPECT_EQ(r.outputs, p.outputs);
      }
      if (p.defect) {
        ASSERT_TRUE(r.defect.has_value()) << core::formatPath(p);
        EXPECT_EQ(r.defect->kind, p.defect->kind) << core::formatPath(p);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Per-opcode engine differential fuzz (docs/bytecode.md): for every
// instruction of every ISA, synthesize encodings directly from the fixed
// mask/match bits with random operand fields, then step the tree-walking
// evaluator and the rtlc bytecode engine from random register/flag
// states — concrete and symbolic — and require bit-exact agreement on
// every successor: registers, path condition, outputs, memory, defects
// and tick counts. This reaches decode-specialization corner cases
// (field folding, regfile index resolution, width binding) one
// instruction at a time, independent of any program context.
// ---------------------------------------------------------------------

std::vector<uint8_t> encodeWord(uint64_t word, unsigned len, bool little) {
  std::vector<uint8_t> out(len);
  for (unsigned i = 0; i < len; ++i) {
    out[i] = static_cast<uint8_t>(word >> (8 * (little ? i : len - 1 - i)));
  }
  return out;
}

/// Bit-exact fingerprint of a machine state, memory included (the rw
/// scratch section of makeImage and any successor overlay writes).
std::string stateKey(smt::TermManager& tm, const core::MachineState& s) {
  std::string o = "pc=" + std::to_string(s.pc) +
                  " steps=" + std::to_string(s.steps) +
                  " st=" + std::to_string(static_cast<int>(s.status));
  o += " regs:";
  for (const auto& r : s.regs) o += " " + smt::toString(r);
  o += " rf:";
  for (const auto& r : s.regfile) o += " " + smt::toString(r);
  o += " pcond:";
  for (const auto& c : s.pathCond) o += " " + smt::toString(c);
  o += " outs:";
  for (const auto& r : s.outputs) o += " " + smt::toString(r.term);
  if (s.exitCode.valid()) o += " exit=" + smt::toString(s.exitCode);
  if (s.defect) {
    o += " defect=" + std::string(core::defectKindName(s.defect->kind)) +
         "@" + std::to_string(s.defect->pc) + ":" + s.defect->message;
  }
  o += " mem:";
  for (uint64_t a = 0x4000; a < 0x4000 + 512; ++a) {
    o += smt::toString(s.memory.readByte(tm, a));
  }
  return o;
}

TEST_P(InsnFuzz, EnginesAgreeBitExactPerOpcode) {
  const auto& [isaName, seedBase] = GetParam();
  auto model = isa::loadIsa(isaName);
  decode::Decoder probe(*model);
  Rng rng(0x0bc0de00ull + static_cast<uint64_t>(seedBase) * 131 +
          std::hash<std::string>{}(isaName));

  size_t covered = 0;
  for (const adl::InsnInfo& insn : model->insns) {
    // Synthesize an encoding of this opcode: fixed bits from the model,
    // operand fields random. Longest-match decoding may hand the bytes to
    // a different instruction sharing the pattern; retry a few times and
    // skip opcodes that stay shadowed (they are unreachable from images).
    std::vector<uint8_t> bytes;
    const uint64_t lenMask =
        insn.lengthBytes >= 8 ? ~0ull : (1ull << (8 * insn.lengthBytes)) - 1;
    for (int attempt = 0; attempt < 64 && bytes.empty(); ++attempt) {
      const uint64_t word =
          ((rng.next() & ~insn.fixedMask) | insn.fixedMatch) & lenMask;
      const auto enc = encodeWord(word, insn.lengthBytes, model->endianLittle);
      const auto d = probe.decodeBytes(enc.data(), enc.size());
      if (d && d->insn == &insn) bytes = enc;
    }
    if (bytes.empty()) continue;
    ++covered;

    const loader::Image img = makeImage(bytes);
    smt::TermManager tm;
    smt::SmtSolver solver(tm);
    solver.setConflictBudget(200000);
    core::EngineConfig engineCfg;
    core::EngineServices services(tm, solver, img, engineCfg);
    core::AdlExecutor interp(*model, services);
    core::BytecodeExecutor bytecode(*model, services);

    for (int trial = 0; trial < 4; ++trial) {
      core::MachineState s0 = interp.initialState();
      for (auto& r : s0.regs) {
        // Mostly concrete random values (flags are width-1 regs and get
        // random flag states for free); occasionally a free variable so
        // the symbolic dispatch path is diffed on every opcode too.
        r = (trial == 3 && rng.below(3) == 0)
                ? tm.mkVar(r.width(), "fz" + std::to_string(r.width()) + "_" +
                                          std::to_string(rng.below(8)))
                : tm.mkConst(r.width(), rng.next());
      }
      for (auto& r : s0.regfile) r = tm.mkConst(r.width(), rng.next());

      core::StepOut oi, ob;
      interp.step(s0, oi);
      bytecode.step(s0, ob);
      EXPECT_EQ(oi.rtlTicks, ob.rtlTicks)
          << isaName << " " << insn.name << " trial " << trial;
      ASSERT_EQ(oi.successors.size(), ob.successors.size())
          << isaName << " " << insn.name << " trial " << trial;
      for (size_t k = 0; k < oi.successors.size(); ++k) {
        ASSERT_EQ(stateKey(tm, oi.successors[k]), stateKey(tm, ob.successors[k]))
            << isaName << " " << insn.name << " trial " << trial
            << " successor " << k;
      }
    }
  }
  // Synthesis must reach the overwhelming majority of each model; a
  // shadowed opcode or two (longest-match prefix overlap) is tolerated.
  EXPECT_GE(covered * 10, model->insns.size() * 9) << isaName;
}

std::vector<std::tuple<std::string, int>> fuzzParams() {
  std::vector<std::tuple<std::string, int>> out;
  for (const std::string& isaName : isa::allIsaNames()) {
    for (int s = 0; s < 4; ++s) out.emplace_back(isaName, s);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllIsas, InsnFuzz, ::testing::ValuesIn(fuzzParams()),
                         [](const auto& info) {
                           return std::get<0>(info.param) + "_s" +
                                  std::to_string(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace adlsym
