#include "refinterp.h"

#include <map>
#include <stdexcept>

namespace adlbench {

using adlsym::core::DefectKind;
using adlsym::workloads::PInst;
using adlsym::workloads::POp;
using adlsym::workloads::PProgram;

RefResult refRun(const PProgram& p, const std::vector<uint8_t>& inputs,
                 uint64_t maxSteps) {
  std::map<std::string, size_t> labels;
  for (size_t i = 0; i < p.insts.size(); ++i) {
    if (p.insts[i].op == POp::Label) labels[p.insts[i].label] = i;
  }
  std::map<std::string, std::vector<uint8_t>> arrays;
  for (const auto& a : p.arrays) arrays[a.name] = a.init;
  auto cell = [&](const PInst& in, uint8_t idx) -> uint8_t& {
    std::vector<uint8_t>& arr = arrays.at(in.array);
    // The IR does not bounds-check; the generators never index past an
    // array, so an escape here is a generator bug, not a program defect.
    if (idx >= arr.size()) throw std::runtime_error("refRun: index escapes " + in.array);
    return arr[idx];
  };
  auto target = [&](const std::string& l) {
    const auto it = labels.find(l);
    if (it == labels.end()) throw std::runtime_error("refRun: no label " + l);
    return it->second;
  };

  uint8_t v[PProgram::kMaxVRegs] = {};
  size_t nextInput = 0;
  RefResult r;
  size_t pc = 0;
  while (pc < p.insts.size()) {
    const PInst& in = p.insts[pc++];
    if (in.op == POp::Label) continue;
    if (r.steps++ == maxSteps) {
      r.end = RefResult::End::StepLimit;
      return r;
    }
    const auto imm = static_cast<uint8_t>(in.imm);
    switch (in.op) {
      case POp::Li: v[in.a] = imm; break;
      case POp::Mov: v[in.a] = v[in.b]; break;
      case POp::Add: v[in.a] = static_cast<uint8_t>(v[in.b] + v[in.c]); break;
      case POp::Sub: v[in.a] = static_cast<uint8_t>(v[in.b] - v[in.c]); break;
      case POp::And: v[in.a] = v[in.b] & v[in.c]; break;
      case POp::Or: v[in.a] = v[in.b] | v[in.c]; break;
      case POp::Xor: v[in.a] = v[in.b] ^ v[in.c]; break;
      case POp::Mul: v[in.a] = static_cast<uint8_t>(v[in.b] * v[in.c]); break;
      case POp::DivU:
        if (v[in.c] == 0) {
          r.end = RefResult::End::Defect;
          r.defect = DefectKind::DivByZero;
          return r;
        }
        v[in.a] = static_cast<uint8_t>(v[in.b] / v[in.c]);
        break;
      case POp::AddV: {
        const int sum = static_cast<int8_t>(v[in.b]) + static_cast<int8_t>(v[in.c]);
        if (sum < -128 || sum > 127) {
          r.end = RefResult::End::Defect;
          r.defect = DefectKind::Trap;
          return r;
        }
        v[in.a] = static_cast<uint8_t>(sum);
        break;
      }
      case POp::ShlI: v[in.a] = static_cast<uint8_t>(v[in.b] << in.imm); break;
      case POp::ShrI: v[in.a] = static_cast<uint8_t>(v[in.b] >> in.imm); break;
      case POp::LoadArr: v[in.a] = cell(in, v[in.b]); break;
      case POp::StoreArr: cell(in, v[in.a]) = v[in.b]; break;
      case POp::In:
        if (nextInput == inputs.size()) {
          r.end = RefResult::End::InputExhausted;
          return r;
        }
        v[in.a] = inputs[nextInput++];
        break;
      case POp::Out: r.outputs.push_back(v[in.a]); break;
      case POp::Halt:
        r.end = RefResult::End::Halt;
        r.exitCode = imm;
        return r;
      case POp::AssertEqR:
        if (v[in.a] != v[in.b]) {
          r.end = RefResult::End::Defect;
          r.defect = DefectKind::AssertFail;
          return r;
        }
        break;
      case POp::Jmp: pc = target(in.label); break;
      case POp::Beq: if (v[in.a] == v[in.b]) pc = target(in.label); break;
      case POp::Bne: if (v[in.a] != v[in.b]) pc = target(in.label); break;
      case POp::Bltu: if (v[in.a] < v[in.b]) pc = target(in.label); break;
      case POp::Bgeu: if (v[in.a] >= v[in.b]) pc = target(in.label); break;
      case POp::Label: break;
    }
  }
  // Falling off the end never happens for generated programs (all end in
  // Halt); report it as a step-limit stop so a check fails loudly.
  r.end = RefResult::End::StepLimit;
  return r;
}

}  // namespace adlbench
