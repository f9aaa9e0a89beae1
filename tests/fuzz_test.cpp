// Randomized end-to-end differential testing ("concolic fuzzing" of the
// pipeline itself): generate random portable programs (forward-branching,
// so always terminating), explore them symbolically on every ISA, and
// check the full soundness story on each:
//   * every witness replays concretely to the predicted behavior,
//   * path structure is identical across ISAs,
//   * witnesses cross-replay between ISAs.
// Defect paths (division-by-zero, OOB from unmasked indices) are allowed
// and validated like any other path.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/testgen.h"
#include "driver/session.h"
#include "isa/registry.h"
#include "support/rng.h"
#include "workloads/pgen.h"

namespace adlsym {
namespace {

using core::PathResult;
using core::PathStatus;
using driver::Session;

workloads::PProgram randomProgram(Rng& rng) {
  workloads::PProgram p;
  std::vector<uint8_t> arr(8);
  for (auto& b : arr) b = static_cast<uint8_t>(rng.below(256));
  p.array("a", arr);

  const unsigned numSegs = 3 + static_cast<unsigned>(rng.below(4));
  unsigned inputsLeft = 4;  // bound the path explosion
  auto reg = [&] { return static_cast<int>(rng.below(5)); };

  for (unsigned seg = 0; seg < numSegs; ++seg) {
    p.label("seg" + std::to_string(seg));
    const unsigned ops = 2 + static_cast<unsigned>(rng.below(5));
    for (unsigned i = 0; i < ops; ++i) {
      switch (rng.below(14)) {
        case 0: p.li(reg(), static_cast<uint8_t>(rng.below(256))); break;
        case 1: p.mov(reg(), reg()); break;
        case 2: p.add(reg(), reg(), reg()); break;
        case 3: p.sub(reg(), reg(), reg()); break;
        case 4: p.andr(reg(), reg(), reg()); break;
        case 5: p.orr(reg(), reg(), reg()); break;
        case 6: p.xorr(reg(), reg(), reg()); break;
        case 7: p.mul(reg(), reg(), reg()); break;
        case 8: p.shli(reg(), reg(), static_cast<unsigned>(rng.below(8))); break;
        case 9: p.shri(reg(), reg(), static_cast<unsigned>(rng.below(8))); break;
        case 10:
          if (inputsLeft > 0) {
            --inputsLeft;
            p.in(reg());
          } else {
            p.out(reg());
          }
          break;
        case 11: p.out(reg()); break;
        case 12: {
          // Array access; sometimes masked (clean), sometimes not (may
          // produce an OOB defect path — also a valid outcome to verify).
          const int idx = reg();
          if (rng.below(2) == 0) {
            p.li(4, 7);
            p.andr(idx, idx, 4);
          }
          if (rng.below(2) == 0) {
            p.loadArr(reg(), "a", idx);
          } else {
            p.storeArr("a", idx, reg());
          }
          break;
        }
        case 13: {
          // Unsigned division; unguarded divisors may fault — fine.
          p.divu(reg(), reg(), reg());
          break;
        }
      }
    }
    // Forward-only conditional branch (guarantees termination).
    if (seg + 1 < numSegs) {
      const unsigned target =
          seg + 1 + static_cast<unsigned>(rng.below(numSegs - seg - 1));
      const std::string label = "seg" + std::to_string(target);
      switch (rng.below(4)) {
        case 0: p.beq(reg(), reg(), label); break;
        case 1: p.bne(reg(), reg(), label); break;
        case 2: p.bltu(reg(), reg(), label); break;
        case 3: p.bgeu(reg(), reg(), label); break;
      }
    }
  }
  p.out(0);
  p.halt(static_cast<uint8_t>(rng.below(256)));
  return p;
}

driver::SessionOptions fuzzOptions() {
  driver::SessionOptions opt;
  opt.explorer.maxPaths = 4000;
  opt.explorer.maxTotalSteps = 200000;
  return opt;
}

/// Model-independent structural fingerprint of a path set.
std::vector<std::string> structure(const core::ExploreSummary& s) {
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

void verifyReplay(Session& session, const core::ExploreSummary& summary) {
  for (const PathResult& p : summary.paths) {
    if (p.status == PathStatus::Exited) {
      const auto r = session.replay(p.test);
      ASSERT_EQ(r.status, PathStatus::Exited) << core::formatPath(p);
      EXPECT_EQ(r.exitCode, *p.exitCode);
      EXPECT_EQ(r.outputs, p.outputs);
    } else if (p.status == PathStatus::Defect) {
      const auto r = session.replay(p.defect->witness);
      ASSERT_EQ(r.status, PathStatus::Defect) << core::formatPath(p);
      ASSERT_TRUE(r.defect.has_value());
      EXPECT_EQ(r.defect->kind, p.defect->kind);
    }
  }
}

class RandomProgramFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramFuzz, SoundOnAllIsas) {
  Rng rng(0xf00d0000ull + static_cast<uint64_t>(GetParam()));
  const workloads::PProgram prog = randomProgram(rng);

  std::map<std::string, std::unique_ptr<Session>> sessions;
  std::map<std::string, core::ExploreSummary> sums;
  for (const std::string& isaName : isa::allIsaNames()) {
    sessions[isaName] = Session::forPortable(prog, isaName, fuzzOptions());
    sums[isaName] = sessions[isaName]->explore();
    ASSERT_FALSE(sums[isaName].paths.empty()) << isaName;
    verifyReplay(*sessions[isaName], sums[isaName]);
  }

  // Structural invariance across ISAs.
  const auto ref = structure(sums.at("rv32e"));
  for (const auto& [isaName, summary] : sums) {
    EXPECT_EQ(structure(summary), ref) << "structure differs on " << isaName;
  }

  // Cross-replay of exited paths.
  for (const auto& [fromIsa, summary] : sums) {
    for (const PathResult& p : summary.paths) {
      if (p.status != PathStatus::Exited) continue;
      for (const auto& [toIsa, session] : sessions) {
        const auto r = session->replay(p.test);
        ASSERT_EQ(r.status, PathStatus::Exited)
            << fromIsa << " witness diverged on " << toIsa;
        EXPECT_EQ(r.exitCode, *p.exitCode) << fromIsa << "->" << toIsa;
        EXPECT_EQ(r.outputs, p.outputs) << fromIsa << "->" << toIsa;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramFuzz, ::testing::Range(0, 25));

}  // namespace
}  // namespace adlsym
