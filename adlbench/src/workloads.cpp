#include "workloads.h"

#include <algorithm>
#include <thread>

namespace adlbench {

namespace {

// Sizes below fix each program's work, so seeds change constants, tables
// and op mixes but not how much exploring a batch takes.
constexpr unsigned kFirmwarePrograms = 2;
constexpr unsigned kFirmwareGuards = 5;        // 32 paths
constexpr unsigned kFirmwareItersPerGuard = 600;
constexpr unsigned kHashRounds = 9;            // 512 + 256 planted: 768 paths
constexpr unsigned kSortLength = 5;            // 541 weak orders
constexpr unsigned kTlvRecords = 8;            // 681 + 2 planted: 683 paths
constexpr unsigned kCkptTlvRecords = 7;        // 341 paths
constexpr unsigned kBitcountBits = 8;          // 256 paths
constexpr uint64_t kCheckpointEvery = 16;

GenProgram named(GenProgram g, unsigned index) {
  g.name = g.family + std::to_string(index);
  return g;
}

unsigned poolJobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp(n, 1u, 4u);
}

std::vector<Workload> all() {
  std::vector<Workload> w(4);
  w[0].name = "exec-loop";
  w[0].roundSeconds = 1.1;
  w[1].name = "solve-mix";
  w[1].roundSeconds = 4.2;
  w[2].name = "jobs-solve";
  w[2].roundSeconds = 6.5;
  w[2].cfg.jobs = poolJobs();
  w[3].name = "ckpt-events";
  w[3].roundSeconds = 2.7;
  w[3].cfg.ckptEvents = true;
  w[3].cfg.checkpointEvery = kCheckpointEvery;
  return w;
}

}  // namespace

std::vector<GenProgram> Workload::programs(uint64_t seed) const {
  std::vector<GenProgram> out;
  auto hash = [&] {
    return named(genHashChain(streamSeed(seed, "hash", 0), kHashRounds, true), 0);
  };
  auto sort = [&] { return named(genSort(streamSeed(seed, "sort", 0), kSortLength), 0); };
  if (name == "exec-loop") {
    for (unsigned i = 0; i < kFirmwarePrograms; ++i) {
      out.push_back(named(genFirmware(streamSeed(seed, "firmware", i), kFirmwareGuards,
                                      kFirmwareItersPerGuard),
                          i));
    }
  } else if (name == "solve-mix") {
    out.push_back(hash());
    out.push_back(sort());
    out.push_back(named(genTlv(streamSeed(seed, "tlv", 0), kTlvRecords, true), 0));
  } else if (name == "jobs-solve") {
    out.push_back(hash());
    out.push_back(sort());
  } else if (name == "ckpt-events") {
    // Two TLV programs to one bitcount: the median job then sits inside
    // the TLV cluster instead of on the gap between two families.
    for (unsigned i = 0; i < 2; ++i) {
      out.push_back(named(genTlv(streamSeed(seed, "ckpt-tlv", i), kCkptTlvRecords, false), i));
    }
    out.push_back(named(genBitcount(streamSeed(seed, "bitcount", 0), kBitcountBits), 0));
  }
  return out;
}

const Workload* findWorkload(const std::string& name) {
  static const std::vector<Workload> workloads = all();
  for (const Workload& w : workloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : all()) names.push_back(w.name);
  return names;
}

}  // namespace adlbench
