// adlbench: seeded end-to-end benchmark of `adlsym explore`.
//
//   adlbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--tmpdir <dir>]
//
// --trace 0 (timed run): generates the workload's programs from the seed,
// lowers each to all four ISAs, then runs the batch through
// driver::cli::cmdExplore for the number of rounds that fill --seconds on
// the reference machine, checking every output. Prints the end-to-end
// metrics.
// --trace 1 (traced run): one round in which every job runs through the
// CLI, the rebuilt pipeline plain, and the rebuilt pipeline traced; prints
// the per-layer metrics and the reconciliation table.
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "asmgen/assembler.h"
#include "check.h"
#include "core/rtlc.h"
#include "isa/registry.h"
#include "pipeline.h"
#include "support/error.h"
#include "workloads.h"

namespace {

using namespace adlbench;
namespace cli = adlsym::driver::cli;

constexpr unsigned kSetupReps = 10;  // set-ups per job for setup_s
constexpr size_t kMinRounds = 3;  // wall_s is a median over rounds

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string tmpDir = ".bench_build/adlbench-tmp";
};

bool parseArgs(int argc, char** argv, Args& a) {
  bool haveSeed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      const auto r = std::from_chars(v.data(), v.data() + v.size(), a.seed);
      haveSeed = r.ec == std::errc() && r.ptr == v.data() + v.size();
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (k == "--tmpdir") {
      a.tmpDir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && haveSeed && a.seconds > 0 && a.trace >= 0 &&
         findWorkload(a.workload) != nullptr;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// The highest integer percentile with at least 10 samples above it
/// (nearest-rank); {percentile, value}. Needs at least 11 samples.
std::pair<int, double> tailPercentile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (int p = 99; p > 0; --p) {
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    if (rank >= 1 && v.size() - rank >= 10) return {p, v[rank - 1]};
  }
  return {0, v.front()};
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  // what the value is measured against (traced table)
};

void printResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << '"' << ms[i].name << "\": {\"value\": " << num(ms[i].value)
       << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

struct Batch {
  const Workload* w = nullptr;
  std::vector<GenProgram> programs;
  std::vector<Job> jobs;
  cli::ExploreOptions opt;
};

Batch prepare(const Args& a) {
  Batch b;
  b.w = findWorkload(a.workload);
  b.programs = b.w->programs(a.seed);
  for (size_t p = 0; p < b.programs.size(); ++p) {
    for (const std::string& isa : adlsym::isa::allIsaNames()) {
      Job j;
      j.program = p;
      j.isa = isa;
      j.asmText = adlsym::workloads::emitAssembly(b.programs[p].ir, isa);
      j.imageText = assembleImageText(isa, j.asmText);
      b.jobs.push_back(std::move(j));
    }
  }
  RunConfig cfg = b.w->cfg;
  cfg.tmpDir = a.tmpDir;
  b.opt = cliOptions(cfg);
  return b;
}

/// Checks one round of CLI outputs (one per job, in job order): each
/// output on its own, then the path count across the four ISAs of each
/// program. Returns the jobs that failed; prints why.
std::set<size_t> checkRound(const Batch& b, const std::vector<cli::CommandResult>& res,
                            std::vector<ExploreTable>& tables) {
  std::set<size_t> failed;
  tables.assign(b.jobs.size(), {});
  auto fail = [&](size_t j, const std::string& why) {
    if (failed.insert(j).second) {
      std::cout << "FAIL " << b.programs[b.jobs[j].program].name << " on "
                << b.jobs[j].isa << ": " << why << '\n';
    }
  };
  std::map<size_t, std::vector<size_t>> byProgram;
  for (size_t j = 0; j < b.jobs.size(); ++j) {
    std::string err;
    auto t = parseExploreOutput(res[j].output, err);
    if (!t) {
      fail(j, err);
      continue;
    }
    for (const std::string& why :
         checkExplore(b.programs[b.jobs[j].program], res[j].exitCode, *t)) {
      fail(j, why);
    }
    tables[j] = std::move(*t);
    byProgram[b.jobs[j].program].push_back(j);
  }
  for (const auto& [p, js] : byProgram) {
    for (const size_t j : js) {
      if (tables[j].paths != tables[js.front()].paths) {
        for (const size_t k : js) fail(k, "path count differs across ISAs");
        break;
      }
    }
  }
  return failed;
}

/// Spreads single-threaded jobs over every CPU the process may use. On a
/// shared host the CPUs run memory-bound code at different speeds (cache
/// and bandwidth neighbours), and the scheduler keeps a thread where it
/// started; rotating job k of round r onto CPU (k + r) mod n makes every
/// run sample every CPU equally, so runs agree with each other.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof all, &all) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) cpus_.push_back(c);
    }
    all_ = all;
  }
  ~CpuRotation() { unpin(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin the calling thread (and the threads it starts) for slot k.
  void pin(size_t k) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

  /// Back to every CPU, for worker pools (--jobs > 1).
  void unpin() const {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  std::vector<int> cpus_;
  cpu_set_t all_{};
};

double peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// loadIsa + assembly + executor construction (the rtlc compile): what every
// `adlsym explore` pays before the first step.
double setupSeconds(const Job& j) {
  namespace core = adlsym::core;
  const double t0 = nowUs();
  const auto model = adlsym::isa::loadIsa(j.isa);
  adlsym::DiagEngine diags;
  const auto image = adlsym::asmgen::Assembler(*model).assemble(j.asmText, diags);
  if (!image) throw adlsym::Error("assembly failed:\n" + diags.str());
  double us = nowUs() - t0;
  adlsym::smt::TermManager tm;
  adlsym::smt::SmtSolver solver(tm);
  core::EngineConfig ecfg;
  core::EngineServices svc(tm, solver, *image, ecfg);
  const double t1 = nowUs();
  core::BytecodeExecutor exec(*model, svc);
  us += nowUs() - t1;
  return us / 1e6;
}

int timedRun(const Args& a, const Batch& b) {
  const CpuRotation cpus;
  // Worker pools (--jobs > 1) spread over the CPUs by themselves.
  const bool pinJobs = b.opt.jobs <= 1;
  std::vector<double> setup;
  for (unsigned r = 0; r < kSetupReps; ++r) {
    for (size_t j = 0; j < b.jobs.size(); ++j) {
      cpus.pin(j + r);
      setup.push_back(setupSeconds(b.jobs[j]));
    }
  }
  cpus.unpin();

  std::vector<double> roundWall, exploreMs;
  std::vector<std::vector<double>> perJobMs(b.jobs.size());
  std::map<std::string, std::vector<double>> familyWall;  // per round
  std::map<std::string, double> isaSteps, isaSeconds;
  uint64_t attempted = 0, failed = 0;
  std::vector<cli::CommandResult> res(b.jobs.size());
  std::vector<double> jobMs(b.jobs.size());
  const size_t rounds =
      std::max<size_t>(kMinRounds, std::lround(a.seconds / b.w->roundSeconds));
  while (roundWall.size() < rounds) {
    const double r0 = nowUs();
    for (size_t j = 0; j < b.jobs.size(); ++j) {
      if (pinJobs) cpus.pin(j + roundWall.size());
      const double t0 = nowUs();
      res[j] = cli::cmdExplore(b.jobs[j].isa, b.jobs[j].imageText, b.opt);
      jobMs[j] = (nowUs() - t0) / 1e3;
    }
    roundWall.push_back((nowUs() - r0) / 1e6);
    std::vector<ExploreTable> tables;
    const std::set<size_t> bad = checkRound(b, res, tables);
    attempted += b.jobs.size();
    failed += bad.size();
    std::map<std::string, double> fam;
    for (size_t j = 0; j < b.jobs.size(); ++j) {
      exploreMs.push_back(jobMs[j]);
      perJobMs[j].push_back(jobMs[j]);
      fam[b.programs[b.jobs[j].program].family] += jobMs[j] / 1e3;
      isaSteps[b.jobs[j].isa] += static_cast<double>(tables[j].steps);
      isaSeconds[b.jobs[j].isa] += jobMs[j] / 1e3;
    }
    for (const auto& [f, s] : fam) familyWall[f].push_back(s);
  }

  std::cout << "workload " << a.workload << " seed " << a.seed << ": "
            << b.programs.size() << " programs x 4 ISAs, " << roundWall.size()
            << " rounds\n  round wall_s:";
  for (const double w : roundWall) std::cout << ' ' << num(w);
  std::cout << '\n';
  for (const auto& [f, walls] : familyWall) {
    std::cout << "  family " << f << " wall_s (median per round) = " << num(median(walls))
              << '\n';
  }
  for (const auto& [isa, steps] : isaSteps) {
    std::cout << "  isa " << isa << " retired/s (steps / explore wall) = "
              << num(steps / isaSeconds[isa]) << '\n';
  }
  // The batch's jobs form one cluster per ISA; a median over raw samples
  // would sit between two clusters on their noisiest samples. Each job's
  // median over rounds first, then the median over jobs.
  std::vector<double> jobMedians;
  for (const auto& v : perJobMs) jobMedians.push_back(median(v));
  const auto [pct, tail] = tailPercentile(exploreMs);
  std::cout << "  explore_ms_tail is p" << pct << " of " << exploreMs.size()
            << " samples\n";
  std::cout << "  fail_ratio = " << failed << "/" << attempted << " = "
            << num(attempted ? double(failed) / double(attempted) : 0) << '\n';
  printResult(failed == 0, attempted, failed,
              {{"wall_s", median(roundWall), "s", ""},
               {"explore_ms_p50", median(jobMedians), "ms", ""},
               {"explore_ms_tail", tail, "ms", ""},
               {"setup_s", median(setup), "s", ""},
               {"peak_rss_mb", peakRssMb(), "MiB", ""}});
  return 0;
}

double ratio(double n, double d) { return d != 0 ? n / d : 0.0; }

struct TracedRound {
  LayerTally plain, tr;
  double cliUs = 0, cliNoCkptUs = 0, cliNoEventsUs = 0;
};

/// One traced round: every job through the CLI, the rebuilt pipeline plain
/// and the rebuilt pipeline traced (in reverse order on odd rounds, so no
/// variant always runs first), plus the flag-off CLI runs on ckpt-events.
/// Checks the CLI outputs and that all three counted the same paths, steps
/// and queries; returns the number of failed jobs.
uint64_t tracedRound(const Batch& b, const RunConfig& cfg, const CpuRotation& cpus,
                     size_t round, TracedRound& r) {
  const bool reverse = round % 2 == 1;
  std::vector<cli::CommandResult> res(b.jobs.size());
  std::vector<RunCounts> libPlain(b.jobs.size()), libTraced(b.jobs.size());
  for (size_t j = 0; j < b.jobs.size(); ++j) {
    const Job& job = b.jobs[j];
    if (b.opt.jobs <= 1) cpus.pin(j + round);
    auto viaCli = [&] {
      double t0 = nowUs();
      res[j] = cli::cmdExplore(job.isa, job.imageText, b.opt);
      r.cliUs += nowUs() - t0;
      if (!cfg.ckptEvents) return;
      t0 = nowUs();
      cli::cmdExplore(job.isa, job.imageText, cliOptions(cfg, false, true));
      r.cliNoCkptUs += nowUs() - t0;
      t0 = nowUs();
      cli::cmdExplore(job.isa, job.imageText, cliOptions(cfg, true, false));
      r.cliNoEventsUs += nowUs() - t0;
    };
    if (!reverse) viaCli();
    if (reverse) libTraced[j] = runLibrary(job, cfg, r.tr, true);
    libPlain[j] = runLibrary(job, cfg, r.plain, false);
    if (!reverse) libTraced[j] = runLibrary(job, cfg, r.tr, true);
    if (reverse) viaCli();
  }
  std::vector<ExploreTable> tables;
  const std::set<size_t> bad = checkRound(b, res, tables);
  uint64_t failed = bad.size();
  uint64_t totalSteps = 0;
  for (size_t j = 0; j < b.jobs.size(); ++j) {
    totalSteps += libTraced[j].steps;
    if (bad.count(j)) continue;
    const ExploreTable& t = tables[j];
    for (const RunCounts& c : {libPlain[j], libTraced[j]}) {
      if (c.paths != t.paths || c.steps != t.steps || c.queries != t.queries) {
        std::cout << "FAIL " << b.programs[b.jobs[j].program].name << " on "
                  << b.jobs[j].isa << ": rebuilt pipeline counted paths/steps/queries "
                  << c.paths << "/" << c.steps << "/" << c.queries << ", CLI "
                  << t.paths << "/" << t.steps << "/" << t.queries << '\n';
        ++failed;
        break;
      }
    }
  }
  if (r.tr.execRetired != totalSteps) {
    std::cout << "FAIL executor decorator saw " << r.tr.execRetired
              << " retired instructions, the explorers counted " << totalSteps << '\n';
    ++failed;
  }
  return failed;
}

/// The per-layer metrics of one round. Sets `twice` when the self times
/// and the remainder do not partition the traced wall; prints the
/// reconciliation table when `print` is set.
std::vector<Metric> layerMetrics(const TracedRound& r, bool ckptEvents, bool print,
                                 bool& twice) {
  const LayerTally& tr = r.tr;
  const double J = tr.jobs;
  const double wall = tr.pipelineWallUs;
  const double execSelf = (tr.execBusyUs - tr.smtInsideExecUs) / J;
  const double smtBusy = tr.smtUs / J;
  const double exploreBusy = tr.exploreWallUs - tr.compileInExploreUs;
  const double exploreSelf =
      exploreBusy - (tr.execBusyUs + tr.smtUs - tr.smtInsideExecUs) / J;
  const std::vector<std::pair<std::string, double>> selfRows = {
      {"adl.load_us", tr.loadUs},          {"asmgen.assemble_us", tr.assembleUs},
      {"rtlc.compile_us", tr.compileUs},   {"exec.self_us", execSelf},
      {"smt.busy_us", smtBusy},            {"explore.self_us", exploreSelf}};
  double attributed = 0;
  twice = false;
  for (const auto& [n, v] : selfRows) {
    attributed += v;
    twice |= v < 0;
  }
  const double other = wall - attributed;
  twice |= other < 0;
  if (print) {
    std::cout << "  reconciliation (us, share of traced wall " << num(wall)
              << (J > 1 ? "; worker layers scaled by 1/jobs" : "") << "):\n";
    for (const auto& [n, v] : selfRows) {
      std::cout << "    " << n << " = " << num(v) << "  (" << num(100 * ratio(v, wall))
                << "%)\n";
    }
    std::cout << "    other.us = " << num(other) << "  (" << num(100 * ratio(other, wall))
              << "%)\n    sum = " << num(attributed + other) << " = traced wall\n";
  }
  // Only ckpt-events runs with the checkpoint and event flags.
  const double ckptOverhead = ckptEvents ? r.cliUs - r.cliNoCkptUs : 0;
  const double eventsOverhead = ckptEvents ? r.cliUs - r.cliNoEventsUs : 0;
  return {
      {"adl.load_us", tr.loadUs, "us", "traced wall"},
      {"asmgen.assemble_us", tr.assembleUs, "us", "traced wall"},
      {"rtlc.compile_us", tr.compileUs, "us", "traced wall"},
      {"exec.calls", double(tr.execCalls), "count", "step/stepMany calls"},
      {"exec.retired", double(tr.execRetired), "count", "retired instructions"},
      {"exec.fused_ratio", ratio(double(tr.execRetired), double(tr.execCalls)), "ratio",
       "retired / calls"},
      {"exec.successors", double(tr.execSuccessors), "count", "successor states"},
      {"exec.busy_us", tr.execBusyUs / J, "us", "traced wall"},
      {"exec.self_us", execSelf, "us", "traced wall"},
      {"explore.busy_us", exploreBusy, "us", "traced wall"},
      {"explore.self_us", exploreSelf, "us", "traced wall"},
      {"explore.paths", double(tr.paths), "count", "completed paths"},
      {"explore.forks", double(tr.forks), "count", "forks"},
      {"smt.queries", double(tr.smtQueries), "count", "queries"},
      {"smt.busy_us", smtBusy, "us", "traced wall"},
      {"smt.us_per_query", ratio(tr.smtUs, double(tr.smtQueries)), "us",
       "solver thread-time / queries"},
      {"smt.cache_hits", double(tr.smtHits), "count", "queries"},
      {"smt.hit_ratio", ratio(double(tr.smtHits), double(tr.smtQueries)), "ratio",
       "cache hits / queries"},
      {"smt.pre_consulted", double(tr.preConsulted), "count", "prefilter judgements"},
      {"smt.pre_decided_ratio", ratio(double(tr.preDecided), double(tr.preConsulted)),
       "ratio", "(preSat + preUnsat) / preConsulted"},
      {"smt.blast_terms", double(tr.blastTerms), "count", "terms bit-blasted"},
      {"smt.blast_gates", double(tr.blastGates), "count", "gates"},
      {"smt.sat_conflicts", double(tr.satConflicts), "count", "CDCL conflicts"},
      {"smt.sat_propagations", double(tr.satPropagations), "count", "propagations"},
      {"smt.unknown", double(tr.smtUnknown), "count", "queries"},
      {"qcache.hits", double(tr.qcacheHits), "count", "shared-cache lookups"},
      {"qcache.misses", double(tr.qcacheMisses), "count", "shared-cache lookups"},
      {"qcache.hit_ratio",
       ratio(double(tr.qcacheHits), double(tr.qcacheHits + tr.qcacheMisses)), "ratio",
       "hits / (hits + misses)"},
      {"qcache.inflight_waits", double(tr.qcacheInflightWaits), "count",
       "lookups that waited on another worker"},
      {"pool.steals", double(tr.poolSteals), "count", "frontier entries stolen"},
      {"pool.steal_wait_us", double(tr.poolStealWaitUs), "us", "thread-time parked"},
      {"pool.balance", ratio(double(tr.poolMinSteps), double(tr.poolMaxSteps)), "ratio",
       "min / max worker steps"},
      {"pool.utilisation", ratio(tr.poolBusyUs, tr.poolCapacityUs), "ratio",
       "worker busy / (jobs x explore wall)"},
      {"ckpt.writes", double(tr.ckptWrites), "count", "checkpoint writes"},
      {"ckpt.bytes", double(tr.ckptBytes), "bytes", "bytes over all writes"},
      {"ckpt.overhead_us", ckptOverhead, "us", "CLI wall with minus without --checkpoint"},
      {"events.lines", double(tr.eventsLines), "count", "event lines"},
      {"events.bytes", double(tr.eventsBytes), "bytes", "event stream bytes"},
      {"events.overhead_us", eventsOverhead, "us", "CLI wall with minus without --events"},
      {"driver.self_us", r.cliUs - (r.plain.pipelineWallUs - r.plain.assembleUs), "us",
       "cmdExplore wall minus rebuilt pipeline wall"},
      {"other.us", other, "us", "traced wall"},
      {"trace.overhead_ratio", ratio(wall, r.plain.pipelineWallUs), "ratio",
       "traced wall / untraced wall"},
  };
}

int tracedRun(const Args& a, const Batch& b) {
  RunConfig cfg = b.w->cfg;
  cfg.tmpDir = a.tmpDir;
  std::cout << "workload " << a.workload << " seed " << a.seed << ": traced rounds of "
            << b.jobs.size() << " jobs\n";
  const CpuRotation cpus;
  uint64_t failed = 0;
  bool twice = false;
  std::vector<std::vector<Metric>> rounds;
  const double start = nowUs();
  do {
    TracedRound r;
    failed += tracedRound(b, cfg, cpus, rounds.size(), r);
    bool t = false;
    std::cout << " round " << rounds.size() + 1 << '\n';
    rounds.push_back(layerMetrics(r, cfg.ckptEvents, true, t));
    if (t) {
      std::cout << "FAIL reconciliation: a layer's time is counted twice (negative self "
                   "time or remainder)\n";
    }
    twice |= t;
  } while (nowUs() - start < a.seconds * 1e6);

  // Counts repeat exactly across rounds; times are reported as the median.
  std::vector<Metric> ms = rounds.front();
  std::cout << "  per-layer metrics, median of " << rounds.size()
            << " round(s) (value unit  [base]):\n";
  for (size_t i = 0; i < ms.size(); ++i) {
    std::vector<double> v;
    for (const auto& round : rounds) v.push_back(round[i].value);
    ms[i].value = median(v);
    std::cout << "    " << ms[i].name << " = " << num(ms[i].value) << ' ' << ms[i].unit
              << "  [" << ms[i].base << "]\n";
  }
  printResult(failed == 0 && !twice, rounds.size() * b.jobs.size(), failed, ms);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parseArgs(argc, argv, a)) {
    std::cerr << "usage: adlbench --workload <";
    for (const std::string& n : workloadNames()) std::cerr << n << '|';
    std::cerr << "> --seed <n> --seconds <s> --trace <0|1> [--tmpdir <dir>]\n";
    return 2;
  }
  try {
    std::filesystem::create_directories(a.tmpDir);
    const Batch b = prepare(a);
    return a.trace ? tracedRun(a, b) : timedRun(a, b);
  } catch (const std::exception& e) {
    std::cerr << "adlbench: " << e.what() << '\n';
    return 1;
  }
}
