#include "pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "asmgen/assembler.h"
#include "core/pexplorer.h"
#include "core/rtlc.h"
#include "decode/decoder.h"
#include "isa/registry.h"
#include "obs/events.h"
#include "obs/sitestats.h"
#include "smt/presolver.h"
#include "smt/qcache.h"
#include "support/atomicio.h"
#include "support/error.h"
#include "support/hash.h"
#include "support/json.h"

namespace adlbench {

namespace core = adlsym::core;
namespace smt = adlsym::smt;
namespace obs = adlsym::obs;
namespace telemetry = adlsym::telemetry;
using adlsym::driver::cli::ExploreOptions;

// Explore budgets high enough that no generated program is truncated; a
// truncated run exits 3 and counts as a failure.
constexpr uint64_t kMaxPaths = 1'000'000;
constexpr uint64_t kMaxSteps = 1'000'000'000;
// SessionOptions::solverConflictBudget, which cmdExplore also applies.
constexpr uint64_t kConflictBudget = 500000;

double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ExploreOptions cliOptions(const RunConfig& cfg, bool ckpt, bool events) {
  ExploreOptions o;
  o.maxPaths = kMaxPaths;
  o.maxTotalSteps = kMaxSteps;
  o.jobs = cfg.jobs;
  if (cfg.ckptEvents) {
    const std::string d = cfg.tmpDir + "/";
    o.jobs = 1;
    o.manualClockStepUs = 1;
    o.statsJsonPath = d + "stats.json";
    o.manifestPath = d + "manifest.json";
    if (ckpt) {
      o.checkpointPath = d + "ckpt.json";
      o.checkpointEverySteps = cfg.checkpointEvery;
    }
    if (events) o.eventsPath = d + "events.jsonl";
  }
  return o;
}

std::string assembleImageText(const std::string& isa, const std::string& asmText) {
  const auto model = adlsym::isa::loadIsa(isa);
  adlsym::DiagEngine diags;
  const auto image = adlsym::asmgen::Assembler(*model).assemble(asmText, diags);
  if (!image) throw adlsym::Error("assembly failed for " + isa + ":\n" + diags.str());
  return image->serialize();
}

namespace {

// Solver microseconds reported on this thread so far: the listener adds to
// the calling thread's counter, so an executor call can tell how much of
// its own wall went to queries it issued.
thread_local uint64_t tlSmtUs = 0;

/// Counts every query (thread-safe: parallel workers share one instance)
/// and forwards to the run's own listener, if any.
class CountingListener final : public smt::QueryListener {
 public:
  explicit CountingListener(smt::QueryListener* next) : next_(next) {}

  void onCheck(const std::vector<smt::TermRef>& permanent,
               const std::vector<smt::TermRef>& assumptions,
               smt::CheckResult result, uint64_t micros, bool cached) override {
    queries.fetch_add(1, std::memory_order_relaxed);
    if (cached) hits.fetch_add(1, std::memory_order_relaxed);
    if (result == smt::CheckResult::Unknown) unknown.fetch_add(1, std::memory_order_relaxed);
    us.fetch_add(micros, std::memory_order_relaxed);
    tlSmtUs += micros;
    if (next_ != nullptr) next_->onCheck(permanent, assumptions, result, micros, cached);
  }

  std::atomic<uint64_t> queries{0}, hits{0}, unknown{0}, us{0};

 private:
  smt::QueryListener* next_;
};

struct ExecTally {
  std::mutex mu;
  uint64_t calls = 0, retired = 0, successors = 0;
  double busyUs = 0, smtInsideUs = 0;
};

/// Decorator over the real executor: times each step/stepMany call and
/// counts retired instructions and successors. One instance per worker;
/// its totals land in the shared tally when the worker is destroyed.
class TracedExecutor final : public core::Executor {
 public:
  TracedExecutor(std::unique_ptr<core::Executor> inner, ExecTally& tally)
      : inner_(std::move(inner)), tally_(tally) {}
  ~TracedExecutor() override {
    std::lock_guard<std::mutex> lk(tally_.mu);
    tally_.calls += calls_;
    tally_.retired += retired_;
    tally_.successors += successors_;
    tally_.busyUs += busyUs_;
    tally_.smtInsideUs += static_cast<double>(smtInsideUs_);
  }
  TracedExecutor(const TracedExecutor&) = delete;
  TracedExecutor& operator=(const TracedExecutor&) = delete;

  std::string name() const override { return inner_->name(); }
  core::MachineState initialState() override { return inner_->initialState(); }
  void step(const core::MachineState& in, core::StepOut& out) override {
    timed([&] { inner_->step(in, out); }, out);
  }
  void stepMany(const core::MachineState& in, core::StepOut& out,
                uint64_t fuel) override {
    timed([&] { inner_->stepMany(in, out, fuel); }, out);
  }
  void setRtlProfile(core::RtlProfile* p) override { inner_->setRtlProfile(p); }
  void flushRtlProfile() override { inner_->flushRtlProfile(); }

 private:
  template <typename Fn>
  void timed(Fn&& fn, core::StepOut& out) {
    const uint64_t smt0 = tlSmtUs;
    const double t0 = nowUs();
    fn();
    busyUs_ += nowUs() - t0;
    smtInsideUs_ += tlSmtUs - smt0;
    ++calls_;
    retired_ += out.retired;
    successors_ += out.successors.size();
  }

  std::unique_ptr<core::Executor> inner_;
  ExecTally& tally_;
  uint64_t calls_ = 0, retired_ = 0, successors_ = 0, smtInsideUs_ = 0;
  double busyUs_ = 0;
};

// Decodable instructions in the image's code sections: the coverage
// denominator cmdExplore hands the event bus.
uint64_t countCodePcs(const adlsym::adl::ArchModel& model,
                      const adlsym::loader::Image& image) {
  adlsym::decode::Decoder decoder(model);
  uint64_t total = 0;
  for (const adlsym::loader::Section& s : image.sections()) {
    if (s.writable) continue;
    for (uint64_t addr = s.base; addr < s.end();) {
      const adlsym::decode::DecodedInsn* d = decoder.decodeAt(image, addr);
      if (d == nullptr) {
        ++addr;
        continue;
      }
      ++total;
      addr += d->lengthBytes;
    }
  }
  return total;
}

uint64_t fileSize(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

void addSolverStats(LayerTally& t, const smt::SolverTelemetry& s) {
  t.preConsulted += s.preConsulted;
  t.preDecided += s.preSat + s.preUnsat;
  t.blastTerms += s.blast.termsBlasted;
  t.blastGates += s.blast.gates;
  t.satConflicts += s.satCore.conflicts;
  t.satPropagations += s.satCore.propagations;
}

}  // namespace

RunCounts runLibrary(const Job& job, const RunConfig& cfg, LayerTally& t,
                     bool traced) {
  const double tStart = nowUs();
  double t0 = tStart;
  auto lap = [&t0](double& into) {
    const double t1 = nowUs();
    into += t1 - t0;
    t0 = t1;
  };

  const auto model = adlsym::isa::loadIsa(job.isa);
  lap(t.loadUs);
  adlsym::DiagEngine diags;
  const auto image = adlsym::asmgen::Assembler(*model).assemble(job.asmText, diags);
  if (!image) throw adlsym::Error("assembly failed:\n" + diags.str());
  lap(t.assembleUs);

  core::EngineConfig engineCfg;
  core::ExplorerConfig ecfg;
  ecfg.maxPaths = kMaxPaths;
  ecfg.maxTotalSteps = kMaxSteps;
  ExecTally execTally;
  RunCounts counts;
  smt::SolverTelemetry solverTel;
  core::ExploreSummary summary;
  double exploreUs = 0;
  double unattributed = 0;  // solver and engine wiring
  double runSmtUs = 0;      // this run's solver time, when measurable

  if (cfg.jobs == 0 && !cfg.ckptEvents) {
    smt::TermManager tm;
    smt::SmtSolver solver(tm);
    solver.setConflictBudget(kConflictBudget);
    smt::PreSolver presolver(tm);
    solver.setPreSolver(&presolver);
    CountingListener listener(nullptr);
    if (traced) solver.addQueryListener(&listener);
    core::EngineServices svc(tm, solver, *image, engineCfg, nullptr);
    lap(unattributed);
    std::unique_ptr<core::Executor> exec =
        std::make_unique<core::BytecodeExecutor>(*model, svc);
    lap(t.compileUs);
    if (traced) exec = std::make_unique<TracedExecutor>(std::move(exec), execTally);
    core::Explorer explorer(*exec, svc, ecfg);
    summary = explorer.run();
    lap(exploreUs);
    exec.reset();  // lands the decorator's totals
    solverTel = solver.telemetrySnapshot();
    counts.queries = traced ? listener.queries.load() : solverTel.queries;
    if (traced) {
      t.smtQueries += listener.queries;
      t.smtHits += listener.hits;
      t.smtUnknown += listener.unknown;
      runSmtUs = static_cast<double>(listener.us);
    }
  } else {
    const bool ck = cfg.ckptEvents;
    const ExploreOptions opt = cliOptions(cfg);
    std::unique_ptr<telemetry::ManualClock> clock;
    std::unique_ptr<telemetry::Telemetry> tel;
    if (ck) {
      clock = std::make_unique<telemetry::ManualClock>(opt.manualClockStepUs);
      tel = std::make_unique<telemetry::Telemetry>(*clock);
    }
    // The checkpoint and event files of the rebuilt pipeline sit next to
    // the CLI's, under their own names.
    const std::string evPath = cfg.tmpDir + "/lib-events.jsonl";
    const std::string ckPath = cfg.tmpDir + "/lib-ckpt.json";
    std::ofstream evFile;
    std::unique_ptr<obs::EventBus> bus;
    std::unique_ptr<obs::SiteStatsCollector> sites;
    core::LockedObserverMux mux;
    if (ck) {
      evFile.open(evPath, std::ios::binary | std::ios::trunc);
      if (!evFile) throw adlsym::Error("cannot open " + evPath);
      obs::EventBusOptions bopt;
      bopt.snapshotEverySteps = opt.eventsSnapshotEvery;
      bopt.codePcs = countCodePcs(*model, *image);
      bus = std::make_unique<obs::EventBus>(evFile, tel.get(), bopt);
      sites = std::make_unique<obs::SiteStatsCollector>(*model, *image);
      mux.add(bus.get());
      mux.add(sites.get());
    }
    CountingListener listener(bus.get());
    smt::QueryCache qcache(opt.qcacheCapacity);

    core::ParallelConfig pcfg;
    pcfg.base = ecfg;
    if (!mux.empty()) pcfg.base.observer = &mux;
    pcfg.jobs = static_cast<unsigned>(opt.jobs);
    pcfg.manualClockStepUs = opt.manualClockStepUs;
    pcfg.qcache = &qcache;
    pcfg.prefilter = opt.prefilterOn;
    pcfg.solverConflictBudget = kConflictBudget;
    pcfg.queryListener =
        traced ? static_cast<smt::QueryListener*>(&listener) : bus.get();
    uint64_t ckptWrites = 0, ckptBytes = 0;
    if (ck) {
      pcfg.checkpointEverySteps = opt.checkpointEverySteps;
      pcfg.checkpointPath = ckPath;
      pcfg.ckptIsa = job.isa;
      pcfg.ckptStrategy = opt.strategy;
      pcfg.ckptImageSha = adlsym::hash::sha256Hex(image->serialize());
      std::filesystem::remove(ckPath);
      // Same extra sections cmdExplore writes (sites + event watermark),
      // so the checkpoints carry the same bytes of state.
      obs::SiteStatsCollector* sitesPtr = sites.get();
      obs::EventBus* busPtr = bus.get();
      pcfg.ckptExtras = [&, sitesPtr, busPtr](adlsym::json::Writer& w,
                                              const core::ParallelConfig::CkptInfo& info) {
        // The file on disk still holds the previous write.
        if (ckptWrites++ != 0) ckptBytes += fileSize(ckPath);
        w.key("sites");
        sitesPtr->writeCkptJson(w);
        busPtr->flush();
        evFile.flush();
        const std::string bytes = adlsym::support::readFileBytes(evPath);
        std::istringstream in(bytes);
        std::ostringstream canon;
        obs::canonicalizeEvents(in, canon);
        obs::EventBus::CkptGauges g;
        g.steps = info.steps;
        g.frontier = info.frontier;
        g.frontierBytes = info.frontierBytes;
        g.pathsDone = info.pathsDone;
        g.covered = info.coveredPcs;
        g.queries = info.solverQueries;
        g.cacheHits = info.cacheHits;
        g.solverMicros = info.solverMicros;
        w.key("events").beginObject();
        w.kv("offset", static_cast<uint64_t>(bytes.size()));
        w.kv("canon_sha256", std::string_view(adlsym::hash::sha256Hex(canon.str())));
        w.key("bus");
        busPtr->writeCkptJson(w, g);
        w.endObject();
      };
    }
    lap(unattributed);

    double compileInRun = 0;
    const adlsym::adl::ArchModel& m = *model;
    core::ParallelExplorer pex(
        *image, engineCfg, pcfg,
        [&](core::EngineServices& svc) -> std::unique_ptr<core::Executor> {
          const double c0 = nowUs();
          std::unique_ptr<core::Executor> ex =
              std::make_unique<core::BytecodeExecutor>(m, svc);
          compileInRun += nowUs() - c0;
          if (traced) ex = std::make_unique<TracedExecutor>(std::move(ex), execTally);
          return ex;
        },
        tel.get());
    if (bus) {
      obs::EventBus::RunMeta rm;
      rm.command = "explore";
      rm.isa = job.isa;
      rm.strategy = opt.strategy;
      bus->runBegin(rm);
    }
    core::ParallelResult pres = pex.run();
    if (bus) {
      bus->runEnd(pres.summary, pex.solverTelemetry(), 0);
      bus->flush();
      evFile.close();
    }
    lap(exploreUs);
    summary = std::move(pres.summary);
    solverTel = pex.solverTelemetry();
    counts.queries = traced ? listener.queries.load() : solverTel.queries;
    t.compileUs += compileInRun;
    t.compileInExploreUs += compileInRun;
    if (traced) {
      t.smtQueries += listener.queries;
      t.smtHits += listener.hits;
      t.smtUnknown += listener.unknown;
      // Under the manual clock the listener's micros are work units, not
      // time; the solver's wall then stays inside the explorer's self time.
      if (!ck) runSmtUs = static_cast<double>(listener.us);
      const auto qs = qcache.stats();
      t.qcacheHits += qs.hits;
      t.qcacheMisses += qs.misses;
      t.qcacheInflightWaits += qs.inflightWaits;
      const auto& ps = pex.poolStats();
      t.poolSteals += ps.steals;
      t.poolStealWaitUs += ps.stealWaitMicros;
      t.poolMinSteps += ps.minWorkerSteps;
      t.poolMaxSteps += ps.maxWorkerSteps;
      t.poolCapacityUs += static_cast<double>(ps.jobs) * (exploreUs - compileInRun);
      t.jobs = ps.jobs;
      if (ck) {
        ckptBytes += fileSize(ckPath);
        t.ckptWrites += ckptWrites;
        t.ckptBytes += ckptBytes;
        const std::string ev = adlsym::support::readFileBytes(evPath);
        t.eventsBytes += ev.size();
        t.eventsLines += static_cast<uint64_t>(std::count(ev.begin(), ev.end(), '\n'));
      }
    }
  }

  counts.paths = summary.paths.size();
  counts.steps = summary.totalSteps;
  t.pipelineWallUs += nowUs() - tStart;
  t.exploreWallUs += exploreUs;
  if (traced) {
    const double smtInside = cfg.ckptEvents ? 0.0 : execTally.smtInsideUs;
    t.smtUs += runSmtUs;
    t.execCalls += execTally.calls;
    t.execRetired += execTally.retired;
    t.execSuccessors += execTally.successors;
    t.execBusyUs += execTally.busyUs;
    t.smtInsideExecUs += smtInside;
    // Worker busy: inside executor calls, plus solver time outside them.
    t.poolBusyUs += execTally.busyUs + (runSmtUs - smtInside);
    t.paths += summary.paths.size();
    t.forks += summary.totalForks;
    addSolverStats(t, solverTel);
  }
  return counts;
}

}  // namespace adlbench
