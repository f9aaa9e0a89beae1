#include "driver/cli.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/lint.h"
#include "asmgen/assembler.h"
#include "asmgen/disasm.h"
#include "core/checkpoint.h"
#include "core/pexplorer.h"
#include "core/rtlc.h"
#include "core/rtlprofile.h"
#include "core/testgen.h"
#include "decode/decoder.h"
#include "driver/session.h"
#include "isa/registry.h"
#include "obs/events.h"
#include "obs/manifest.h"
#include "obs/pathforest.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/querylog.h"
#include "obs/replay.h"
#include "obs/sitestats.h"
#include "smt/presolver.h"
#include "smt/qcache.h"
#include "support/atomicio.h"
#include "support/error.h"
#include "support/fault.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/strings.h"
#include "support/telemetry.h"

namespace adlsym::driver::cli {

namespace {

/// Bad input (usage, unknown names, malformed values): exit code 2, per
/// the exit-code table in docs/robustness.md.
CommandResult fail(std::string msg) {
  return CommandResult{2, std::move(msg) + "\n"};
}

/// Writes one output artifact: one `obs.write` fault hit, a truncating
/// open, then `write(out)`. Returns "" on success (or when `path` is
/// empty, the flag not given) and the error message when the file cannot
/// be opened.
template <typename Fn>
std::string writeArtifact(const std::string& path, const char* what,
                          Fn write) {
  if (path.empty()) return "";
  fault::hit("obs.write");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return "cannot open " + std::string(what) + " file '" + path + "'";
  write(out);
  return "";
}

/// Per-command telemetry plumbing for the --stats-json flag: owns the
/// bundle. `get()` is null when the flag was not given (and no manual
/// clock was requested), so the engine stays on its zero-cost path.
class CommandTelemetry {
 public:
  /// `manualClockStepUs` > 0 swaps the system clock for a ManualClock so
  /// every recorded duration is deterministic (byte-identical stats
  /// documents across runs).
  explicit CommandTelemetry(const std::string& statsJsonPath,
                            uint64_t manualClockStepUs = 0)
      : statsJsonPath_(statsJsonPath) {
    if (manualClockStepUs != 0) {
      clock_ = std::make_unique<telemetry::ManualClock>(manualClockStepUs);
      tel_ = std::make_unique<telemetry::Telemetry>(*clock_);
    } else if (!statsJsonPath.empty()) {
      tel_ = std::make_unique<telemetry::Telemetry>();
    }
  }

  telemetry::Telemetry* get() { return tel_.get(); }
  bool wantsStatsJson() const { return !statsJsonPath_.empty(); }
  /// Non-null iff --clock=manual: --resume advances it to the
  /// checkpoint's recorded clock position before any component reads it.
  telemetry::ManualClock* manualClock() { return clock_.get(); }

  /// Write the aggregated stats document. `writeBody` fills the
  /// command-specific objects of the already-open top-level object.
  template <typename Fn>
  void writeStatsJson(const std::string& command, const std::string& isa,
                      Fn writeBody) {
    const std::string err =
        writeArtifact(statsJsonPath_, "stats", [&](std::ostream& out) {
          json::Writer w(out);
          w.beginObject();
          w.kv("schema", telemetry::kStatsSchema);
          w.kv("command", std::string_view(command));
          w.kv("isa", std::string_view(isa));
          writeBody(w);
          w.key("metrics");
          tel_->metrics().writeJson(w);
          w.endObject();
          out << '\n';
        });
    if (!err.empty()) throw InputError(err);
  }

 private:
  std::string statsJsonPath_;
  std::unique_ptr<telemetry::ManualClock> clock_;
  std::unique_ptr<telemetry::Telemetry> tel_;
};

loader::Image parseImageArg(const std::string& imageText) {
  return loader::Image::deserialize(imageText);
}

std::string readFileOrThrow(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw InputError("cannot open file '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Decodable instruction count over the image's non-writable sections —
/// the coverage-percent denominator for heartbeats and snapshot events
/// (the same decoder walk `--coverage` renders).
uint64_t countCodePcs(const adl::ArchModel& model, const loader::Image& image) {
  decode::Decoder decoder(model);
  uint64_t total = 0;
  for (const loader::Section& s : image.sections()) {
    if (s.writable) continue;
    uint64_t addr = s.base;
    while (addr < s.end()) {
      const decode::DecodedInsn* d = decoder.decodeAt(image, addr);
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

/// --events / --manifest plumbing shared by both engine paths: owns the
/// event stream file and the flight recorder, and assembles the run
/// manifest at the end.
struct FlightRecorder {
  std::ofstream file;
  std::unique_ptr<obs::EventBus> bus;
  uint64_t codePcs = 0;

  /// Throws adlsym::InputError when the events file cannot be opened.
  /// `append` (--resume) keeps the spliced stream prefix and continues
  /// after it instead of truncating.
  void open(const ExploreOptions& opt, const adl::ArchModel& model,
            const loader::Image& image, telemetry::Telemetry* tel,
            bool append = false) {
    if (opt.eventsPath.empty() && opt.manifestPath.empty() &&
        opt.progressSeconds <= 0.0) {
      return;
    }
    codePcs = countCodePcs(model, image);
    if (opt.eventsPath.empty()) return;
    std::ostream* os = &std::cout;
    if (opt.eventsPath != "-") {
      fault::hit("obs.write");
      file.open(opt.eventsPath, std::ios::binary |
                                    (append ? std::ios::app : std::ios::trunc));
      if (!file) {
        throw InputError("cannot open events file '" + opt.eventsPath + "'");
      }
      os = &file;
    }
    obs::EventBusOptions bopt;
    bopt.snapshotEverySteps = opt.eventsSnapshotEvery;
    bopt.maxFrontier = opt.maxFrontier;
    bopt.memBudgetBytes = opt.memBudgetMb * 1024 * 1024;
    bopt.codePcs = codePcs;
    bus = std::make_unique<obs::EventBus>(*os, tel, bopt);
  }

  /// Emit run_begin. On --resume (`resumeDoc` set) adopt the checkpoint's
  /// watermarks instead: the spliced stream prefix already carries the
  /// run_begin event.
  void runBegin(const std::string& isaName, const ExploreOptions& opt,
                const json::Value* resumeDoc = nullptr) {
    if (!bus) return;
    obs::EventBus::RunMeta rm;
    rm.command = opt.profileStdout ? "profile" : "explore";
    rm.isa = isaName;
    rm.strategy = opt.strategy;
    rm.program = opt.programLabel;
    if (resumeDoc != nullptr) {
      bus->resumeRun(
          rm, core::ckpt::field(core::ckpt::field(*resumeDoc, "events"), "bus"));
    } else {
      bus->runBegin(rm);
    }
  }

  /// Close the stream so the manifest hashes the final bytes.
  void close() {
    if (bus) bus->flush();
    if (file.is_open()) file.close();
  }

  /// The stats document's "events" block (always present for explore:
  /// {"enabled":false} when the recorder is off).
  void writeStatsJson(json::Writer& w) const {
    w.key("events");
    if (bus) {
      bus->writeStatsJson(w);
    } else {
      w.beginObject();
      w.kv("enabled", false);
      w.endObject();
    }
  }
};

/// Every subcommand's flag values: the option table's rows point into it.
/// `explore` and `profile` take the ExploreOptions part; lint, run, tail
/// and `events summarize` copy out the fields they read.
struct AllOptions : ExploreOptions {
  bool lintJson = false;        // lint --format
  bool werror = false;          // lint --werror
  bool noFollow = false;        // tail --no-follow
  double maxWaitSeconds = 0.0;  // tail --max-wait
  std::string statsPath;        // events summarize --stats
};

/// How a flag's value is read (docs/cli.md, "Spelling").
enum Kind : uint8_t {
  kSwitch,   // no value: sets `on`
  kCount,    // an integer in [min, max] into `count`
  kSeconds,  // finite seconds in (0, 1e9] into `seconds`
  kPath,     // a non-empty path into `text`
  kChoice,   // one of `words`: the word into `text`, its index != 0 into
             // `on`; with a `count`, a number sets `count` and `on`, and
             // a word resets `count` to 0
  kText,     // any word into `text`, checked where it is used
};

/// The subcommands a flag belongs to.
enum Cmd : uint8_t {
  kLint = 1, kRun = 2, kExplore = 4, kTail = 8, kEvents = 16
};

/// One row of the option table.
struct Flag {
  const char* name;
  Kind kind;
  uint8_t cmds = kExplore;
  bool AllOptions::*on = nullptr;
  uint64_t AllOptions::*count = nullptr;
  double AllOptions::*seconds = nullptr;
  std::string AllOptions::*text = nullptr;
  uint64_t min = 0, max = UINT64_MAX;  // min > 0 rejects 0
  const char* words = nullptr;         // '|'-separated
  /// The bare flag's value; a flag with one takes another only attached.
  const char* bare = nullptr;
  const char* value = nullptr;     // usage()'s value name, if not the kind's
  const char* artifact = nullptr;  // the path's role in the run manifest
  const char* help = "";
};

using O = AllOptions;
/// The one option table: the parser, usage() and the run manifest read
/// it. The manifest lists artifact paths in table order.
constexpr Flag kFlags[] = {
    {.name = "--format", .kind = kChoice, .cmds = kLint, .on = &O::lintJson,
     .words = "text|json", .help = "output rendering (default text)"},
    {.name = "--werror", .kind = kSwitch, .cmds = kLint, .on = &O::werror,
     .help = "warning findings also fail the exit code"},
    {.name = "--strategy", .kind = kChoice, .text = &O::strategy,
     .words = "dfs|bfs|random|coverage", .help = "search order (default dfs)"},
    {.name = "--max-paths", .kind = kCount, .count = &O::maxPaths,
     .help = "completed-path budget (default 10000)"},
    {.name = "--max-steps", .kind = kCount, .count = &O::maxTotalSteps,
     .help = "total instruction budget (default 1000000)"},
    {.name = "--first-defect", .kind = kSwitch, .on = &O::stopAtFirstDefect,
     .help = "stop at the first defect"},
    {.name = "--merge", .kind = kSwitch, .on = &O::mergeStates,
     .help = "veritesting state merging"},
    {.name = "--coverage", .kind = kSwitch, .on = &O::coverageReport,
     .help = "per-instruction coverage report"},
    {.name = "--lint", .kind = kSwitch, .on = &O::lint,
     .help = "lint model and image first; errors abort"},
    {.name = "--prefilter", .kind = kChoice, .on = &O::prefilterOn,
     .words = "off|on", .help = "abstract pre-solver (default on)"},
    {.name = "--engine", .kind = kChoice, .text = &O::engine,
     .words = "bytecode|interp", .help = "ADL engine (default bytecode)"},
    {.name = "--jobs", .kind = kCount, .count = &O::jobs, .min = 1, .max = 64,
     .help = "parallel engine with N worker threads"},
    {.name = "--qcache", .kind = kChoice, .on = &O::qcacheOn,
     .count = &O::qcacheCapacity, .min = 1, .words = "off|on",
     .help = "parallel engine's shared query cache (N = capacity)"},
    {.name = "--max-frontier", .kind = kCount, .count = &O::maxFrontier,
     .min = 1, .help = "frontier cap; evicted states end truncated"},
    {.name = "--mem-budget-mb", .kind = kCount, .count = &O::memBudgetMb,
     .min = 1, .help = "approximate state+term byte budget in MiB"},
    {.name = "--solver-timeout-ms", .kind = kCount,
     .count = &O::solverTimeoutMs,
     .help = "per-query solver deadline (0 = none)"},
    {.name = "--max-wall-ms", .kind = kCount, .count = &O::maxWallMs,
     .help = "whole-run wall budget (0 = none)"},
    {.name = "--inject", .kind = kText, .text = &O::injectSpec,
     .value = "SITE:N[,..]", .help = "fire a fault site on its Nth hit"},
    {.name = "--clock=manual", .kind = kCount, .count = &O::manualClockStepUs,
     .min = 1, .bare = "1", .value = "US",
     .help = "deterministic clock, US microseconds per read"},
    {.name = "--stats-json", .kind = kPath, .cmds = kLint | kRun | kExplore,
     .text = &O::statsJsonPath, .artifact = "stats",
     .help = "aggregated JSON stats document"},
    {.name = "--path-forest", .kind = kPath, .text = &O::pathForestPath,
     .artifact = "forest", .help = "path forest as adlsym-pathforest-v1 JSON"},
    {.name = "--path-dot", .kind = kPath, .text = &O::pathDotPath,
     .artifact = "forest_dot", .help = "path forest as Graphviz DOT"},
    {.name = "--query-log", .kind = kPath, .text = &O::queryLogDir,
     .value = "<dir>", .help = "every solver query as SMT-LIB (adlsym replay)"},
    {.name = "--progress", .kind = kSeconds, .seconds = &O::progressSeconds,
     .bare = "1", .help = "heartbeat on stderr every S seconds"},
    {.name = "--profile", .kind = kPath, .text = &O::profilePath,
     .artifact = "profile", .help = "adlsym-profile-v2 cost attribution"},
    {.name = "--profile-folded", .kind = kPath, .text = &O::profileFoldedPath,
     .artifact = "profile_folded", .help = "collapsed stacks for flamegraphs"},
    {.name = "--events", .kind = kPath, .text = &O::eventsPath,
     .value = "<file|->", .artifact = "events",
     .help = "adlsym-events-v1 event stream (- = stdout)"},
    {.name = "--events-snapshot", .kind = kCount,
     .count = &O::eventsSnapshotEvery,
     .help = "snapshot every N step events (0 = never)"},
    {.name = "--manifest", .kind = kPath, .text = &O::manifestPath,
     .help = "adlsym-run-v1 manifest of every artifact"},
    {.name = "--checkpoint", .kind = kPath, .text = &O::checkpointPath,
     .artifact = "checkpoint",
     .help = "adlsym-ckpt-v1 checkpoint; needs --clock=manual"},
    {.name = "--checkpoint-every", .kind = kCount,
     .count = &O::checkpointEverySteps,
     .help = "checkpoint cadence in per-path steps (0 = at the end)"},
    {.name = "--resume", .kind = kPath, .text = &O::resumePath,
     .help = "continue a checkpointed run"},
    {.name = "--no-follow", .kind = kSwitch, .cmds = kTail, .on = &O::noFollow,
     .help = "render the stream once and exit"},
    {.name = "--max-wait", .kind = kSeconds, .cmds = kTail,
     .seconds = &O::maxWaitSeconds,
     .help = "give up after S seconds without run_end"},
    {.name = "--stats", .kind = kPath, .cmds = kEvents, .text = &O::statsPath,
     .help = "cross-check against the run's stats document"},
};

/// What separates a flag's name from an attached value: '=', or ':' for a
/// name that already holds one (`--clock=manual:US`).
char separator(const Flag& f) {
  return std::strchr(f.name, '=') != nullptr ? ':' : '=';
}

/// A count-valued option: a non-negative integer (parseInt alone would
/// read "-5" as 2^64-5) in [min, max], where `min` keeps the flag's rule
/// for 0. Throws adlsym::InputError (exit 2) on anything else.
uint64_t parseCount(const std::string& flag, std::string_view text,
                    uint64_t min, uint64_t max) {
  const auto v = trim(text).starts_with('-') ? std::nullopt : parseInt(text);
  if (!v || *v < min || *v > max) {
    std::string msg = "bad " + flag + " value '" + std::string(text) + "'";
    if (max != UINT64_MAX) {
      msg += " (want " + std::to_string(min) + ".." + std::to_string(max) + ")";
    }
    throw InputError(msg);
  }
  return *v;
}

/// A seconds-valued option: a finite number in (0, 1e9] (about 31
/// years). Throws adlsym::InputError (exit 2) on anything else, NaN and
/// infinities included.
double parseSeconds(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !(v > 0.0 && v <= 1e9)) {
    throw InputError("bad " + flag + " value '" + text +
                     "' (want seconds in (0, 1e9])");
  }
  return v;
}

/// Stores `value` for `f` into `o` by the row's kind. Throws
/// adlsym::InputError (exit 2) on a bad value; `cmd` names the subcommand
/// in the message for a word a Choice does not list.
void storeValue(const Flag& f, const std::string& value, AllOptions& o,
                const std::string& cmd) {
  const std::string name = f.name;
  switch (f.kind) {
    case kSwitch: o.*f.on = true; return;
    case kCount: o.*f.count = parseCount(name, value, f.min, f.max); return;
    case kSeconds: o.*f.seconds = parseSeconds(name, value); return;
    case kPath:
      if (value.empty()) throw InputError("empty path for " + name);
      [[fallthrough]];
    case kText: o.*f.text = value; return;
    case kChoice: {
      const std::vector<std::string> words = splitString(f.words, '|');
      const auto w = std::find(words.begin(), words.end(), value);
      if (w != words.end()) {
        if (f.on != nullptr) o.*f.on = w != words.begin();
        if (f.text != nullptr) o.*f.text = value;
        if (f.count != nullptr) o.*f.count = 0;
      } else if (f.count != nullptr) {
        o.*f.count = parseCount(name, value, f.min, f.max);
        o.*f.on = true;
      } else {
        throw InputError("unknown " + cmd + " option '" + name + "=" + value +
                         "' (" + name + " takes " + f.words + ")");
      }
      return;
    }
  }
}

/// The one argument loop: parses args[first..] for subcommand `cmd` (a
/// Cmd bit) into `o` and returns the words not starting with "--" in
/// order. Throws adlsym::InputError (exit 2) on an unknown flag, a
/// missing value or a bad one.
std::vector<std::string> parseArgs(const std::vector<std::string>& args,
                                   size_t first, uint8_t cmd, AllOptions& o) {
  std::vector<std::string> pos;
  for (size_t i = first; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!arg.starts_with("--")) {
      pos.push_back(arg);
      continue;
    }
    const Flag* f = std::find_if(
        std::begin(kFlags), std::end(kFlags), [&](const Flag& row) {
          const size_t n = std::strlen(row.name);
          return (row.cmds & cmd) != 0 && arg.starts_with(row.name) &&
                 (arg.size() == n ||
                  (row.kind != kSwitch && arg[n] == separator(row)));
        });
    if (f == std::end(kFlags)) {
      throw InputError("unknown " + args[0] + " option '" + arg + "'");
    }
    std::string value;
    if (arg.size() > std::strlen(f->name)) {
      value = arg.substr(std::strlen(f->name) + 1);
    } else if (f->bare != nullptr) {
      value = f->bare;
    } else if (f->kind != kSwitch) {
      if (i + 1 == args.size()) throw InputError("missing value for " + arg);
      value = args[++i];
    }
    storeValue(*f, value, o, args[0]);
  }
  return pos;
}

/// Write the adlsym-run-v1 manifest recording every artifact this run
/// produced (the table's rows with an artifact role). Called after all
/// artifact streams are closed; throws adlsym::InputError (exit 2) when
/// an artifact is unreadable or the manifest path is unwritable.
void writeRunManifest(const std::string& isaName, const ExploreOptions& opt) {
  if (opt.manifestPath.empty()) return;
  fault::hit("obs.write");
  obs::RunManifest man;
  man.command = opt.profileStdout ? "profile" : "explore";
  man.isa = isaName;
  man.strategy = opt.strategy;
  man.program = opt.programLabel;
  man.argv = opt.argvEcho;
  for (const Flag& f : kFlags) {
    if (f.artifact == nullptr) continue;
    // Every artifact row names an ExploreOptions field, so the cast back
    // to the base's member pointer is exact.
    const std::string& path =
        opt.*static_cast<std::string ExploreOptions::*>(f.text);
    if (path != "-") man.addArtifact(f.artifact, path);
  }
  man.writeFile(opt.manifestPath);
}

/// --resume events splice: check that the first `offset` bytes of the
/// events file canonicalize to the hash the checkpoint recorded, then cut
/// the file back to that offset so the resumed run appends exactly where
/// the checkpointed run left off. Bytes past the offset were written
/// after the checkpoint (the killed run's doomed suffix) and are
/// discarded.
void spliceEventsFile(const std::string& path, const json::Value& ev,
                      const std::string& resumePath) {
  const uint64_t offset = core::ckpt::fieldU64(ev, "offset");
  const std::string want = core::ckpt::fieldStr(ev, "canon_sha256");
  std::string bytes = support::readFileBytes(path);
  if (bytes.size() < offset) {
    throw InputError("events file '" + path + "' is shorter (" +
                     std::to_string(bytes.size()) + " bytes) than the " +
                     std::to_string(offset) +
                     "-byte prefix checkpoint " + resumePath +
                     " recorded — wrong events file?");
  }
  bytes.resize(offset);
  std::istringstream in(bytes);
  std::ostringstream canon;
  obs::canonicalizeEvents(in, canon);
  const std::string got = hash::sha256Hex(canon.str());
  if (got != want) {
    throw InputError("events file '" + path +
                     "' does not match checkpoint " + resumePath +
                     " (canonical prefix hash " + got + ", checkpoint has " +
                     want + ")");
  }
  std::filesystem::resize_file(path, offset);
}

}  // namespace

std::string usage() {
  std::string u =
      "adlsym — ADL-based retargetable symbolic execution\n"
      "\n"
      "usage:\n"
      "  adlsym isas                                list shipped ISAs\n"
      "  adlsym model <isa>                         dump the ISA model\n"
      "  adlsym lint <isa|file.adl> [file.img]      verify a specification\n"
      "  adlsym asm <isa> <file.s>                  assemble to image text\n"
      "  adlsym disasm <isa> <file.img>             disassemble an image\n"
      "  adlsym run <isa> <file.img> [in...]        concrete execution\n"
      "  adlsym explore <isa> <file.img> [options]  symbolic exploration\n"
      "  adlsym profile <isa> <file.img> [options]  exploration + profile\n"
      "  adlsym replay <query-dir>                  re-solve a query corpus\n"
      "  adlsym tail <events-file>                  live run dashboard\n"
      "  adlsym events summarize <events-file>      reconcile stream counters\n"
      "  adlsym verify-run <manifest.json>          check a run's artifacts\n"
      "\n"
      "exit codes: 0 ok; 1 findings (defects, lint errors, replay\n"
      "mismatches); 2 bad input; 3 exploration truncated by a budget\n"
      "or stopped by a signal (partial results); 4 internal error /\n"
      "injected fault\n"
      "\n"
      "A flag's value follows '=' or comes as the next word; a [=value]\n"
      "in brackets comes only after '='. profile takes every explore\n"
      "option. docs/cli.md describes every flag.\n";
  constexpr std::pair<uint8_t, const char*> kSections[] = {
      {kLint, "lint"}, {kRun, "run"}, {kExplore, "explore"}, {kTail, "tail"},
      {kEvents, "events summarize"}};
  constexpr size_t kHelpColumn = 26;
  for (const auto& [cmd, title] : kSections) {
    u += std::string("\n") + title + " options:\n";
    for (const Flag& f : kFlags) {
      if ((f.cmds & cmd) == 0) continue;
      std::string line = std::string("  ") + f.name;
      if (f.kind != kSwitch) {
        std::string value = f.value != nullptr ? f.value
                            : f.kind == kChoice
                                ? std::string(f.words) + (f.count ? "|N" : "")
                            : f.kind == kCount   ? "N"
                            : f.kind == kSeconds ? "S"
                                                      : "<file>";
        value = separator(f) + value;
        line += f.bare != nullptr ? "[" + value + "]" : value;
      }
      line += line.size() < kHelpColumn
                  ? std::string(kHelpColumn - line.size(), ' ')
                  : "\n" + std::string(kHelpColumn, ' ');
      u += line + f.help + "\n";
    }
  }
  return u;
}

CommandResult cmdIsas() {
  std::ostringstream os;
  for (const std::string& name : isa::allIsaNames()) {
    auto model = isa::loadIsa(name);
    const auto st = model->stats();
    os << formatStr("%-8s %2u-bit %-6s  %2u insns  %u encodings  %u regs\n",
                    name.c_str(), model->wordSize,
                    model->endianLittle ? "little" : "big", st.numInsns,
                    st.numEncodings, st.numRegs);
  }
  return {0, os.str()};
}

CommandResult cmdModel(const std::string& isaName) {
  auto model = isa::loadIsa(isaName);
  std::ostringstream os;
  os << "arch " << model->name << ": wordsize " << model->wordSize << ", "
     << (model->endianLittle ? "little" : "big") << " endian\n\nstorage:\n";
  for (const auto& r : model->regs) {
    os << formatStr("  %-8s : %2u bits%s%s\n", r.name.c_str(), r.width,
                    r.isPC ? "  (pc)" : "", r.isFlag ? "  (flag)" : "");
  }
  if (model->regfile) {
    os << formatStr("  %s[%u]   : %2u bits", model->regfile->name.c_str(),
                    model->regfile->count, model->regfile->width);
    if (model->regfile->zeroReg) {
      os << formatStr("  (%s%u = 0)", model->regfile->name.c_str(),
                      *model->regfile->zeroReg);
    }
    os << '\n';
  }
  os << formatStr("  %-8s : byte[%u]\n", model->mem.name.c_str(),
                  model->mem.addrWidth);
  os << "\nencodings:\n";
  for (const auto& e : model->encodings) {
    os << formatStr("  %-8s %u bits:", e.name.c_str(), e.totalWidth);
    for (const auto& f : e.fields) {
      os << formatStr(" [%s:%u@%u]", f.name.c_str(), f.width, f.lo);
    }
    os << '\n';
  }
  os << "\ninstructions:\n";
  for (const auto& i : model->insns) {
    os << formatStr("  %-6s %u bytes  mask=%010llx match=%010llx  \"%s\"\n",
                    i.name.c_str(), i.lengthBytes,
                    static_cast<unsigned long long>(i.fixedMask),
                    static_cast<unsigned long long>(i.fixedMatch),
                    i.syntax.c_str());
  }
  return {0, os.str()};
}

CommandResult cmdLint(const std::string& subject, const std::string& adlSource,
                      const LintOptions& opt) {
  DiagEngine diags(subject);
  CommandTelemetry ct(opt.statsJsonPath);
  auto model = adl::loadArchModel(adlSource, diags);
  analysis::LintReport report;
  if (!model) {
    // Load failures become findings so JSON consumers see one schema.
    // Sema already emits "[ADL001] ..." for the defects it promotes;
    // re-parse that prefix so the finding keeps its real code.
    for (const Diagnostic& d : diags.all()) {
      analysis::Finding f;
      f.code = analysis::LintCode::ModelError;
      f.severity = d.severity;
      f.loc = d.loc;
      f.message = d.message;
      if (!d.message.empty() && d.message[0] == '[') {
        const size_t close = d.message.find(']');
        if (close != std::string::npos) {
          if (const auto code = analysis::lintCodeFromName(
                  d.message.substr(1, close - 1))) {
            f.code = *code;
            size_t start = close + 1;
            while (start < d.message.size() && d.message[start] == ' ') ++start;
            f.message = d.message.substr(start);
          }
        }
      }
      report.add(std::move(f));
    }
  } else {
    // Run the passes individually so --stats-json can attribute time to
    // each (lintModel() is exactly these three appends).
    telemetry::Telemetry* tel = ct.get();
    std::vector<analysis::Finding> findings;
    {
      telemetry::ScopedTimer t(
          tel, tel ? &tel->metrics().histogram("lint.decode_space_us") : nullptr);
      analysis::appendDecodeSpaceFindings(*model, findings);
    }
    {
      telemetry::ScopedTimer t(
          tel, tel ? &tel->metrics().histogram("lint.dataflow_us") : nullptr);
      analysis::appendDataflowFindings(*model, findings);
    }
    {
      telemetry::ScopedTimer t(
          tel, tel ? &tel->metrics().histogram("lint.absdom_us") : nullptr);
      analysis::appendAbsdomFindings(*model, findings);
    }
    for (analysis::Finding& f : findings) report.add(std::move(f));
    if (!opt.imageText.empty()) {
      telemetry::ScopedTimer t(
          tel, tel ? &tel->metrics().histogram("lint.cfg_us") : nullptr);
      report.append(analysis::lintImage(*model, parseImageArg(opt.imageText)));
    }
  }
  ct.writeStatsJson("lint", subject, [&](json::Writer& w) {
    w.key("lint").beginObject();
    w.kv("findings", static_cast<uint64_t>(report.findings().size()));
    w.kv("errors", report.count(Severity::Error));
    w.kv("warnings", report.count(Severity::Warning));
    w.kv("notes", report.count(Severity::Note));
    w.kv("clean", report.findings().empty());
    w.endObject();
  });
  const int exitCode = report.hasErrors(opt.werror) ? 1 : 0;
  return {exitCode,
          opt.json ? report.formatJson(subject) : report.formatText(subject)};
}

CommandResult cmdAsm(const std::string& isaName, const std::string& source) {
  auto model = isa::loadIsa(isaName);
  DiagEngine diags("<asm>");
  asmgen::Assembler assembler(*model);
  auto image = assembler.assemble(source, diags);
  if (!image) return fail(diags.str());
  return {0, image->serialize()};
}

CommandResult cmdDisasm(const std::string& isaName,
                        const std::string& imageText) {
  auto model = isa::loadIsa(isaName);
  const loader::Image image = parseImageArg(imageText);
  std::ostringstream os;
  for (const loader::Section& s : image.sections()) {
    os << "section " << s.name << ":\n";
    os << asmgen::disassembleSection(*model, image, s.name);
  }
  return {0, os.str()};
}

CommandResult cmdRun(const std::string& isaName, const std::string& imageText,
                     const std::vector<uint64_t>& inputs,
                     const RunOptions& ropt) {
  auto model = isa::loadIsa(isaName);
  const loader::Image image = parseImageArg(imageText);
  CommandTelemetry ct(ropt.statsJsonPath);
  const core::PathResult r = core::runConcrete(
      *model, image, core::EngineConfig{}, core::AdlEngineKind::Bytecode,
      inputs, core::kConcreteStepBudget, ct.get());
  const uint64_t exitCode = r.exitCode.value_or(0);
  ct.writeStatsJson("run", isaName, [&](json::Writer& w) {
    w.key("run").beginObject();
    w.kv("status", core::pathStatusName(r.status));
    w.kv("exit_code", exitCode);
    w.kv("steps", r.steps);
    w.kv("final_pc", r.finalPc);
    if (r.defect) w.kv("defect", core::defectKindName(r.defect->kind));
    w.key("outputs").beginArray();
    for (const uint64_t v : r.outputs) w.value(v);
    w.endArray();
    w.endObject();
  });
  std::ostringstream os;
  os << "status: " << core::pathStatusName(r.status);
  if (r.status == core::PathStatus::Exited) os << " (code " << exitCode << ")";
  if (r.defect) {
    os << formatStr(" %s at pc=0x%llx", core::defectKindName(r.defect->kind),
                    static_cast<unsigned long long>(r.defect->pc));
  }
  os << "\nsteps: " << r.steps << "\noutputs:";
  for (const uint64_t v : r.outputs) os << ' ' << v;
  os << '\n';
  return {r.status == core::PathStatus::Exited ? 0 : 1, os.str()};
}

CommandResult cmdExplore(const std::string& isaName,
                         const std::string& imageText,
                         const ExploreOptions& optIn) {
  // Checkpointing adjusts the effective options (it routes to the
  // parallel engine), so work on a copy.
  ExploreOptions opt = optIn;
  if (opt.checkpointEverySteps != 0 && opt.checkpointPath.empty()) {
    return fail("--checkpoint-every requires --checkpoint");
  }
  const bool ckptMode = !opt.checkpointPath.empty() || !opt.resumePath.empty();
  if (ckptMode) {
    // The kill/resume byte-identity contract (docs/robustness.md) is
    // defined on the deterministic clock and the parallel engine's
    // structural path keys; live/timing-coupled artifacts cannot be
    // spliced across a resume, so they are rejected up front.
    if (opt.jobs == 0) opt.jobs = 1;
    if (opt.manualClockStepUs == 0) {
      return fail("--checkpoint/--resume require --clock=manual");
    }
    if (opt.profileStdout || !opt.profilePath.empty() ||
        !opt.profileFoldedPath.empty()) {
      return fail("--checkpoint/--resume are not supported with profiling");
    }
    if (opt.progressSeconds > 0.0) {
      return fail("--checkpoint/--resume are not supported with --progress");
    }
    if (opt.eventsPath == "-") {
      return fail("--checkpoint/--resume need a seekable --events file, "
                  "not '-'");
    }
  }
  core::ExplorerConfig ecfg;
  if (opt.strategy == "dfs") ecfg.strategy = core::SearchStrategy::DFS;
  else if (opt.strategy == "bfs") ecfg.strategy = core::SearchStrategy::BFS;
  else if (opt.strategy == "random") ecfg.strategy = core::SearchStrategy::Random;
  else if (opt.strategy == "coverage") ecfg.strategy = core::SearchStrategy::Coverage;
  else return fail("unknown strategy '" + opt.strategy + "'");
  ecfg.maxPaths = opt.maxPaths;
  ecfg.maxTotalSteps = opt.maxTotalSteps;
  ecfg.stopAtFirstDefect = opt.stopAtFirstDefect;
  ecfg.mergeStates = opt.mergeStates;
  ecfg.maxFrontier = opt.maxFrontier;
  ecfg.memBudgetBytes = opt.memBudgetMb * 1024 * 1024;
  ecfg.maxWallSeconds = double(opt.maxWallMs) / 1e3;
  const core::EngineConfig engineCfg;

  // Fault schedule for this command only (support/fault.h); the guard
  // disarms on every exit path, including an injected throw.
  fault::ScopedArm faultArm(opt.injectSpec);

  // Session assembles from source; for a prebuilt image we drive the
  // layers directly, exactly like examples/newisa.cpp.
  auto model = isa::loadIsa(isaName);
  const loader::Image image = parseImageArg(imageText);
  std::string lintText;
  if (opt.lint) {
    analysis::LintReport report = analysis::lintModel(*model);
    report.append(analysis::lintImage(*model, image));
    if (!report.findings().empty()) lintText = report.formatText(isaName);
    if (report.hasErrors()) return {1, lintText};
  }
  const bool profiling = opt.profileStdout || !opt.profilePath.empty() ||
                         !opt.profileFoldedPath.empty();
  const core::AdlEngineKind engineKind = opt.engine == "interp"
                                             ? core::AdlEngineKind::Interp
                                             : core::AdlEngineKind::Bytecode;
  if (opt.jobs > 0) {
    // Name the flag that chose the parallel engine.
    const std::string parallelFlag = optIn.jobs > 0 ? "--jobs"
                                     : !opt.checkpointPath.empty()
                                         ? "--checkpoint"
                                         : "--resume";
    if (opt.mergeStates) {
      return fail("--merge is not supported with " + parallelFlag);
    }
    if (!opt.queryLogDir.empty()) {
      return fail("--query-log is not supported with " + parallelFlag);
    }
  } else if (!opt.qcacheOn || opt.qcacheCapacity != 0) {
    // The sequential engine keeps its solver-local cache; the shared
    // cache exists only in the parallel engine.
    return fail("--qcache needs the parallel engine "
                "(--jobs, --checkpoint or --resume)");
  }

  // ---- --resume: load + verify the checkpoint ------------------------
  // Checkpoints are written by the parallel engine only, which records
  // the image hash in them.
  const std::string imageSha = opt.jobs > 0 ? hash::sha256Hex(imageText) : "";
  const bool resuming = !opt.resumePath.empty();
  json::Value resumeDoc;
  if (resuming) {
    resumeDoc = core::ckpt::loadCheckpointFile(opt.resumePath);
    const auto expect = [&](const char* name, const std::string& want) {
      const std::string got = core::ckpt::fieldStr(resumeDoc, name);
      if (got != want) {
        throw InputError("checkpoint " + opt.resumePath + ": " + name +
                         " mismatch (checkpoint has '" + got +
                         "', this run is '" + want + "')");
      }
    };
    expect("isa", isaName);
    expect("strategy", opt.strategy);
    expect("image_sha256", imageSha);
    if (core::ckpt::fieldU64(resumeDoc, "rng_seed") != ecfg.rngSeed) {
      throw InputError("checkpoint " + opt.resumePath + ": rng_seed mismatch");
    }
    // The events stream is part of the checkpointed state: a resume
    // must continue the same stream (or, like the original run, have
    // none at all).
    const bool ckptHasEvents = resumeDoc.find("events") != nullptr;
    if (ckptHasEvents && opt.eventsPath.empty()) {
      throw InputError("checkpoint " + opt.resumePath +
                       " was written with --events; pass the same "
                       "events file to resume");
    }
    if (!ckptHasEvents && !opt.eventsPath.empty()) {
      throw InputError("checkpoint " + opt.resumePath +
                       " was written without --events; drop the flag "
                       "to resume");
    }
    if (ckptHasEvents) {
      spliceEventsFile(opt.eventsPath, core::ckpt::field(resumeDoc, "events"),
                       opt.resumePath);
    }
  }

  // ---- observers both engines feed (docs/observability.md) -----------
  CommandTelemetry ct(opt.statsJsonPath, opt.manualClockStepUs);
  if (resuming && ct.manualClock() != nullptr) {
    // Continue the manual clock exactly where the checkpointed run's
    // next read would have been, before any component reads it.
    ct.manualClock()->advance(core::ckpt::fieldU64(resumeDoc, "clock_us"));
  }
  FlightRecorder fr;
  fr.open(opt, *model, image, ct.get(), resuming);
  std::unique_ptr<obs::ProgressMeter> progress;
  if (opt.progressSeconds > 0.0) {
    // The parallel engine's heartbeats run on the system clock: they are
    // a live wall-time display from concurrent workers, not a
    // deterministic artifact.
    progress = std::make_unique<obs::ProgressMeter>(
        opt.jobs > 0 ? nullptr : ct.get(), std::cerr, opt.progressSeconds,
        fr.bus.get(), fr.codePcs);
  }
  // The one per-pc site table: the stats document's opcodes and
  // branch_sites, and the profiler's per-site costs.
  std::unique_ptr<obs::SiteStatsCollector> sites;
  if (ct.wantsStatsJson() || profiling) {
    sites = std::make_unique<obs::SiteStatsCollector>(*model, image);
    if (resuming) {
      if (const json::Value* sv = resumeDoc.find("sites")) {
        sites->restoreFromCkpt(*sv);
      }
    }
  }
  std::unique_ptr<core::RtlProfile> rtlProf;
  if (profiling) rtlProf = std::make_unique<core::RtlProfile>(*model);

  // What an engine hands to the epilogue; borrowed from the engine
  // branch, which stays live while the epilogue runs.
  struct EngineResult {
    const core::ExploreSummary& summary;
    smt::SolverTelemetry solver;
    const obs::PathForestRecorder* forest;  // null without forest flags
    const std::map<unsigned, smt::SmtSolver::ShapeRow>* shapes;
    const smt::QueryCache* qcache;  // the parallel engine's shared cache
  };
  // The one epilogue: forest and DOT, profile, stats document, manifest,
  // stdout and the exit code.
  const auto finish = [&](const EngineResult& r) -> CommandResult {
    if (fr.bus) {
      // The evaluators' statement tick totals are flushed by now.
      fr.bus->runEnd(r.summary, r.solver, rtlProf ? rtlProf->total() : 0);
    }
    std::string err = writeArtifact(
        opt.pathForestPath, "path-forest",
        [&](std::ostream& out) { r.forest->writeJson(out); });
    if (err.empty()) {
      err = writeArtifact(opt.pathDotPath, "path-dot",
                          [&](std::ostream& out) { r.forest->writeDot(out); });
    }
    if (!err.empty()) return fail(err);

    obs::ProfileReport rep;
    if (profiling) {
      rep.isa = isaName;
      rep.program = opt.programLabel;
      rep.sites = sites.get();
      rep.rtl = rtlProf.get();
      rep.engineSteps = r.summary.totalSteps;
      // Independent of the observer deltas: the per-statement tables
      // flushed by the evaluators. Reconciliation cross-checks the two
      // accumulation paths.
      rep.engineRtlTicks = rtlProf->total();
      rep.solver = r.solver;
      if (r.qcache != nullptr) {
        rep.hasQcache = true;
        rep.qcache = r.qcache->stats();
      }
      rep.shapes = r.shapes;
    }

    ct.writeStatsJson("explore", isaName, [&](json::Writer& w) {
      w.kv("strategy", std::string_view(opt.strategy));
      // v8 addition: which ADL engine ran. Stripped by stats_strip — the
      // byte-identity contract holds *across* engines (docs/bytecode.md).
      w.key("engine");
      w.beginObject();
      w.kv("name", std::string_view(opt.engine));
      w.endObject();
      w.key("summary");
      core::writeSummaryJson(w, r.summary);
      w.key("solver");
      r.solver.writeJson(w);
      // v6 addition: the abstract-prefilter block (docs/absdomain.md).
      w.key("prefilter");
      r.solver.writePrefilterJson(w);
      // The parallel engine's shared query cache. Note no "jobs" field
      // anywhere in the document — byte-identity across --jobs values is
      // the contract, so the document cannot mention the jobs count.
      if (opt.jobs > 0) {
        w.key("qcache");
        if (r.qcache != nullptr) {
          r.qcache->stats().writeJson(w);
        } else {
          w.beginObject();
          w.kv("enabled", false);
          w.endObject();
        }
      }
      if (sites) sites->writeJson(w);
      // v5 addition: the profile summary block (profiling runs only).
      if (profiling) rep.writeSummary(w);
      // v7 addition: the flight-recorder accounting block.
      fr.writeStatsJson(w);
    });

    err = writeArtifact(opt.profilePath, "profile",
                        [&](std::ostream& out) { rep.writeJson(out); });
    if (err.empty()) {
      err = writeArtifact(opt.profileFoldedPath, "profile-folded",
                          [&](std::ostream& out) { rep.writeFolded(out); });
    }
    if (!err.empty()) return fail(err);

    // Every artifact stream is final now; the manifest hashes them.
    fr.close();
    writeRunManifest(isaName, opt);

    std::ostringstream os;
    os << lintText;
    os << core::formatSummary(r.summary);
    if (opt.coverageReport) {
      for (const loader::Section& sec : image.sections()) {
        if (sec.writable) continue;
        os << "\ncoverage of section " << sec.name << ":\n"
           << core::formatCoverage(*model, image, sec.name, r.summary);
      }
    }
    os << r.solver.format();
    if (opt.profileStdout) os << rep.formatText();
    // Exit-code table (docs/robustness.md): defects found beat everything
    // (the findings are the tool's point, even from a partial run); then
    // budget-truncated partial results report 3 so CI can tell "clean and
    // complete" from "clean so far, but the engine gave up".
    int code = 0;
    if (r.summary.numDefects() > 0) {
      code = 1;
    } else if (r.summary.budgetExhausted() ||
               (!r.summary.stopReason.empty() &&
                r.summary.stopReason != "first-defect")) {
      code = 3;
    }
    return {code, os.str()};
  };

  // ---- parallel engine (--jobs, docs/parallelism.md) ------------------
  if (opt.jobs > 0) {
    // Live observers only; the path forest is rebuilt from the merged
    // tree after the run, so only thread-safe collectors ride along, all
    // behind one locked mux.
    core::LockedObserverMux mux;
    mux.add(fr.bus.get());
    mux.add(progress.get());
    mux.add(sites.get());

    std::unique_ptr<smt::QueryCache> qcache;
    if (opt.qcacheOn) {
      qcache = std::make_unique<smt::QueryCache>(opt.qcacheCapacity);
      if (resuming) {
        if (const json::Value* qv = resumeDoc.find("qcache")) {
          qcache->restoreFromCkpt(*qv);
        }
      }
    }

    core::ParallelConfig pcfg;
    pcfg.base = ecfg;
    if (!mux.empty()) pcfg.base.observer = &mux;
    pcfg.jobs = static_cast<unsigned>(opt.jobs);
    pcfg.manualClockStepUs = opt.manualClockStepUs;
    pcfg.qcache = qcache.get();
    pcfg.prefilter = opt.prefilterOn;
    pcfg.solverConflictBudget = kSolverConflictBudget;
    pcfg.solverTimeoutMicros = opt.solverTimeoutMs * 1000;
    pcfg.solverShapeProfile = profiling;
    pcfg.queryListener = fr.bus.get();
    pcfg.checkpointEverySteps = opt.checkpointEverySteps;
    pcfg.checkpointPath = opt.checkpointPath;
    pcfg.ckptIsa = isaName;
    pcfg.ckptStrategy = opt.strategy;
    pcfg.ckptImageSha = imageSha;
    if (resuming) pcfg.resume = &resumeDoc;
    if (!opt.checkpointPath.empty()) {
      // CLI-owned checkpoint sections. Runs on the checkpointing worker
      // while every other worker is quiescent, so the collectors are
      // stable and the events stream is fully flushed.
      // The site table is checkpointed state of the stats document only.
      obs::SiteStatsCollector* sitesPtr =
          ct.wantsStatsJson() ? sites.get() : nullptr;
      obs::EventBus* busPtr = fr.bus.get();
      std::ofstream* eventsFile = &fr.file;
      const std::string eventsPath = opt.eventsPath;
      pcfg.ckptExtras = [sitesPtr, busPtr, eventsFile, eventsPath](
                            json::Writer& w,
                            const core::ParallelConfig::CkptInfo& info) {
        if (sitesPtr != nullptr) {
          w.key("sites");
          sitesPtr->writeCkptJson(w);
        }
        if (busPtr != nullptr) {
          busPtr->flush();
          if (eventsFile->is_open()) eventsFile->flush();
          // Stream watermark: everything written so far is checkpointed
          // state; --resume cuts the file back to this offset and checks
          // the canonical-prefix hash before splicing.
          std::string bytes = support::readFileBytes(eventsPath);
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
          w.kv("canon_sha256", std::string_view(hash::sha256Hex(canon.str())));
          w.key("bus");
          busPtr->writeCkptJson(w, g);
          w.endObject();
        }
      };
    }

    core::RtlProfile* rp = rtlProf.get();
    core::ParallelExplorer pex(
        image, engineCfg, pcfg,
        [&m = *model, rp, engineKind](core::EngineServices& svc) {
          std::unique_ptr<core::Executor> ex =
              core::makeAdlExecutor(engineKind, m, svc);
          // Workers are destroyed inside run(), so the destructor flush
          // lands every worker's statement counts before we read them.
          if (rp != nullptr) ex->setRtlProfile(rp);
          return ex;
        },
        ct.get());
    fr.runBegin(isaName, opt, resuming ? &resumeDoc : nullptr);
    const core::ParallelResult pres = pex.run();
    std::optional<obs::PathForestRecorder> forest;
    if (!opt.pathForestPath.empty() || !opt.pathDotPath.empty()) {
      forest.emplace(obs::forestFromTree(pres.tree));
    }
    if (profiling) {
      // Pool diagnostics are schedule-dependent by nature (which worker
      // stole what), so they go to stderr only — never into the
      // byte-identical stdout/JSON artifacts.
      const core::ParallelExplorer::PoolStats& ps = pex.poolStats();
      std::cerr << "[pool] jobs=" << ps.jobs << " steals=" << ps.steals
                << " steal_wait_us=" << ps.stealWaitMicros
                << " steps_min=" << ps.minWorkerSteps
                << " steps_max=" << ps.maxWorkerSteps
                << " steps_total=" << ps.totalSteps << "\n";
    }
    return finish({pres.summary, pex.solverTelemetry(),
                   forest ? &*forest : nullptr, &pex.queryShapes(),
                   qcache.get()});
  }

  // ---- sequential engine ----------------------------------------------
  smt::TermManager tm;
  smt::SmtSolver solver(tm);
  solver.setConflictBudget(kSolverConflictBudget);
  solver.setQueryTimeoutMicros(opt.solverTimeoutMs * 1000);
  std::unique_ptr<smt::PreSolver> presolver;
  if (opt.prefilterOn) {
    presolver = std::make_unique<smt::PreSolver>(tm);
    solver.setPreSolver(presolver.get());
  }
  if (profiling) solver.setShapeProfiling(true);

  // Each flag adds one observer; the mux keeps the explorer's
  // single-pointer hook.
  std::unique_ptr<obs::PathForestRecorder> forest;
  if (!opt.pathForestPath.empty() || !opt.pathDotPath.empty()) {
    forest = std::make_unique<obs::PathForestRecorder>();
  }
  std::unique_ptr<obs::QueryLogger> qlog;
  if (!opt.queryLogDir.empty()) {
    qlog = std::make_unique<obs::QueryLogger>(opt.queryLogDir);
  }
  core::ObserverMux mux;
  mux.add(fr.bus.get());
  mux.add(forest.get());
  mux.add(qlog.get());
  mux.add(progress.get());
  mux.add(sites.get());
  if (!mux.empty()) ecfg.observer = &mux;
  // The query log sees each query before the event stream does.
  solver.addQueryListener(qlog.get());
  solver.addQueryListener(fr.bus.get());

  core::EngineServices services(tm, solver, image, engineCfg, ct.get());
  const std::unique_ptr<core::Executor> executor =
      core::makeAdlExecutor(engineKind, *model, services);
  if (rtlProf) executor->setRtlProfile(rtlProf.get());
  core::Explorer explorer(*executor, services, ecfg);
  fr.runBegin(isaName, opt);
  const core::ExploreSummary summary = explorer.run();
  if (rtlProf) executor->flushRtlProfile();
  return finish({summary, solver.telemetrySnapshot(), forest.get(),
                 &solver.queryShapes(), nullptr});
}

CommandResult cmdReplay(const std::string& dir) {
  const obs::ReplayReport report = obs::replayCorpus(dir);
  return {report.exitCode(), report.formatText()};
}

CommandResult cmdTail(const std::string& eventsPath, const TailOptions& opt) {
  std::ifstream in(eventsPath, std::ios::binary);
  if (!in.is_open()) {
    throw InputError("cannot open events file '" + eventsPath + "'");
  }
  obs::TailState state;
  std::string line;
  size_t lineNo = 0;
  auto drain = [&]() {
    bool any = false;
    while (std::getline(in, line)) {
      ++lineNo;
      if (line.empty()) continue;
      try {
        state.apply(json::parse(line));
      } catch (const Error& e) {
        throw InputError("events line " + std::to_string(lineNo) + ": " +
                         e.what());
      }
      any = true;
    }
    // getline stops at EOF with the fail bit set; clear it so the next
    // poll picks up freshly appended lines (tail -f semantics).
    in.clear();
    return any;
  };

  drain();
  if (!opt.follow) {
    return {0, state.render()};
  }

  // Live mode: redraw on stderr after each batch of new events; the final
  // dashboard goes to stdout like every other command.
  std::cerr << state.render();
  double waited = 0.0;
  while (!state.done() && (opt.maxWaitSeconds <= 0.0 ||
                           waited < opt.maxWaitSeconds)) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(opt.pollSeconds));
    waited += opt.pollSeconds;
    if (drain()) {
      waited = 0.0;
      std::cerr << "\n" << state.render();
    }
  }
  std::ostringstream os;
  os << state.render();
  if (!state.done()) os << "tail: gave up waiting for run_end\n";
  return {state.done() ? 0 : 1, os.str()};
}

CommandResult cmdEventsSummarize(const std::string& eventsPath,
                                 const std::string& statsJsonPath) {
  std::ifstream in(eventsPath, std::ios::binary);
  if (!in.is_open()) {
    throw InputError("cannot open events file '" + eventsPath + "'");
  }
  obs::EventsSummary es = obs::summarizeEvents(in);
  std::ostringstream os;
  if (!statsJsonPath.empty()) {
    const json::Value stats = json::parse(readFileOrThrow(statsJsonPath));
    for (std::string& p : obs::reconcileWithStats(es, stats)) {
      es.problems.push_back("stats: " + p);
    }
  }
  os << es.formatText();
  return {es.ok() ? 0 : 1, os.str()};
}

CommandResult cmdVerifyRun(const std::string& manifestPath) {
  const obs::VerifyReport rep = obs::verifyRun(manifestPath);
  return {rep.ok() ? 0 : 1, rep.formatText()};
}

CommandResult dispatch(const std::vector<std::string>& args) {
  try {
    // ADLSYM_FAULTS arms a fault schedule for any command (CI smoke
    // tests); explore --inject overrides it for that run. The guard
    // disarms when dispatch returns or throws.
    const char* envFaults = std::getenv("ADLSYM_FAULTS");
    fault::ScopedArm envArm(envFaults != nullptr ? envFaults : "");
    if (args.empty() || args[0] == "help" || args[0] == "--help") {
      return {args.empty() ? 2 : 0, usage()};
    }
    const std::string& cmd = args[0];
    if (cmd == "isas") return cmdIsas();
    if (cmd == "model") {
      if (args.size() != 2) return fail("usage: adlsym model <isa>");
      return cmdModel(args[1]);
    }
    if (cmd == "lint") {
      AllOptions o;
      const std::vector<std::string> pos = parseArgs(args, 1, kLint, o);
      if (pos.empty() || pos.size() > 2) {
        return fail(
            "usage: adlsym lint <isa|file.adl> [file.img] "
            "[--format=text|json] [--werror]");
      }
      const LintOptions opt{
          .json = o.lintJson,
          .werror = o.werror,
          .imageText = pos.size() == 2 ? readFileOrThrow(pos[1]) : "",
          .statsJsonPath = o.statsJsonPath};
      const auto names = isa::allIsaNames();
      const bool shipped =
          std::find(names.begin(), names.end(), pos[0]) != names.end();
      return cmdLint(pos[0],
                     shipped ? std::string(isa::isaSource(pos[0]))
                             : readFileOrThrow(pos[0]),
                     opt);
    }
    if (cmd == "asm") {
      if (args.size() != 3) return fail("usage: adlsym asm <isa> <file.s>");
      return cmdAsm(args[1], readFileOrThrow(args[2]));
    }
    if (cmd == "disasm") {
      if (args.size() != 3) return fail("usage: adlsym disasm <isa> <file.img>");
      return cmdDisasm(args[1], readFileOrThrow(args[2]));
    }
    if (cmd == "run") {
      AllOptions o;
      const std::vector<std::string> pos = parseArgs(args, 1, kRun, o);
      if (pos.size() < 2) {
        return fail("usage: adlsym run <isa> <file.img> [inputs...]");
      }
      std::vector<uint64_t> inputs;
      for (size_t i = 2; i < pos.size(); ++i) {
        const auto v = parseInt(pos[i]);
        if (!v) return fail("bad input value '" + pos[i] + "'");
        inputs.push_back(*v);
      }
      return cmdRun(pos[0], readFileOrThrow(pos[1]), inputs,
                    RunOptions{o.statsJsonPath});
    }
    if (cmd == "explore" || cmd == "profile") {
      AllOptions o;
      const std::vector<std::string> pos = parseArgs(args, 1, kExplore, o);
      if (pos.size() != 2) {
        return fail("usage: adlsym " + cmd + " <isa> <file.img> [options]");
      }
      // `profile` is `explore` plus the cost-attribution tables on stdout.
      o.profileStdout = cmd == "profile";
      o.programLabel = pos[1];
      o.argvEcho = args;  // echoed into the --manifest document
      return cmdExplore(pos[0], readFileOrThrow(pos[1]), o);
    }
    if (cmd == "replay") {
      if (args.size() != 2) return fail("usage: adlsym replay <query-dir>");
      return cmdReplay(args[1]);
    }
    if (cmd == "tail") {
      AllOptions o;
      const std::vector<std::string> pos = parseArgs(args, 1, kTail, o);
      if (pos.size() != 1) {
        return fail(
            "usage: adlsym tail <events-file> [--no-follow] [--max-wait=S]");
      }
      return cmdTail(pos[0], {.follow = !o.noFollow,
                              .maxWaitSeconds = o.maxWaitSeconds});
    }
    if (cmd == "events") {
      const std::string usageText =
          "usage: adlsym events summarize <events-file> "
          "[--stats=<stats.json>]";
      if (args.size() < 3 || args[1] != "summarize") return fail(usageText);
      AllOptions o;
      const std::vector<std::string> pos = parseArgs(args, 2, kEvents, o);
      if (pos.empty()) return fail(usageText);
      if (pos.size() > 1) return fail("extra events argument '" + pos[1] + "'");
      return cmdEventsSummarize(pos[0], o.statsPath);
    }
    if (cmd == "verify-run") {
      if (args.size() != 2) {
        return fail("usage: adlsym verify-run <manifest.json>");
      }
      return cmdVerifyRun(args[1]);
    }
    return fail("unknown command '" + cmd + "'\n" + usage());
  } catch (const fault::InjectedFault& e) {
    // Before InputError/Error: InjectedFault derives from Error.
    return {4, std::string("error: ") + e.what() + "\n"};
  } catch (const InputError& e) {
    return {2, std::string("error: ") + e.what() + "\n"};
  } catch (const std::bad_alloc&) {
    return {4, "error: out of memory\n"};
  } catch (const std::exception& e) {
    return {4, std::string("error: ") + e.what() + "\n"};
  }
}

}  // namespace adlsym::driver::cli
