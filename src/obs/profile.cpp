#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "support/json.h"

namespace adlsym::obs {

namespace {

void writeCanon(json::Writer& w, const smt::QueryCost& c) {
  w.key("canon").beginObject();
  w.kv("terms", c.terms);
  w.kv("gates", c.gates);
  w.kv("conflicts", c.conflicts);
  w.endObject();
}

/// Per-mnemonic rollup of the per-pc sites; std::map keeps emission
/// canonical.
struct OpRow {
  uint64_t steps = 0;
  uint64_t rtlTicks = 0;
  uint64_t forks = 0;
  uint64_t queries = 0;  // in-step + off-step
  smt::QueryCost canon;
};

using Site = SiteStatsCollector::Site;

/// Whether the profiler charges the site: it executed or had an off-step
/// solve. Drop-only sites exist for the stats document's branch_sites.
bool profiled(const Site& s) { return s.hits != 0 || s.offStepQueries != 0; }

std::map<std::string, OpRow> rollupOpcodes(const SiteStatsCollector& sites) {
  std::map<std::string, OpRow> ops;
  for (const auto& [pc, s] : sites.sites()) {
    if (!profiled(s)) continue;
    OpRow& row = ops[s.opcode];
    row.steps += s.hits;
    row.rtlTicks += s.rtlTicks;
    row.forks += s.forks;
    row.queries += s.queries + s.offStepQueries;
    row.canon += s.canon;
  }
  return ops;
}

/// Per-site sums the report reconciles against the engine and solver.
struct SiteTotals {
  uint64_t sites = 0;
  uint64_t rtlTicks = 0;
  uint64_t queries = 0;  // in-step + off-step
  uint64_t offStepQueries = 0;
};

SiteTotals siteTotals(const SiteStatsCollector* sites) {
  SiteTotals t;
  if (sites == nullptr) return t;
  for (const auto& [pc, s] : sites->sites()) {
    if (!profiled(s)) continue;
    ++t.sites;
    t.rtlTicks += s.rtlTicks;
    t.queries += s.queries + s.offStepQueries;
    t.offStepQueries += s.offStepQueries;
  }
  return t;
}

std::string hexPc(uint64_t pc) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(pc));
  return buf;
}

}  // namespace

ProfileReport::Reconcile ProfileReport::reconcile() const {
  const SiteTotals t = siteTotals(sites);
  Reconcile r;
  r.siteRtlTicks = t.rtlTicks;
  r.engineRtlTicks = engineRtlTicks;
  r.siteQueries = t.queries;
  r.solverQueries = solver.queries;
  return r;
}

void ProfileReport::writeJson(std::ostream& os) const {
  json::Writer w(os);
  w.beginObject();
  w.kv("schema", "adlsym-profile-v2");
  w.kv("isa", isa);
  w.kv("program", program);

  w.key("engine").beginObject();
  w.kv("steps", engineSteps);
  w.kv("rtl_ticks", engineRtlTicks);
  w.endObject();

  w.key("sites").beginArray();
  if (sites != nullptr) {
    for (const auto& [pc, s] : sites->sites()) {
      if (!profiled(s)) continue;
      w.beginObject();
      w.kv("pc", pc);
      w.kv("opcode", s.opcode);
      w.kv("steps", s.hits);
      w.kv("rtl_ticks", s.rtlTicks);
      w.kv("forks", s.forks);
      w.kv("queries", s.queries);
      w.kv("off_step_queries", s.offStepQueries);
      w.kv("prefilter_hits", s.prefilterHits);
      w.kv("prefilter_misses", s.prefilterMisses);
      writeCanon(w, s.canon);
      w.endObject();
    }
  }
  w.endArray();

  w.key("opcodes").beginArray();
  if (sites != nullptr) {
    for (const auto& [name, row] : rollupOpcodes(*sites)) {
      w.beginObject();
      w.kv("opcode", name);
      w.kv("steps", row.steps);
      w.kv("rtl_ticks", row.rtlTicks);
      w.kv("forks", row.forks);
      w.kv("queries", row.queries);
      writeCanon(w, row.canon);
      w.endObject();
    }
  }
  w.endArray();

  if (rtl != nullptr) {
    w.key("rtl").beginArray();
    const auto& counts = rtl->counts();
    const auto& stmts = rtl->sites();
    for (size_t i = 0; i < stmts.size(); ++i) {
      if (counts[i] == 0) continue;
      w.beginObject();
      w.kv("insn", stmts[i].insn);
      w.kv("stmt", stmts[i].stmtIdx);
      w.kv("op", core::stmtOpName(stmts[i].op));
      w.kv("line", stmts[i].line);
      w.kv("col", stmts[i].col);
      w.kv("count", counts[i]);
      w.endObject();
    }
    w.endArray();
  }

  // Canonical solver fields only — wall micros are schedule-dependent
  // (cache hits are cheaper than the miss that filled them), so they are
  // excluded to keep the document byte-identical across --jobs.
  w.key("solver").beginObject();
  w.kv("queries", solver.queries);
  w.kv("sat", solver.sat);
  w.kv("unsat", solver.unsat);
  w.kv("unknown", solver.unknown);
  w.kv("cache_hits", solver.cacheHits);
  writeCanon(w, solver.canon);
  w.key("prefilter");
  solver.writePrefilterJson(w);
  if (shapes != nullptr) {
    w.key("shapes").beginArray();
    for (const auto& [bucket, row] : *shapes) {
      w.beginObject();
      w.kv("terms_bits", bucket);  // bit_width(canonical terms blasted)
      w.kv("queries", row.queries);
      w.kv("hits", row.hits);
      w.kv("sat", row.sat);
      w.kv("unsat", row.unsat);
      w.kv("unknown", row.unknown);
      writeCanon(w, row.cost);
      w.endObject();
    }
    w.endArray();
  }
  w.endObject();

  if (hasQcache) {
    w.key("qcache");
    qcache.writeJson(w);
  }

  const Reconcile r = reconcile();
  w.key("reconcile").beginObject();
  w.kv("site_rtl_ticks", r.siteRtlTicks);
  w.kv("engine_rtl_ticks", r.engineRtlTicks);
  w.kv("rtl_ticks_ok", r.ticksOk());
  w.kv("site_queries", r.siteQueries);
  w.kv("solver_queries", r.solverQueries);
  w.kv("queries_ok", r.queriesOk());
  w.endObject();

  w.endObject();
  os << '\n';
}

void ProfileReport::writeFolded(std::ostream& os) const {
  if (sites == nullptr) return;
  // One line per leaf frame: "root;frame;frame value". Roots carry the
  // sample unit so mixed stacks stay interpretable in flamegraph tools.
  for (const auto& [pc, s] : sites->sites()) {
    if (s.rtlTicks != 0) {
      os << "exec_ticks;" << isa << ";" << s.opcode << ";pc=" << hexPc(pc)
         << " " << s.rtlTicks << "\n";
    }
  }
  if (rtl != nullptr) {
    const auto& counts = rtl->counts();
    const auto& stmts = rtl->sites();
    for (size_t i = 0; i < stmts.size(); ++i) {
      if (counts[i] == 0) continue;
      os << "rtl_ticks;" << isa << ";" << stmts[i].insn << ";s"
         << stmts[i].stmtIdx << ":" << core::stmtOpName(stmts[i].op) << " "
         << counts[i] << "\n";
    }
  }
  for (const auto& [pc, s] : sites->sites()) {
    if (s.canon.gates != 0) {
      os << "solver_gates;" << isa << ";" << s.opcode << ";pc=" << hexPc(pc)
         << " " << s.canon.gates << "\n";
    }
  }
}

void ProfileReport::writeSummary(json::Writer& w) const {
  const SiteTotals t = siteTotals(sites);
  w.key("profile").beginObject();
  w.kv("schema", "adlsym-profile-v2");
  w.kv("rtl_ticks", engineRtlTicks);
  w.kv("sites", t.sites);
  w.kv("attributed_queries", t.queries);
  w.kv("off_step_queries", t.offStepQueries);
  w.kv("reconciled", reconcile().ok());
  w.endObject();
}

std::string ProfileReport::formatText() const {
  std::ostringstream os;
  const Reconcile r = reconcile();
  os << "profile: " << isa << " " << program << "\n";
  os << "engine: steps=" << engineSteps << " rtl_ticks=" << engineRtlTicks
     << "\n";
  os << "solver: queries=" << solver.queries << " sat=" << solver.sat
     << " unsat=" << solver.unsat << " unknown=" << solver.unknown
     << " cache_hits=" << solver.cacheHits << " canon(terms=" << solver.canon.terms
     << " gates=" << solver.canon.gates
     << " conflicts=" << solver.canon.conflicts << ")\n";
  os << "prefilter: " << (solver.preEnabled ? "on" : "off")
     << " consulted=" << solver.preConsulted << " sat=" << solver.preSat
     << " unsat=" << solver.preUnsat << " fallbacks=" << solver.preFallback
     << " direct=" << solver.directSolves << "\n";
  if (hasQcache) {
    os << "qcache: hits=" << qcache.hits << " misses=" << qcache.misses
       << " evictions=" << qcache.evictions << " entries=" << qcache.entries
       << "\n";
  }

  if (sites != nullptr) {
    // Hottest opcodes by RTL ticks.
    std::vector<std::pair<std::string, OpRow>> ops;
    for (auto& kv : rollupOpcodes(*sites)) ops.push_back(kv);
    std::stable_sort(ops.begin(), ops.end(), [](const auto& a, const auto& b) {
      return a.second.rtlTicks > b.second.rtlTicks;
    });
    os << "hot opcodes (ticks | steps | queries | canon gates):\n";
    size_t shown = 0;
    for (const auto& [name, row] : ops) {
      if (shown++ == 10) break;
      os << "  " << name << "  " << row.rtlTicks << " | " << row.steps
         << " | " << row.queries << " | " << row.canon.gates << "\n";
    }

    // Most expensive branch sites by canonical solver gates.
    std::vector<std::pair<uint64_t, Site>> hot;
    for (const auto& kv : sites->sites()) {
      if (kv.second.queries + kv.second.offStepQueries != 0) {
        hot.push_back(kv);
      }
    }
    std::stable_sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
      return a.second.canon.gates > b.second.canon.gates;
    });
    os << "hot solver sites (gates | queries | conflicts):\n";
    shown = 0;
    for (const auto& [pc, s] : hot) {
      if (shown++ == 10) break;
      os << "  " << hexPc(pc) << " " << s.opcode << "  " << s.canon.gates
         << " | " << (s.queries + s.offStepQueries) << " | "
         << s.canon.conflicts << "\n";
    }
  }

  if (shapes != nullptr && !shapes->empty()) {
    os << "query shapes (2^k terms: queries hits sat/unsat/unknown gates):\n";
    for (const auto& [bucket, row] : *shapes) {
      os << "  2^" << bucket << "  " << row.queries << " " << row.hits << " "
         << row.sat << "/" << row.unsat << "/" << row.unknown << " "
         << row.cost.gates << "\n";
    }
  }

  os << "reconcile: rtl_ticks " << r.siteRtlTicks << "/" << r.engineRtlTicks
     << (r.ticksOk() ? " ok" : " MISMATCH") << ", queries " << r.siteQueries
     << "/" << r.solverQueries << (r.queriesOk() ? " ok" : " MISMATCH")
     << "\n";
  return os.str();
}

}  // namespace adlsym::obs
