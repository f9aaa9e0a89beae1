#include "obs/sitestats.h"

#include "support/error.h"
#include "support/json.h"

namespace adlsym::obs {

SiteStatsCollector::Site& SiteStatsCollector::siteAt(uint64_t pc) {
  Site& site = sites_[pc];
  if (site.opcode.empty()) {
    const decode::DecodedInsn* d = decoder_.decodeAt(image_, pc);
    site.opcode = d != nullptr ? d->insn->name : "<illegal>";
  }
  return site;
}

void SiteStatsCollector::onStepEnd(const StepInfo& info) {
  std::lock_guard<std::mutex> lk(mu_);
  Site& site = siteAt(info.pc);
  ++site.hits;
  if (info.numSuccessors > 1) ++site.forks;
  // Drops are counted in onDrop (numSuccessors == 0 also covers normal
  // path termination, which is not an infeasibility event).
  site.rtlTicks += info.stepRtlTicks;
  site.queries += info.stepSolverQueries;
  site.canon.terms += info.stepCanonTerms;
  site.canon.gates += info.stepCanonGates;
  site.canon.conflicts += info.stepCanonConflicts;
  site.prefilterHits += info.stepPrefilterHits;
  site.prefilterMisses += info.stepPrefilterMisses;
}

void SiteStatsCollector::onDrop(uint64_t /*node*/, uint64_t pc) {
  std::lock_guard<std::mutex> lk(mu_);
  ++siteAt(pc).infeasible;
}

void SiteStatsCollector::onOffStepSolve(uint64_t pc, uint64_t queries,
                                        uint64_t canonTerms,
                                        uint64_t canonGates,
                                        uint64_t canonConflicts,
                                        uint64_t preHits, uint64_t preMisses) {
  std::lock_guard<std::mutex> lk(mu_);
  // The cut pc may never have executed (the budget closed the path before
  // its step).
  Site& site = siteAt(pc);
  site.offStepQueries += queries;
  site.canon.terms += canonTerms;
  site.canon.gates += canonGates;
  site.canon.conflicts += canonConflicts;
  site.prefilterHits += preHits;
  site.prefilterMisses += preMisses;
}

std::map<std::string, uint64_t> SiteStatsCollector::opcodeCounts() const {
  std::map<std::string, uint64_t> ops;
  for (const auto& [pc, site] : sites_) {
    if (site.hits != 0) ops[site.opcode] += site.hits;
  }
  return ops;
}

namespace {

void writeOpcodes(json::Writer& w,
                  const std::map<std::string, uint64_t>& opcodes) {
  w.key("opcodes").beginObject();
  for (const auto& [name, count] : opcodes) w.kv(name, count);
  w.endObject();
}

}  // namespace

void SiteStatsCollector::writeJson(json::Writer& w) const {
  writeOpcodes(w, opcodeCounts());
  w.key("branch_sites").beginArray();
  for (const auto& [pc, site] : sites_) {
    if (site.forks == 0 && site.infeasible == 0) continue;
    w.beginObject();
    w.kv("pc", pc);
    w.kv("hits", site.hits);
    w.kv("forks", site.forks);
    w.kv("infeasible", site.infeasible);
    w.endObject();
  }
  w.endArray();
}

void SiteStatsCollector::writeCkptJson(json::Writer& w) const {
  std::lock_guard<std::mutex> lk(mu_);
  w.beginObject();
  writeOpcodes(w, opcodeCounts());
  w.key("sites").beginArray();
  for (const auto& [pc, site] : sites_) {
    // Sites only off-step solves touched carry no checkpointed count.
    if (site.hits == 0 && site.forks == 0 && site.infeasible == 0) continue;
    w.beginArray();
    w.value(pc).value(site.hits).value(site.forks).value(site.infeasible);
    w.endArray();
  }
  w.endArray();
  w.endObject();
}

void SiteStatsCollector::restoreFromCkpt(const json::Value& v) {
  // "opcodes" is derived from the site rows, so only its shape is checked.
  const json::Value* opcodes = v.find("opcodes");
  const json::Value* sites = v.find("sites");
  if (opcodes == nullptr || !opcodes->isObject() || sites == nullptr ||
      !sites->isArray()) {
    throw InputError("sites section: missing 'opcodes'/'sites'");
  }
  std::lock_guard<std::mutex> lk(mu_);
  for (const json::Value& row : sites->array) {
    if (!row.isArray() || row.array.size() != 4) {
      throw InputError("sites section: malformed site row");
    }
    Site& site = siteAt(row.array[0].asU64());
    site.hits += row.array[1].asU64();
    site.forks += row.array[2].asU64();
    site.infeasible += row.array[3].asU64();
  }
}

}  // namespace adlsym::obs
