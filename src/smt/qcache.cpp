#include "smt/qcache.h"

#include <algorithm>

#include "smt/solver.h"
#include "support/json.h"

namespace adlsym::smt {

namespace {

void appendNum(std::string& out, uint64_t v) {
  char buf[24];
  char* p = buf + sizeof buf;
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  out.append(p, buf + sizeof buf);
}

void appendRef(std::string& out, TermId id,
               const std::unordered_map<TermId, size_t>& memo) {
  if (id == kInvalidTerm) {
    out += '-';
    return;
  }
  appendNum(out, memo.at(id));
}

enum class VarMode : uint8_t {
  Blind,  // "V<w>:?"       — name-independent sort key
  Named,  // "V<w>:<name>"  — within-pool deterministic tie-break
  Slot,   // "V<w>:@<slot>" — α-renamed final key
};

/// Append post-order descriptors of every node under `root` not already in
/// `memo`; returns root's local index. Local indices are emission order,
/// so the serialization is DAG-shared: a subterm reachable twice is
/// defined once and referenced by index.
size_t serializeTerm(const TermManager& tm, TermId root, VarMode mode,
                     std::unordered_map<TermId, size_t>& memo,
                     std::string& out,
                     std::unordered_map<std::string, size_t>* slotByName,
                     std::vector<TermRef>* slotVars, TermManager* mgr) {
  std::vector<TermId> stack{root};
  while (!stack.empty()) {
    const TermId id = stack.back();
    if (memo.count(id) != 0) {
      stack.pop_back();
      continue;
    }
    const TermNode& n = tm.node(id);
    const TermId ops[3] = {n.a, n.b, n.c};
    bool ready = true;
    for (const TermId o : ops) {
      if (o != kInvalidTerm && memo.count(o) == 0) {
        stack.push_back(o);
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    switch (n.kind) {
      case Kind::Const:
        out += 'C';
        appendNum(out, n.width);
        out += ':';
        appendNum(out, n.aux);
        break;
      case Kind::Var:
        out += 'V';
        appendNum(out, n.width);
        out += ':';
        switch (mode) {
          case VarMode::Blind:
            out += '?';
            break;
          case VarMode::Named:
            out += tm.varName(id);
            break;
          case VarMode::Slot: {
            const std::string& name = tm.varName(id);
            auto [it, inserted] =
                slotByName->try_emplace(name, slotByName->size());
            if (inserted && slotVars != nullptr) {
              slotVars->push_back(TermRef(mgr, id));
            }
            out += '@';
            appendNum(out, it->second);
            break;
          }
        }
        break;
      default:
        out += 'O';
        appendNum(out, static_cast<uint64_t>(n.kind));
        out += ':';
        appendNum(out, n.width);
        out += ':';
        appendRef(out, n.a, memo);
        out += ',';
        appendRef(out, n.b, memo);
        out += ',';
        appendRef(out, n.c, memo);
        out += ':';
        appendNum(out, n.aux);
        break;
    }
    out += ';';
    memo.emplace(id, memo.size());
  }
  return memo.at(root);
}

}  // namespace

std::string QueryCache::canonicalKey(const std::vector<TermRef>& permanent,
                                     const std::vector<TermRef>& assumptions,
                                     std::vector<TermRef>* slotVars,
                                     SortKeyMemo* memo) {
  if (slotVars != nullptr) slotVars->clear();
  // The query is the *set* permanent ∪ assumptions; order and duplicates
  // don't affect satisfiability. Within one pool, structural equality is
  // id equality, so de-duplicating ids de-duplicates structure.
  std::vector<TermRef> terms;
  terms.reserve(permanent.size() + assumptions.size());
  for (const TermRef t : permanent) {
    if (t.valid() && !t.isTrue()) terms.push_back(t);
  }
  for (const TermRef t : assumptions) {
    if (t.valid() && !t.isTrue()) terms.push_back(t);
  }
  if (terms.empty()) return std::string();
  TermManager* mgr = terms.front().manager();
  {
    std::vector<TermId> ids;
    ids.reserve(terms.size());
    for (const TermRef t : terms) ids.push_back(t.id());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    terms.clear();
    for (const TermId id : ids) terms.push_back(TermRef(mgr, id));
  }

  // Pass 1: per-constraint sort keys. Primary key is name-*blind* so the
  // order (and hence the α-renaming below) is invariant under variable
  // renamings that don't collide structurally; the name-aware secondary
  // key keeps the order deterministic within one pool. Memoised by id.
  SortKeyMemo local;
  SortKeyMemo& sortKeys = memo != nullptr ? *memo : local;
  struct Item {
    const SortKeys* keys;  // owned by sortKeys; node-based, so stable
    TermId id;
  };
  std::vector<Item> items;
  items.reserve(terms.size());
  std::unordered_map<TermId, size_t> nodeIdx;
  for (const TermRef t : terms) {
    auto [it, inserted] = sortKeys.try_emplace(t.id());
    if (inserted) {
      serializeTerm(*mgr, t.id(), VarMode::Blind, nodeIdx, it->second.blind,
                    nullptr, nullptr, nullptr);
      nodeIdx.clear();
      serializeTerm(*mgr, t.id(), VarMode::Named, nodeIdx, it->second.named,
                    nullptr, nullptr, nullptr);
      nodeIdx.clear();
    }
    items.push_back(Item{&it->second, t.id()});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.keys->blind != b.keys->blind) return a.keys->blind < b.keys->blind;
    return a.keys->named < b.keys->named;
  });

  // Pass 2: one global DAG walk over the sorted set, variables α-renamed
  // to dense slots in first-occurrence order.
  std::string key;
  std::unordered_map<std::string, size_t> slotByName;
  for (const Item& it : items) {
    const size_t root = serializeTerm(*mgr, it.id, VarMode::Slot, nodeIdx,
                                      key, &slotByName, slotVars, mgr);
    key += 'R';
    appendNum(key, root);
    key += ';';
  }
  return key;
}

QueryCache::Outcome QueryCache::acquire(const std::string& key) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      map_.emplace(key, Entry{});  // in-flight marker; caller owns
      ++stats_.misses;
      return Outcome{};
    }
    if (it->second.done) {
      ++stats_.hits;
      Outcome o;
      o.hit = true;
      o.result = it->second.result;
      o.slotValues = it->second.slotValues;
      o.cost = it->second.cost;
      o.hasModel = it->second.hasModel;
      o.preTag = it->second.preTag;
      return o;
    }
    // In flight on another thread: wait for publish()/abandon(), then
    // re-examine (an abandoned key makes this caller the next owner).
    ++stats_.inflightWaits;
    cv_.wait(lk, [&] {
      auto cur = map_.find(key);
      return cur == map_.end() || cur->second.done;
    });
  }
}

void QueryCache::publish(const std::string& key, CheckResult result,
                         std::vector<uint64_t> slotValues, QueryCost cost,
                         uint8_t preTag, bool hasModel) {
  std::lock_guard<std::mutex> lk(mu_);
  Entry& e = map_[key];
  e.done = true;
  e.result = result;
  e.slotValues = std::move(slotValues);
  e.cost = cost;
  e.preTag = preTag;
  e.hasModel = hasModel;
  fifo_.push_back(key);
  if (capacity_ != 0) {
    while (fifo_.size() > capacity_) {
      map_.erase(fifo_.front());
      fifo_.pop_front();
      ++stats_.evictions;
    }
  }
  cv_.notify_all();
}

void QueryCache::backfillModel(const std::string& key,
                               std::vector<uint64_t> slotValues) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it == map_.end() || !it->second.done || it->second.hasModel ||
      it->second.result != CheckResult::Sat) {
    return;
  }
  it->second.slotValues = std::move(slotValues);
  it->second.hasModel = true;
}

void QueryCache::abandon(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = map_.find(key);
  if (it != map_.end() && !it->second.done) map_.erase(it);
  cv_.notify_all();
}

void QueryCache::writeCkptJson(json::Writer& w) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<const std::string*> keys;
  keys.reserve(map_.size());
  for (const auto& [key, e] : map_) {
    if (e.done) keys.push_back(&key);
  }
  std::sort(keys.begin(), keys.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  w.beginObject();
  w.kv("hits", stats_.hits);
  w.kv("misses", stats_.misses);
  w.kv("evictions", stats_.evictions);
  w.key("entries").beginArray();
  for (const std::string* key : keys) {
    const Entry& e = map_.at(*key);
    w.beginObject();
    w.kv("k", std::string_view(*key));
    w.kv("r", e.result == CheckResult::Sat ? "sat" : "unsat");
    w.key("m").beginArray();
    for (const uint64_t v : e.slotValues) w.value(v);
    w.endArray();
    w.key("c").beginArray();
    w.value(e.cost.terms).value(e.cost.gates).value(e.cost.conflicts);
    w.endArray();
    w.kv("hm", e.hasModel);
    w.kv("p", static_cast<uint64_t>(e.preTag));
    w.endObject();
  }
  w.endArray();
  w.endObject();
}

void QueryCache::restoreFromCkpt(const json::Value& v) {
  const auto u64 = [&](const char* name) -> uint64_t {
    const json::Value* f = v.find(name);
    if (f == nullptr) {
      throw InputError(std::string("qcache section: missing '") + name + "'");
    }
    return f->asU64();
  };
  const json::Value* entries = v.find("entries");
  if (entries == nullptr || !entries->isArray()) {
    throw InputError("qcache section: missing 'entries' array");
  }
  std::lock_guard<std::mutex> lk(mu_);
  stats_.hits = u64("hits");
  stats_.misses = u64("misses");
  stats_.evictions = u64("evictions");
  for (const json::Value& ev : entries->array) {
    const json::Value* key = ev.find("k");
    const json::Value* result = ev.find("r");
    const json::Value* model = ev.find("m");
    const json::Value* cost = ev.find("c");
    if (key == nullptr || !key->isString() || result == nullptr ||
        model == nullptr || !model->isArray() || cost == nullptr ||
        !cost->isArray() || cost->array.size() != 3) {
      throw InputError("qcache section: malformed entry");
    }
    Entry e;
    e.done = true;
    if (result->str == "sat") {
      e.result = CheckResult::Sat;
    } else if (result->str == "unsat") {
      e.result = CheckResult::Unsat;
    } else {
      throw InputError("qcache section: bad result '" + result->str + "'");
    }
    e.slotValues.reserve(model->array.size());
    for (const json::Value& m : model->array) e.slotValues.push_back(m.asU64());
    e.cost.terms = cost->array[0].asU64();
    e.cost.gates = cost->array[1].asU64();
    e.cost.conflicts = cost->array[2].asU64();
    const json::Value* hm = ev.find("hm");
    const json::Value* p = ev.find("p");
    e.hasModel = hm == nullptr || hm->boolean;
    e.preTag = p == nullptr ? 0 : static_cast<uint8_t>(p->asU64());
    auto [it, inserted] = map_.emplace(key->str, std::move(e));
    if (inserted) fifo_.push_back(key->str);
  }
  cv_.notify_all();
}

QueryCache::Stats QueryCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s = stats_;
  s.entries = fifo_.size();
  s.capacity = capacity_;
  return s;
}

void QueryCache::Stats::writeJson(json::Writer& w) const {
  w.beginObject();
  w.kv("enabled", true);
  w.kv("capacity", static_cast<uint64_t>(capacity));
  w.kv("entries", static_cast<uint64_t>(entries));
  w.kv("hits", hits);
  w.kv("misses", misses);
  w.kv("evictions", evictions);
  w.kv("hit_rate", hitRate());
  w.endObject();
}

}  // namespace adlsym::smt
