// Shared SMT query cache for multi-threaded exploration (docs/
// parallelism.md). Workers solve path-feasibility queries on per-worker
// term pools, so TermIds are not comparable across threads; the cache key
// is instead a *canonical serialization* of the whole constraint set:
// assumptions are serialized structurally (DAG-shared, so shared subterms
// never blow up the key), sorted name-blind, de-duplicated, and variables
// are α-renamed to dense slots in first-occurrence order. Two constraint
// sets that are structurally equal up to a variable renaming (that
// preserves the sorted order — e.g. any single-constraint query, or sets
// whose constraints differ structurally) produce the same key; false
// positives are impossible because the key encodes the full structure.
//
// Sat entries store their model as a slot-indexed value vector; each
// client translates slots back to its own pool's variables through the
// slotVars mapping returned by canonicalKey. This is what makes cached
// models *canonical*: every distinct key is solved exactly once (single-
// flight), from scratch on the worker's reset scratch core, whose CNF and
// search depend only on term structure, so the model a worker observes is
// independent of scheduling — the cornerstone of the -j1 == -jN
// determinism guarantee. Key computation memoises each constraint's sort
// keys per worker, keyed by TermId (SortKeyMemo).
//
// Concurrency: one mutex + condvar. acquire() is single-flight — the
// first caller of a key becomes its *owner* and must publish() (verdict +
// model) or abandon() (Unknown / exception) it; concurrent callers of the
// same key block until the owner resolves it. Eviction is FIFO over
// completed entries and only occurs when a capacity is set.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "smt/term.h"

namespace adlsym::json {
class Writer;
struct Value;
}

namespace adlsym::smt {

enum class CheckResult;  // smt/solver.h

/// Canonical cost of solving one query's canonical CNF on a fresh core:
/// terms blasted, AIG gates built, SAT conflicts. Captured once at the
/// key's single-flight solve and *replayed* on every later hit, so the
/// cost a caller observes depends only on the query — never on which
/// worker or step happened to take the miss. This is what lets the
/// profiler attribute solver cost per branch site byte-identically
/// across -j1/-jN (docs/observability.md).
struct QueryCost {
  uint64_t terms = 0;
  uint64_t gates = 0;
  uint64_t conflicts = 0;

  QueryCost& operator+=(const QueryCost& o) {
    terms += o.terms;
    gates += o.gates;
    conflicts += o.conflicts;
    return *this;
  }
};

class QueryCache {
 public:
  /// `capacity` bounds completed entries (FIFO eviction); 0 = unbounded.
  /// Note: with a binding capacity, *which* entries survive depends on
  /// completion order, so hit/miss counts are only deterministic across
  /// -jN when the capacity does not bind (docs/parallelism.md).
  explicit QueryCache(size_t capacity = 0) : capacity_(capacity) {}
  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  struct Stats {
    uint64_t hits = 0;        // completed verdict served (incl. waited)
    uint64_t misses = 0;      // caller became the owner and solved
    uint64_t evictions = 0;   // completed entries dropped by capacity
    /// Lookups that blocked on another thread's in-flight solve. Resolves
    /// as a hit; excluded from the stats JSON because it is inherently
    /// scheduling-dependent (the counts above are not).
    uint64_t inflightWaits = 0;
    size_t entries = 0;       // completed entries resident now
    size_t capacity = 0;      // 0 = unbounded

    double hitRate() const {
      const uint64_t total = hits + misses;
      return total ? double(hits) / double(total) : 0.0;
    }
    /// The "qcache" object of the stats schema (adlsym-stats-v8). Emits
    /// only scheduling-independent fields.
    void writeJson(json::Writer& w) const;
  };
  Stats stats() const;

  struct Outcome {
    bool hit = false;   // result/slotValues valid; otherwise caller owns
    CheckResult result;
    std::vector<uint64_t> slotValues;  // Sat models, indexed by var slot
    QueryCost cost;                    // canonical solve cost, replayed
    /// Sat entries published by the abstract prefilter skip the solve and
    /// carry no model; a later needModel hit restores one (canonically)
    /// and backfills it via backfillModel().
    bool hasModel = true;
    /// Prefilter provenance of the key's verdict (see SmtSolver): 0 =
    /// solved directly, 1 = prefilter sat, 2 = prefilter unsat, 3 =
    /// consulted but fell through to a real solve. Structural like the
    /// verdict itself, so replaying it on hits keeps per-site prefilter
    /// attribution schedule-independent.
    uint8_t preTag = 0;
  };

  /// Single-flight lookup: a hit returns the completed verdict (+model);
  /// otherwise the caller is now the key's owner and *must* call
  /// publish() or abandon() exactly once. Blocks while another thread
  /// owns the key.
  Outcome acquire(const std::string& key);

  /// Owner: complete the key with a verdict (never Unknown — abandon
  /// those), for Sat the slot-indexed model, and the canonical solve cost
  /// (replayed verbatim to every later hit). `preTag`/`hasModel` document
  /// the verdict's provenance (see Outcome).
  void publish(const std::string& key, CheckResult result,
               std::vector<uint64_t> slotValues, QueryCost cost = {},
               uint8_t preTag = 0, bool hasModel = true);

  /// Attach a restored model to a completed model-less Sat entry (no-op
  /// for anything else). Concurrent restorers of one key compute the same
  /// canonical model, so last-writer-wins is benign.
  void backfillModel(const std::string& key,
                     std::vector<uint64_t> slotValues);

  /// Owner: give the key up without a verdict (Unknown result, or an
  /// exception unwound through the solve). Waiters retry and one becomes
  /// the next owner.
  void abandon(const std::string& key);

  /// Serialize every completed entry plus the schedule-independent stats
  /// counters — the "qcache" checkpoint section (adlsym-ckpt-v1,
  /// docs/robustness.md). Entries emit in key order, so the bytes are
  /// canonical across -jN at a quiescent checkpoint barrier. In-flight
  /// entries cannot exist at a barrier and are skipped defensively.
  void writeCkptJson(json::Writer& w) const;

  /// Seed a fresh cache from a parsed writeCkptJson() section (--resume).
  /// Restored entries hit exactly as the original run's suffix would
  /// have, which keeps the 4-bucket query accounting byte-identical.
  /// Restored FIFO order is key order, not original publish order — a
  /// *binding* capacity may therefore evict differently after a resume
  /// (same caveat as cross-jN determinism). Throws InputError.
  void restoreFromCkpt(const json::Value& v);

  /// The two per-constraint sort keys of canonicalKey's first pass: the
  /// name-blind and the name-aware serialization of one constraint term.
  struct SortKeys {
    std::string blind;
    std::string named;
  };
  /// Memo of SortKeys by TermId. A term's sort keys depend only on its
  /// structure, and a pool is append-only, so entries never go stale. The
  /// ids are one TermManager's: a memo belongs to one worker (its
  /// SmtSolver) and is never shared between pools or threads.
  using SortKeyMemo = std::unordered_map<TermId, SortKeys>;

  /// Canonical serialization of permanent ∪ assumptions (see file
  /// comment). `slotVars`, when non-null, receives the caller-pool Var
  /// term for each α-slot, in slot order — the model translation table.
  /// `memo`, when non-null, caches the per-constraint sort keys across
  /// calls on one pool; the key is the same with or without it.
  /// True assumptions are skipped; callers must short-circuit constant-
  /// false assumptions *before* keying (they never reach the solver).
  static std::string canonicalKey(const std::vector<TermRef>& permanent,
                                  const std::vector<TermRef>& assumptions,
                                  std::vector<TermRef>* slotVars,
                                  SortKeyMemo* memo = nullptr);

 private:
  struct Entry {
    bool done = false;
    CheckResult result;
    std::vector<uint64_t> slotValues;
    QueryCost cost;
    bool hasModel = true;
    uint8_t preTag = 0;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Entry> map_;
  std::deque<std::string> fifo_;  // completed keys, publish order
  size_t capacity_;
  Stats stats_;
};

}  // namespace adlsym::smt
