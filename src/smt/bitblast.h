// Tseitin bit-blaster: lowers bitvector terms to CNF over the SAT solver.
// Each term is translated once (results cached); gate literals are
// structurally hashed so shared subcircuits produce shared clauses. This is
// the eager QF_BV pipeline of the SMT substrate (DESIGN.md S2).
#pragma once

#include <deque>
#include <vector>

#include "smt/sat.h"
#include "smt/term.h"

namespace adlsym::smt {

class BitBlaster {
 public:
  BitBlaster(TermManager& tm, SatSolver& sat);

  /// Return to the just-constructed state over a SAT core that has just
  /// been reset (SatSolver::reset()): forget every blasted term and gate,
  /// zero the stats, and allocate the constant-true literal again. Table
  /// capacity is kept.
  void reset();

  /// SAT literal representing a width-1 term; encodes the term's cone into
  /// the solver on first use.
  Lit litFor(TermRef t);

  /// Bits of an arbitrary term, LSB first.
  const std::vector<Lit>& bitsFor(TermRef t);

  /// Concrete value of a term under the solver's current model (call only
  /// after SatResult::Sat; the term must have been blasted).
  uint64_t modelValueOf(TermRef t);

  /// Every Var term that has been blasted so far, with its SAT bits. Used to
  /// snapshot a full model right after a Sat answer, before any further
  /// incremental blasting disturbs the assignment trail.
  const std::vector<std::pair<TermId, std::vector<Lit>>>& varTerms() const {
    return varTerms_;
  }

  struct Stats {
    uint64_t gates = 0;      // fresh gate variables introduced
    uint64_t cacheHits = 0;  // structural gate-cache hits
    uint64_t termsBlasted = 0;

    /// Aggregate (fresh-solve mode sums its scratch blaster over queries).
    Stats& operator+=(const Stats& o) {
      gates += o.gates;
      cacheHits += o.cacheHits;
      termsBlasted += o.termsBlasted;
      return *this;
    }
  };
  const Stats& stats() const { return stats_; }

 private:
  Lit trueLit() const { return trueLit_; }
  Lit falseLit() const { return ~trueLit_; }
  bool isTrueLit(Lit l) const { return l == trueLit_; }
  bool isFalseLit(Lit l) const { return l == ~trueLit_; }

  Lit freshLit();
  Lit mkAnd2(Lit a, Lit b);
  Lit mkOr2(Lit a, Lit b) { return ~mkAnd2(~a, ~b); }
  Lit mkXor2(Lit a, Lit b);
  Lit mkXnor2(Lit a, Lit b) { return ~mkXor2(a, b); }
  Lit mkMux(Lit c, Lit t, Lit e);
  Lit andAll(const std::vector<Lit>& ls);
  Lit orAll(const std::vector<Lit>& ls);

  using Bits = std::vector<Lit>;
  Bits addCirc(const Bits& a, const Bits& b, Lit carryIn);
  Bits negCirc(const Bits& a);
  Bits mulCirc(const Bits& a, const Bits& b);
  /// Restoring divider; outputs quotient and remainder (SMT-LIB div-by-zero
  /// semantics already applied).
  void divremCirc(const Bits& a, const Bits& b, Bits& quot, Bits& rem);
  Bits shiftCirc(Kind kind, const Bits& a, const Bits& sh);
  Lit ultCirc(const Bits& a, const Bits& b);
  Lit uleCirc(const Bits& a, const Bits& b);
  Bits muxBits(Lit c, const Bits& t, const Bits& e);

  const Bits& blast(TermId id);
  const Bits* findBlasted(TermId id) const {
    return id < blastedSlot_.size() && blastedSlot_[id] != 0
               ? &blasted_[blastedSlot_[id] - 1]
               : nullptr;
  }

  /// Structural gate cache: open addressing over the normalised input
  /// pair (a.x << 32 | b.x), linear probing, cleared in O(entries used).
  class GateTable {
   public:
    /// The output slot for `key`: *found tells whether it holds a cached
    /// gate; if not, the caller stores the new gate's output there before
    /// the next lookup.
    Lit& lookup(uint64_t key, bool* found);
    void clear();

   private:
    static constexpr uint64_t kEmpty = ~uint64_t{0};  // no valid lit pair
    struct Slot {
      uint64_t key = kEmpty;
      Lit out;
    };
    size_t probe(uint64_t key) const;
    std::vector<Slot> slots_;     // power-of-two size
    std::vector<uint32_t> used_;  // occupied slot indices
  };

  TermManager& tm_;
  SatSolver& sat_;
  Lit trueLit_;
  // Blasted terms: blastedSlot_[id] is 1 + the index into blasted_ (0 =
  // not blasted); blastedIds_ lists the ids set, so reset() is
  // O(terms blasted). A deque keeps handed-out Bits references stable.
  std::vector<uint32_t> blastedSlot_;
  std::deque<Bits> blasted_;
  std::vector<TermId> blastedIds_;
  std::vector<std::pair<TermId, Bits>> varTerms_;
  GateTable andCache_;
  GateTable xorCache_;
  Stats stats_;
};

}  // namespace adlsym::smt
