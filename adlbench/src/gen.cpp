#include "gen.h"

#include <utility>
#include <array>
#include <numeric>

#include "support/error.h"
#include "support/rng.h"
#include "support/strings.h"

namespace adlbench {

using adlsym::Rng;
using adlsym::formatStr;
using adlsym::core::DefectKind;
using adlsym::workloads::PProgram;

namespace {

uint8_t byte(Rng& rng) { return static_cast<uint8_t>(rng.below(256)); }

// Fisher-Yates over 0..n-1 driven by the program's own stream.
std::vector<unsigned> shuffled(Rng& rng, unsigned n) {
  std::vector<unsigned> v(n);
  std::iota(v.begin(), v.end(), 0u);
  for (unsigned i = n; i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
  return v;
}

// Odd multipliers of the hash rounds. Fixed, because the multiplier sets
// how hard the masked compares are to solve; seeds vary the compared values.
constexpr std::array<uint8_t, 4> kHashMultipliers = {3, 5, 7, 11};

}  // namespace

uint64_t streamSeed(uint64_t seed, const std::string& family, unsigned index) {
  // FNV-1a over the family name, mixed with seed and index by the Rng's
  // own SplitMix seeding.
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : family) h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ull;
  Rng mix(seed ^ h ^ (uint64_t{index} << 32));
  return mix.next();
}

GenProgram genFirmware(uint64_t seed, unsigned guards, unsigned itersPerGuard) {
  Rng rng(seed);
  GenProgram g;
  g.family = "firmware";
  PProgram& p = g.ir;
  // v0 = mode byte (symbolic), v1 = scratch, v2 = accumulator,
  // v3 = outer counter, v4 = inner counter (also the table index).
  p.in(0);
  p.li(2, byte(rng));
  const std::vector<unsigned> bitOrder = shuffled(rng, 8);
  // Inner counts that divide itersPerGuard exactly, so every seed does the
  // same number of iterations; tables stay within one 128-byte m16 array.
  std::vector<unsigned> inners;
  for (unsigned d = 16; d < 64; ++d) {
    if (itersPerGuard % d == 0 && itersPerGuard / d <= 255) inners.push_back(d);
  }
  adlsym::check(!inners.empty(), "genFirmware: no inner count divides itersPerGuard");
  for (unsigned k = 0; k < guards; ++k) {
    const unsigned inner = inners[rng.below(inners.size())];
    const unsigned outer = itersPerGuard / inner;
    std::vector<uint8_t> table(inner + 1);
    for (uint8_t& b : table) b = byte(rng);
    const std::string tab = formatStr("t%u", k);
    const std::string skip = formatStr("skip%u", k);
    const std::string outerL = formatStr("o%u", k);
    const std::string innerL = formatStr("i%u", k);
    p.array(tab, std::move(table));
    const unsigned bit = bitOrder[k];
    p.mov(1, 0);
    if (bit != 0) p.shri(1, 1, bit);
    p.li(3, 1);
    p.andr(1, 1, 3);
    p.li(3, 0);
    if (rng.below(2) == 0) p.beq(1, 3, skip); else p.bne(1, 3, skip);
    p.li(3, static_cast<uint8_t>(outer));
    p.label(outerL);
    p.li(4, static_cast<uint8_t>(inner));
    p.label(innerL);
    p.loadArr(1, tab, 4);
    switch (rng.below(3)) {
      case 0: p.add(2, 2, 1); break;
      case 1: p.xorr(2, 2, 1); break;
      default: p.sub(2, 2, 1); break;
    }
    p.li(1, static_cast<uint8_t>(byte(rng) | 1));  // odd LCG multiplier
    p.mul(2, 2, 1);
    p.li(1, byte(rng));
    if (rng.below(2) == 0) p.add(2, 2, 1); else p.xorr(2, 2, 1);
    p.li(1, 1);
    p.sub(4, 4, 1);
    p.li(1, 0);
    p.bne(4, 1, innerL);
    p.li(1, 1);
    p.sub(3, 3, 1);
    p.li(1, 0);
    p.bne(3, 1, outerL);
    p.label(skip);
  }
  p.out(2);
  p.halt(0);
  g.closedFormPaths = uint64_t{1} << guards;
  return g;
}

GenProgram genHashChain(uint64_t seed, unsigned n, bool plant) {
  Rng rng(seed);
  GenProgram g;
  g.family = "hash";
  PProgram& p = g.ir;
  // v0 = h, v1 = input byte, v2 = scratch, v3 = match count, v4 = const.
  p.li(0, byte(rng));
  p.li(3, 0);
  for (unsigned i = 0; i < n; ++i) {
    const std::string skip = formatStr("skip%u", i);
    p.in(1);
    if (plant && i + 1 == n) {
      // Divides by the fresh input byte, so every path reaching the last
      // round forks one division-by-zero path.
      p.li(2, static_cast<uint8_t>(1 + rng.below(255)));
      p.divu(2, 2, 1);
      p.out(2);
    }
    p.li(2, kHashMultipliers[i % kHashMultipliers.size()]);
    p.mul(0, 0, 2);
    p.add(0, 0, 1);
    // A fresh input byte makes both sides of every compare satisfiable.
    // The mask's position is fixed per round (the carry chain below the
    // mask sets the solver's work); the seed picks the compared value.
    const auto mask = static_cast<uint8_t>(0x07u << (i % 6));
    p.li(2, mask);
    p.andr(2, 0, 2);
    p.li(4, static_cast<uint8_t>(byte(rng) & mask));
    p.bne(2, 4, skip);
    p.li(2, 1);
    p.add(3, 3, 2);
    p.label(skip);
  }
  p.out(0);
  p.out(3);
  p.halt(0);
  g.closedFormPaths = (uint64_t{1} << n) + (plant ? uint64_t{1} << (n - 1) : 0);
  if (plant) g.planted = DefectKind::DivByZero;
  return g;
}

GenProgram genSort(uint64_t seed, unsigned n) {
  Rng rng(seed);
  GenProgram g;
  g.family = "sort";
  PProgram& p = g.ir;
  const bool ascending = rng.below(2) == 0;
  const std::vector<unsigned> slot = shuffled(rng, n);
  p.array("buf", std::vector<uint8_t>(n, 0));
  for (unsigned i = 0; i < n; ++i) {
    p.in(0);
    p.li(1, static_cast<uint8_t>(slot[i]));
    p.storeArr("buf", 1, 0);
  }
  for (unsigned pass = 0; pass + 1 < n; ++pass) {
    for (unsigned j = 0; j + 1 < n - pass; ++j) {
      const std::string done = formatStr("s%u_%u", pass, j);
      p.li(3, static_cast<uint8_t>(j));
      p.li(4, static_cast<uint8_t>(j + 1));
      p.loadArr(0, "buf", 3);
      p.loadArr(1, "buf", 4);
      if (ascending) p.bltu(0, 1, done); else p.bltu(1, 0, done);
      p.beq(0, 1, done);
      p.storeArr("buf", 3, 1);
      p.storeArr("buf", 4, 0);
      p.label(done);
    }
  }
  for (unsigned i = 0; i + 1 < n; ++i) {
    const std::string ok = formatStr("ok%u", i);
    p.li(3, static_cast<uint8_t>(i));
    p.li(4, static_cast<uint8_t>(i + 1));
    p.loadArr(0, "buf", 3);
    p.loadArr(1, "buf", 4);
    if (ascending) p.bgeu(1, 0, ok); else p.bgeu(0, 1, ok);
    p.li(2, 0);
    p.li(3, 1);
    p.assertEq(2, 3);
    p.label(ok);
  }
  for (unsigned i = 0; i < n; ++i) {
    p.li(3, static_cast<uint8_t>(i));
    p.loadArr(0, "buf", 3);
    p.out(0);
  }
  p.halt(0);
  // One path per weak order of the inputs: the ordered Bell numbers.
  std::vector<uint64_t> fubini{1};
  for (unsigned m = 1; m <= n; ++m) {
    uint64_t f = 0, binom = 1;  // binom = C(m, k)
    for (unsigned k = 1; k <= m; ++k) {
      binom = binom * (m - k + 1) / k;
      f += binom * fubini[m - k];
    }
    fubini.push_back(f);
  }
  g.closedFormPaths = fubini[n];
  return g;
}

GenProgram genTlv(uint64_t seed, unsigned records, bool plant) {
  Rng rng(seed);
  GenProgram g;
  g.family = "tlv";
  PProgram& p = g.ir;
  // v0 = accumulator, v1 = tag, v2 = scratch, v3/v4 = payload.
  uint64_t paths = 0;
  uint64_t live = 1;  // paths still parsing when record r begins
  p.li(0, 0);
  for (unsigned r = 0; r < records; ++r) {
    const std::string one = formatStr("one%u", r);
    const std::string two = formatStr("two%u", r);
    const std::string next = formatStr("next%u", r);
    const uint8_t t1 = static_cast<uint8_t>(1 + rng.below(254));
    const uint8_t t2 = static_cast<uint8_t>(t1 + 1 + rng.below(254));  // != t1
    const bool limited = r % 2 == 1;
    const uint8_t limit = static_cast<uint8_t>(96 + rng.below(64));
    p.in(1);
    p.li(2, t1);
    p.beq(1, 2, one);
    p.li(2, t2);
    p.beq(1, 2, two);
    p.out(1);
    p.halt(1);
    p.label(one);
    p.in(3);
    if (limited) {
      const std::string ok = formatStr("ok%u", r);
      p.li(2, limit);
      p.bltu(3, 2, ok);
      p.out(3);
      p.halt(2);
      p.label(ok);
    }
    // The planted checked add sits in record 1, where the accumulator
    // holds one record's payload: both overflow outcomes stay feasible and
    // each path parsing record 1 forks one trap path.
    if (plant && r == 1) p.addv(0, 0, 3); else p.add(0, 0, 3);
    p.jmp(next);
    p.label(two);
    p.in(3);
    p.in(4);
    if (rng.below(2) == 0) p.add(3, 3, 4); else p.xorr(3, 3, 4);
    p.add(0, 0, 3);
    p.label(next);
    paths += live * (limited ? 2 : 1);  // terminal outcomes of record r
    if (plant && r == 1) paths += live;  // the trap paths
    live *= 2;                          // one-byte and two-byte records go on
  }
  p.out(0);
  p.halt(0);
  g.closedFormPaths = paths + live;
  if (plant) g.planted = DefectKind::Trap;
  return g;
}

GenProgram genBitcount(uint64_t seed, unsigned bits) {
  Rng rng(seed);
  GenProgram g;
  g.family = "bitcount";
  PProgram& p = g.ir;
  // v0 = keyed input, v1 = weighted count, v2/v3 = scratch, v4 = zero.
  p.in(0);
  p.li(1, byte(rng));
  p.xorr(0, 0, 1);
  p.li(1, 0);
  p.li(4, 0);
  const std::vector<unsigned> order = shuffled(rng, 8);
  for (unsigned k = 0; k < bits; ++k) {
    const std::string skip = formatStr("skip%u", k);
    p.mov(2, 0);
    if (order[k] != 0) p.shri(2, 2, order[k]);
    p.li(3, 1);
    p.andr(2, 2, 3);
    p.beq(2, 4, skip);
    p.li(3, static_cast<uint8_t>(1 + rng.below(8)));
    p.add(1, 1, 3);
    p.label(skip);
  }
  p.out(1);
  p.halt(0);
  g.closedFormPaths = uint64_t{1} << bits;
  return g;
}

}  // namespace adlbench
