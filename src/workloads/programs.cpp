#include "workloads/programs.h"

#include "support/error.h"
#include "support/strings.h"

namespace adlsym::workloads {

// Register conventions inside this file: v0..v2 are values, v3 is a loop
// counter, v4 is a bound/scratch.

PProgram progSum(unsigned n) {
  check(n >= 1 && n <= 64, "progSum: n out of range");
  PProgram p;
  p.li(0, 0);
  for (unsigned i = 0; i < n; ++i) {
    p.in(1);
    p.add(0, 0, 1);
  }
  p.out(0);
  p.halt(0);
  return p;
}

PProgram progMax(unsigned n) {
  check(n >= 2 && n <= 16, "progMax: n out of range");
  PProgram p;
  p.in(0);  // current max
  for (unsigned i = 1; i < n; ++i) {
    p.in(1);
    const std::string keep = formatStr("keep%u", i);
    p.bltu(1, 0, keep);  // new <= max? (strictly less keeps; equal replaces)
    p.mov(0, 1);
    p.label(keep);
  }
  p.out(0);
  p.halt(0);
  return p;
}

PProgram progEarlyExit(unsigned bound) {
  check(bound >= 1 && bound <= 64, "progEarlyExit: bound out of range");
  PProgram p;
  p.li(3, 0);            // counter
  p.li(4, 0);            // zero constant
  p.label("loop");
  p.in(0);
  p.beq(0, 4, "done");   // stop on zero input
  p.li(2, 1);
  p.add(3, 3, 2);        // ++count
  p.li(2, static_cast<uint8_t>(bound));
  p.bltu(3, 2, "loop");
  p.label("done");
  p.out(3);
  p.halt(0);
  return p;
}

PProgram progBitcount(unsigned bits) {
  check(bits >= 1 && bits <= 8, "progBitcount: bits out of range");
  PProgram p;
  p.in(0);      // value
  p.li(1, 0);   // popcount
  p.li(4, 0);   // zero
  for (unsigned i = 0; i < bits; ++i) {
    p.mov(2, 0);
    if (i > 0) p.shri(2, 2, i);
    p.li(3, 1);
    p.andr(2, 2, 3);
    const std::string skip = formatStr("skip%u", i);
    p.beq(2, 4, skip);
    p.li(3, 1);
    p.add(1, 1, 3);
    p.label(skip);
  }
  p.out(1);
  p.halt(0);
  return p;
}

PProgram progFib(unsigned n) {
  check(n >= 1 && n <= 255, "progFib: n out of range");
  PProgram p;
  p.li(0, 0);  // fib(i)
  p.li(1, 1);  // fib(i+1)
  p.li(3, 0);  // i
  p.li(4, static_cast<uint8_t>(n));
  p.label("loop");
  p.bgeu(3, 4, "done");
  p.add(2, 0, 1);  // next
  p.mov(0, 1);
  p.mov(1, 2);
  p.li(2, 1);
  p.add(3, 3, 2);
  p.jmp("loop");
  p.label("done");
  p.out(0);
  p.halt(0);
  return p;
}

PProgram progSort(unsigned n) {
  check(n >= 2 && n <= 8, "progSort: n out of range");
  PProgram p;
  p.array("buf", std::vector<uint8_t>(n, 0));
  // Read inputs into buf.
  for (unsigned i = 0; i < n; ++i) {
    p.in(0);
    p.li(1, static_cast<uint8_t>(i));
    p.storeArr("buf", 1, 0);
  }
  // Bubble sort with concrete loop bounds (indices are concrete; only the
  // comparisons are symbolic).
  for (unsigned pass = 0; pass + 1 < n; ++pass) {
    for (unsigned j = 0; j + 1 < n - pass; ++j) {
      p.li(3, static_cast<uint8_t>(j));
      p.li(4, static_cast<uint8_t>(j + 1));
      p.loadArr(0, "buf", 3);
      p.loadArr(1, "buf", 4);
      const std::string done = formatStr("s%u_%u", pass, j);
      p.bltu(0, 1, done);       // already ordered (strict)
      p.beq(0, 1, done);        // equal: no swap
      p.storeArr("buf", 3, 1);  // swap
      p.storeArr("buf", 4, 0);
      p.label(done);
    }
  }
  // Assert sortedness pairwise and output.
  for (unsigned i = 0; i + 1 < n; ++i) {
    p.li(3, static_cast<uint8_t>(i));
    p.li(4, static_cast<uint8_t>(i + 1));
    p.loadArr(0, "buf", 3);
    p.loadArr(1, "buf", 4);
    // max(a,b) trick: assert a <= b by checking min: if b < a, the sort is
    // broken -> assert 0 == 1 equivalent via AssertEqR on distinct consts.
    const std::string ok = formatStr("ok%u", i);
    p.bgeu(1, 0, ok);
    p.li(2, 0);
    p.li(3, 1);
    p.assertEq(2, 3);  // unreachable if sort is correct
    p.label(ok);
  }
  for (unsigned i = 0; i < n; ++i) {
    p.li(3, static_cast<uint8_t>(i));
    p.loadArr(0, "buf", 3);
    p.out(0);
  }
  p.halt(0);
  return p;
}

PProgram progFind(std::vector<uint8_t> table) {
  check(!table.empty() && table.size() <= 64, "progFind: bad table size");
  const uint8_t size = static_cast<uint8_t>(table.size());
  PProgram p;
  p.array("tab", std::move(table));
  p.in(0);     // needle
  p.li(3, 0);  // index
  p.li(4, size);
  p.label("loop");
  p.bgeu(3, 4, "miss");
  p.loadArr(1, "tab", 3);
  p.beq(1, 0, "hit");
  p.li(2, 1);
  p.add(3, 3, 2);
  p.jmp("loop");
  p.label("hit");
  p.out(3);
  p.halt(1);
  p.label("miss");
  p.li(2, 255);
  p.out(2);
  p.halt(0);
  return p;
}

PProgram progParse(unsigned records) {
  check(records >= 1 && records <= 8, "progParse: records out of range");
  PProgram p;
  p.li(0, 0);  // accumulator of all parsed payloads
  for (unsigned r = 0; r < records; ++r) {
    const std::string one = formatStr("one%u", r);
    const std::string two = formatStr("two%u", r);
    const std::string next = formatStr("next%u", r);
    p.in(1);                  // type tag
    p.li(2, 1);
    p.beq(1, 2, one);
    p.li(2, 2);
    p.beq(1, 2, two);
    p.out(1);                 // report the offending tag
    p.halt(1);                // reject
    p.label(one);
    p.in(3);                  // single payload byte
    p.add(0, 0, 3);
    p.jmp(next);
    p.label(two);
    p.in(3);
    p.in(4);
    p.add(3, 3, 4);           // two payload bytes, summed
    p.add(0, 0, 3);
    p.label(next);
  }
  p.out(0);
  p.halt(0);
  return p;
}

PProgram progAccum(unsigned forks) {
  PProgram p;
  p.in(0);
  p.li(2, 0);
  for (unsigned i = 0; i < forks; ++i) {
    const std::string skip = formatStr("skip%u", i);
    p.in(1);
    p.beq(1, 2, skip);
    p.add(0, 0, 1);
    p.label(skip);
  }
  p.li(3, 0);
  p.li(4, 255);
  p.label("loop");
  p.bgeu(3, 4, "done");
  p.shli(1, 0, 1);
  p.xorr(0, 0, 1);
  p.add(0, 0, 3);
  p.li(1, 1);
  p.add(3, 3, 1);
  p.jmp("loop");
  p.label("done");
  p.out(0);
  p.halt(0);
  return p;
}

PProgram progChecksum(unsigned n) {
  check(n >= 1 && n <= 32, "progChecksum: n out of range");
  PProgram p;
  p.li(0, 0);
  for (unsigned i = 0; i < n; ++i) {
    p.in(1);
    p.xorr(0, 0, 1);
  }
  p.in(2);  // expected checksum
  p.beq(0, 2, "good");
  p.li(3, 1);
  p.out(3);
  p.halt(1);
  p.label("good");
  p.li(3, 0);
  p.out(3);
  p.halt(0);
  return p;
}

}  // namespace adlsym::workloads
