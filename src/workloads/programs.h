// Benchmark workload corpus (DESIGN.md S10): portable programs written in
// the pgen IR. Each returns a fresh PProgram that can be lowered to any
// shipped ISA. Path-count formulas below assume unconstrained symbolic
// inputs.
#pragma once

#include "workloads/pgen.h"

namespace adlsym::workloads {

/// Read n inputs, output their 8-bit sum, halt 0. Straight-line: 1 path.
PProgram progSum(unsigned n);

/// Read n inputs, output the maximum: 2^(n-1) .. n!-ish paths (branchy).
PProgram progMax(unsigned n);

/// Read inputs until one is zero or `bound` reads happened: bound+1 paths.
PProgram progEarlyExit(unsigned bound);

/// Population count of one input over `bits` bit positions: 2^bits paths.
PProgram progBitcount(unsigned bits);

/// Fibonacci(n) mod 256 with a concrete loop: 1 long path (throughput
/// workload for E2).
PProgram progFib(unsigned n);

/// Read n inputs into an array, bubble-sort, assert sortedness, output all:
/// ~n!/2-ish paths.
PProgram progSort(unsigned n);

/// Find one symbolic needle in a fixed table: (hits+1) paths.
PProgram progFind(std::vector<uint8_t> table);

/// XOR checksum of n inputs compared against a trailing checksum input:
/// 2 paths (match / mismatch) with a deep constraint chain.
PProgram progChecksum(unsigned n);

/// Tiny TLV protocol parser: `records` type-tagged records from the input
/// stream (type 1: one payload byte; type 2: two payload bytes, summed;
/// anything else: reject with exit 1). 3^records-ish paths — the classic
/// shape symbolic test generation is used for.
PProgram progParse(unsigned records);

/// `forks` symbolic branches, then a concrete 255-round loop folding the
/// round counter into a symbolic accumulator: 2^forks paths. Every path
/// mints ~800 fresh terms, so at forks=5 the term pools outgrow the
/// smallest --mem-budget-mb (1 MiB) after a few dozen paths and the
/// memory governor evicts.
PProgram progAccum(unsigned forks);

}  // namespace adlsym::workloads
