#!/usr/bin/env bash
# Full local gate: formatting, the regular build + tests, clang-tidy,
# structural validation of the committed bench baselines, and an
# ASan+UBSan build + tests (build-san/). This is what CI runs.
set -eu
cd "$(dirname "$0")/.."

echo "== format check"
tools/format_check.sh

echo "== build (RelWithDebInfo)"
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
echo "== tests"
(cd build && ctest --output-on-failure -j"$(nproc)")

echo "== clang-tidy"
tools/tidy_check.sh build

echo "== bench baseline validation"
build/tools/bench_diff --validate BENCH_*.json

# The stats document is a versioned interface (docs/observability.md):
# any new top-level key must be added to the stats_strip allowlist (and
# documented) or this gate fails, for the explore and the run
# documents alike. The explore run also exercises the flight
# recorder end to end: the event stream must reconcile against the
# stats counters and the run manifest must verify.
echo "== stats schema key allowlist + flight-recorder reconciliation"
ckdir=$(mktemp -d)
printf '_start:\n  in8 x5\n  beq x5, x0, zero\n  out x5\n  halti 1\nzero:\n  halti 2\n' > "$ckdir/ck.s"
build/tools/adlsym asm rv32e "$ckdir/ck.s" > "$ckdir/ck.img"
build/tools/adlsym explore rv32e "$ckdir/ck.img" --clock=manual \
  --events="$ckdir/events.jsonl" --manifest="$ckdir/manifest.json" \
  --stats-json="$ckdir/stats.json" > /dev/null
build/tools/stats_strip --check-keys "$ckdir/stats.json"
build/tools/adlsym run rv32e "$ckdir/ck.img" 7 \
  --stats-json="$ckdir/run-stats.json" > /dev/null
build/tools/stats_strip --check-keys "$ckdir/run-stats.json"
build/tools/adlsym events summarize "$ckdir/events.jsonl" \
  --stats="$ckdir/stats.json" > /dev/null
build/tools/adlsym verify-run "$ckdir/manifest.json" > /dev/null
rm -rf "$ckdir"

echo "== build (ASan+UBSan)"
cmake -B build-san -S . -DADLSYM_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build build-san -j >/dev/null
echo "== tests (ASan+UBSan)"
(cd build-san && ctest --output-on-failure -j"$(nproc)")

echo "== lint shipped ISAs"
for isa in rv32e m16 acc8 stk16; do
  build/tools/adlsym lint "$isa" >/dev/null
  echo "  $isa: clean"
done

echo "check.sh: all gates passed"
