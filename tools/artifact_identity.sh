#!/usr/bin/env bash
# Artifact byte-identity check between two adlsym builds: runs the same
# explorations with both and requires equal stdout, exit codes and
# artifacts. Meant for refactors that must not change any output.
#
# Everything runs under --clock=manual. Every portable workload runs on
# every shipped ISA in these shapes:
#   seq   sequential engine with --stats-json --path-forest --path-dot
#         --profile --profile-folded --events --manifest --query-log
#   j4    --jobs 4 with the same flags minus --query-log
#   ckN   --jobs 1 and --jobs 4 with --checkpoint-every=4 --checkpoint
#   runK  `adlsym run --stats-json` on five input vectors (none, all 0,
#         1 2 3 4, all 255, 300 7 65535 9); stats compared after
#         tools/stats_strip, which drops the timing-bearing metrics block
#   seq-S, j4-S  the seq and j4 shapes under --strategy S (bfs, random,
#         coverage)
#   seq-nopre, j4-nopre  the seq and j4 shapes under --prefilter=off
#   j4-noqc  the j4 shape under --qcache=off
# Together the seq, j4, *-nopre and j4-noqc shapes reach every solver
# path: the incremental core with the solver-local cache, fresh solves
# with the shared query cache and fresh solves with no cache, each with
# the abstract prefilter on and off.
# and every governor case below runs on every ISA in three shapes:
#   seq   as above, and its stats must show truncated paths (the budget
#         really fired)
#   j1    --jobs 1 with the j4 flags: the parallel engine on one worker
#   j4    --jobs 4, exit code only: which states a pool evicts, or
#         finishes before an early stop, depends on the schedule
#         (docs/parallelism.md), so only the exit code is comparable
# The flags family runs bitcount3 on every ISA once per shape, so every
# flag the shapes above never pass is parsed by both builds:
#   profile   the `profile` subcommand with the seq flags
#   seq       --coverage --lint --engine=interp --merge with the seq flags
#   ev        --clock=manual:3 --events-snapshot=3 --events=- (the stream
#             goes to stdout) with --stats-json and --manifest
#   gov       --max-steps 50 --solver-timeout-ms 1000 --first-defect with
#             the seq flags
#   j4qc      --jobs 4 --qcache=64 with the j4 flags (bitcount3 fills 14
#             entries, so the cache never evicts)
#   lint      `adlsym lint <isa> prog.img --format=json`
# Parallel runs write events in a schedule-dependent order, so their
# streams are compared after tools/events_canon, and the --jobs 4
# manifests (which hash the raw stream) are skipped.
#
# usage: tools/artifact_identity.sh <old-build-dir> <new-build-dir> <scratch-dir>
# (the new build also provides events_canon, stats_strip and workload_img)
set -euo pipefail

usage="usage: artifact_identity.sh <old-build-dir> <new-build-dir> <scratch-dir>"
old=$(cd "${1:?$usage}" && pwd)
new=$(cd "${2:?$usage}" && pwd)
scratch=${3:?$usage}
canon="$new/tools/events_canon"
strip="$new/tools/stats_strip"
wimg="$new/tools/workload_img"
mkdir -p "$scratch"
scratch=$(cd "$scratch" && pwd)

full=(--stats-json=stats.json --path-forest=forest.json --path-dot=forest.dot
      --profile=profile.json --profile-folded=profile.folded
      --events=events.jsonl --manifest=manifest.json)
ckpt=(--stats-json=stats.json --path-forest=forest.json --events=events.jsonl
      --manifest=manifest.json --checkpoint-every=4 --checkpoint=final.ckpt)

# Governor cases, "<workload>|<flags>": frontier and memory eviction under
# every strategy's victim choice, and early stops at the first defect.
governor=(
  "bitcount3|--max-frontier 1"
  "parse2|--max-frontier 1"
  "bitcount3|--strategy bfs --max-frontier 1"
  "bitcount3|--strategy random --max-frontier 2"
  "bitcount3|--strategy coverage --max-frontier 2"
  "accum5|--mem-budget-mb 1"
  "accum5|--strategy bfs --mem-budget-mb 1"
  "div-by-zero-bad|--first-defect"
  "oob-write-bad|--first-defect"
)

runs=0
fails=0
# invoke <build> <dir> <adlsym args...>: one adlsym command in <dir> next
# to a copy of prog.img, with paths relative to <dir> so both builds echo
# the same argv into the manifest.
invoke() {
  local build=$1 dir=$2
  shift 2
  rm -rf "$dir"
  mkdir -p "$dir"
  cp "$scratch/prog.img" "$dir/prog.img"
  local rc=0
  (cd "$dir" && "$build/tools/adlsym" "$@" > stdout.txt 2> /dev/null) || rc=$?
  echo "$rc" > "$dir/exit.txt"
}

# run <build> <dir> <isa> <flags...>: one exploration under --clock=manual.
run() {
  local build=$1 dir=$2 isa=$3
  shift 3
  invoke "$build" "$dir" explore "$isa" prog.img --clock=manual "$@"
}

# concrete <build> <dir> <isa> <inputs...>: one `adlsym run` in <dir>.
concrete() {
  local build=$1 dir=$2 isa=$3
  shift 3
  rm -rf "$dir"
  mkdir -p "$dir"
  local rc=0
  (cd "$dir" && "$build/tools/adlsym" run "$isa" "$scratch/prog.img" "$@" \
      --stats-json=stats.json > stdout.txt 2> /dev/null) || rc=$?
  echo "$rc" > "$dir/exit.txt"
  if [ -f "$dir/stats.json" ]; then
    "$strip" "$dir/stats.json" > "$dir/stats.strip"
    rm "$dir/stats.json"
  fi
}

# compare <case> <canon-events:0|1> <skip-manifest:0|1|exit>
# (skip-manifest "exit" compares the exit codes only)
compare() {
  local c=$1 canonEvents=$2 skipManifest=$3 a="$scratch/old/$1" b="$scratch/new/$1"
  runs=$((runs + 1))
  if [ "$skipManifest" = exit ]; then
    if ! cmp -s "$a/exit.txt" "$b/exit.txt"; then
      echo "DIFF $c: exit code" >&2
      fails=$((fails + 1))
    fi
    return
  fi
  if [ "$canonEvents" = 1 ]; then
    for d in "$a" "$b"; do
      "$canon" "$d/events.jsonl" > "$d/events.canon"
      rm "$d/events.jsonl"
    done
  fi
  if [ "$skipManifest" = 1 ]; then rm -f "$a/manifest.json" "$b/manifest.json"; fi
  if ! diff -r "$a" "$b" > /dev/null; then
    echo "DIFF $c:" >&2
    diff -rq "$a" "$b" >&2 || true
    fails=$((fails + 1))
  fi
}

for prog in bitcount3 max3 checksum2 parse2 earlyexit4; do
  for isa in acc8 m16 rv32e stk16; do
    "$wimg" "$prog" "$isa" > "$scratch/prog.img"
    for side in old new; do
      build=$old
      [ "$side" = new ] && build=$new
      base="$scratch/$side/$prog-$isa"
      run "$build" "$base-seq" "$isa" "${full[@]}" --query-log=qlog
      run "$build" "$base-j4" "$isa" "${full[@]}" --jobs 4
      run "$build" "$base-ck1" "$isa" "${ckpt[@]}" --jobs 1
      run "$build" "$base-ck4" "$isa" "${ckpt[@]}" --jobs 4
      run "$build" "$base-seq-nopre" "$isa" "${full[@]}" --query-log=qlog \
        --prefilter=off
      run "$build" "$base-j4-nopre" "$isa" "${full[@]}" --jobs 4 \
        --prefilter=off
      run "$build" "$base-j4-noqc" "$isa" "${full[@]}" --jobs 4 --qcache=off
    done
    compare "$prog-$isa-seq" 0 0
    compare "$prog-$isa-j4" 1 1
    compare "$prog-$isa-ck1" 1 0
    compare "$prog-$isa-ck4" 1 1
    compare "$prog-$isa-seq-nopre" 0 0
    compare "$prog-$isa-j4-nopre" 1 1
    compare "$prog-$isa-j4-noqc" 1 1
    for strategy in bfs random coverage; do
      for side in old new; do
        build=$old
        [ "$side" = new ] && build=$new
        base="$scratch/$side/$prog-$isa"
        run "$build" "$base-seq-$strategy" "$isa" "${full[@]}" \
          --query-log=qlog --strategy "$strategy"
        run "$build" "$base-j4-$strategy" "$isa" "${full[@]}" --jobs 4 \
          --strategy "$strategy"
      done
      compare "$prog-$isa-seq-$strategy" 0 0
      compare "$prog-$isa-j4-$strategy" 1 1
    done
    k=0
    for vec in "" "0 0 0 0" "1 2 3 4" "255 255 255 255" "300 7 65535 9"; do
      for side in old new; do
        build=$old
        [ "$side" = new ] && build=$new
        # shellcheck disable=SC2086  # split the vector into arguments
        concrete "$build" "$scratch/$side/$prog-$isa-run$k" "$isa" $vec
      done
      compare "$prog-$isa-run$k" 0 0
      k=$((k + 1))
    done
  done
done

g=0
for spec in "${governor[@]}"; do
  prog=${spec%%|*}
  read -r -a flags <<< "${spec#*|}"
  for isa in acc8 m16 rv32e stk16; do
    "$wimg" "$prog" "$isa" > "$scratch/prog.img"
    c="gov$g-$prog-$isa"
    for side in old new; do
      build=$old
      [ "$side" = new ] && build=$new
      run "$build" "$scratch/$side/$c-seq" "$isa" "${full[@]}" \
        --query-log=qlog "${flags[@]}"
      run "$build" "$scratch/$side/$c-j1" "$isa" "${full[@]}" --jobs 1 \
        "${flags[@]}"
      run "$build" "$scratch/$side/$c-j4" "$isa" "${full[@]}" --jobs 4 \
        "${flags[@]}"
    done
    if ! grep -q '"states_truncated":[1-9]' \
        "$scratch/new/$c-seq/stats.json"; then
      echo "NO TRUNCATION $c: '${spec#*|}' did not fire" >&2
      fails=$((fails + 1))
    fi
    compare "$c-seq" 0 0
    compare "$c-j1" 1 0
    compare "$c-j4" 0 exit
  done
  g=$((g + 1))
done

for isa in acc8 m16 rv32e stk16; do
  "$wimg" bitcount3 "$isa" > "$scratch/prog.img"
  for side in old new; do
    build=$old
    [ "$side" = new ] && build=$new
    base="$scratch/$side/flags-$isa"
    invoke "$build" "$base-profile" profile "$isa" prog.img --clock=manual \
      "${full[@]}" --query-log=qlog
    run "$build" "$base-seq" "$isa" "${full[@]}" --query-log=qlog \
      --coverage --lint --engine=interp --merge
    run "$build" "$base-ev" "$isa" --clock=manual:3 --events-snapshot=3 \
      --events=- --stats-json=stats.json --manifest=manifest.json
    run "$build" "$base-gov" "$isa" "${full[@]}" --query-log=qlog \
      --max-steps 50 --solver-timeout-ms 1000 --first-defect
    run "$build" "$base-j4qc" "$isa" "${full[@]}" --jobs 4 --qcache=64
    invoke "$build" "$base-lint" lint "$isa" prog.img --format=json
  done
  compare "flags-$isa-profile" 0 0
  compare "flags-$isa-seq" 0 0
  compare "flags-$isa-ev" 0 0
  compare "flags-$isa-gov" 0 0
  compare "flags-$isa-j4qc" 1 1
  compare "flags-$isa-lint" 0 0
done

echo "artifact_identity: $runs cases, $fails differing"
test "$fails" -eq 0
