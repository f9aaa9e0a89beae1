#!/usr/bin/env python3
"""Build adlbench from the checkout's sources and run one measurement.

    python3 adlbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 adlbench/run.py --selftest

The build (CMake, adlbench/CMakeLists.txt) goes to .bench_build/adlbench at
the checkout root and is reused by later runs; scratch files of the
ckpt-events workload go to .bench_build/adlbench-tmp. Build output goes to
stderr, so the last stdout line is the benchmark's JSON result. Exits
non-zero, printing no result, when the build or the run fails.
"""
import argparse
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "adlbench")
TMP = os.path.join(ROOT, ".bench_build", "adlbench-tmp")
RUN_TIMEOUT_S = 170  # a run must end within 180 s

# Compilers and the benchmark keep their scratch files inside the checkout.
os.makedirs(TMP, exist_ok=True)
ENV = dict(os.environ, TMPDIR=TMP)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=ENV).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # retry configure next time
            return False
    cmd = ["cmake", "--build", BUILD, "--parallel", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, env=ENV).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed")
    ap.add_argument("--seconds")
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.workload is not None and not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", args.workload):
        ap.error("bad workload name %r" % args.workload)
    if not build():
        print("adlbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        cmd = [os.path.join(BUILD, "adlbench_selftest")]
    else:
        tmp = os.path.join(TMP, args.workload)
        os.makedirs(tmp, exist_ok=True)
        cmd = [os.path.join(BUILD, "adlbench"), "--workload", args.workload,
               "--seed", args.seed, "--seconds", args.seconds,
               "--trace", args.trace, "--tmpdir", tmp]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, env=ENV).returncode
    except subprocess.TimeoutExpired:
        print("adlbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
