#!/usr/bin/env python3
"""JanusEDA benchmark entry point.

    python3 perfbench/run.py --workload flat_mult|hier_mesh|eco_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark program and the janus
library from source into .bench_build/ (first run only; later runs are
no-op rebuilds), writes the workload's seeded inputs into .bench_work/,
runs the workload in a fresh process and relays its output. The last line
of standard output is the result: one JSON object with the keys correct,
attempted, failed and metrics. Build logs go to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("flat_mult", "hier_mesh", "eco_mixed")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("JanusEDA sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "janus_perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "janus_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        exe = build()
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)

    work = os.path.join(WORK, "%s-s%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    subprocess.run([exe, "gen"] + common, check=True)

    proc = subprocess.run([exe, "run"] + common +
                          ["--seconds", repr(args.seconds),
                           "--trace", str(args.trace)])
    shutil.rmtree(work, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
