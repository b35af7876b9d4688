#!/usr/bin/env python3
"""Builds the paai benchmark from source and runs one workload.

    python3 perfbench/run.py --workload mc_fast --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and compiles
src/ plus the perfbench driver into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only re-check the build. The last
line of stdout is the driver's JSON result. Exits non-zero, without a
result, when the program sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mc_fast", "crypto_real", "serve_replay", "mesh_fattree")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources (src/) next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                            timeout=BUILD_TIMEOUT_S).returncode
        if rc != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--golden", default=os.path.join(HERE, "golden.txt"),
                    help="golden verdict digests (default: perfbench/golden.txt)")
    ap.add_argument("--print-digests", action="store_true",
                    help="print this run's verdict digests in golden format")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    binary = build(out_dir)
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden", args.golden, "--work-dir", work_dir]
    if args.print_digests:
        cmd.append("--print-digests")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out after %ds" % (args.workload,
                                                        RUN_TIMEOUT_S))
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
