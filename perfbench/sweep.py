#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 perfbench/sweep.py                      # every workload, 10 seeds
    python3 perfbench/sweep.py --workloads serve_replay --seeds 5
    python3 perfbench/sweep.py --trace --seeds 1    # per-layer metrics

For every workload and metric it prints the median over the runs, the
first and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median. With --json FILE the raw per-run values are saved,
so two sweeps (a parent and a candidate build) can be compared later.
Exits non-zero when any run fails or reports failed verdict checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mc_fast", "crypto_real", "serve_replay", "mesh_fattree")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                    choices=WORKLOADS)
    ap.add_argument("--seeds", type=int, default=10,
                    help="runs per workload, seeds first-seed..+N-1")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15,
                    help="run length (BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--json", help="write raw per-run values here")
    args = ap.parse_args()

    raw = {}
    ok = True
    for w in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(w, seed, args.seconds, args.trace)
            if res is None or res["failed"] != 0:
                print("%s seed %d: FAILED" % (w, seed))
                ok = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        raw[w] = values
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("nan")
            print("%-13s %-36s median %-14.6g q1 %-14.6g q3 %-14.6g "
                  "spread %.4f" % (w, name, med, q1, q3, spread))
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
