#!/usr/bin/env python3
"""Self-test of the benchmark's verdict checks.

    python3 perfbench/selftest.py

For every workload, at the golden seed and a short run length:
  1. the committed golden digests must pass (exit 0, failed == 0);
  2. a copy of golden.txt with that workload's first digest perturbed
     must make the run report failed > 0, correct == false, and exit
     non-zero.
Exits 0 only when every case behaves as stated.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.txt")
WORKLOADS = ("mc_fast", "crypto_real", "serve_replay", "mesh_fattree")


def run(workload, seed, golden):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--golden",
           golden]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    lines = proc.stdout.decode().strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def perturbed_copy(workload, path):
    """Writes golden.txt with `workload`'s first digest changed; returns
    that digest's seed."""
    out, seed = [], None
    with open(GOLDEN) as f:
        for line in f:
            parts = line.split()
            if seed is None and parts and parts[0] == workload:
                seed = int(parts[1])
                flipped = "0" if parts[3][0] != "0" else "1"
                parts[3] = flipped + parts[3][1:]
                line = " ".join(parts) + "\n"
            out.append(line)
    with open(path, "w") as f:
        f.writelines(out)
    return seed


def main():
    # Perturbed copies live beside run.py's build directory.
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    work = os.path.join(os.path.dirname(HERE), target, "perfbench-selftest")
    os.makedirs(work, exist_ok=True)
    ok = True
    for w in WORKLOADS:
        bad = os.path.join(work, "golden_%s.txt" % w)
        seed = perturbed_copy(w, bad)
        if seed is None:
            print("%-13s no golden digest" % w)
            ok = False
            continue
        rc, res = run(w, seed, GOLDEN)
        good = rc == 0 and res is not None and res["failed"] == 0
        rc_bad, res_bad = run(w, seed, bad)
        caught = (rc_bad != 0 and res_bad is not None and
                  res_bad["failed"] > 0 and not res_bad["correct"])
        print("%-13s golden: %s (exit %d)  perturbed: %s (exit %d, failed %s)"
              % (w, "pass" if good else "FAIL", rc,
                 "caught" if caught else "MISSED", rc_bad,
                 res_bad["failed"] if res_bad else "-"))
        ok = ok and good and caught
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
