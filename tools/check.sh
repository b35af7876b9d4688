#!/usr/bin/env bash
# A warning-free build, sanitizer legs, the protocol-metric baseline,
# end-to-end smokes and the perfbench verdicts:
#
#   0. Warnings are errors — a Release build of every target (library,
#      tests, benches, examples, tools) with -DCMAKE_CXX_FLAGS=-Werror on
#      top of the project's -Wall -Wextra -Wshadow.
#
#   1. ThreadSanitizer — exec + runner + fleet + mesh + obs + faults +
#      telemetry + sim + crypto test suites. Catches data races in the
#      parallel execution engine (src/exec), in anything run_experiment
#      touches (exec_test's jobs>1 Monte-Carlo runs every protocol's wires
#      on worker threads), in the mesh runner's sharded score accumulation
#      (src/mesh), in the lock-free metrics and profiler
#      shards (src/obs) that runs write concurrently, in the telemetry
#      sampler racing registry/profiler writers
#      (Concurrency.SamplerRacesProducers), and in the pooled wire
#      buffers' plain refcount and thread-local free lists (sim_test's
#      Wire.BuiltOnOneThreadReleasedOnAnotherAfterJoin), and the
#      HMAC pad table's per-thread lookups (crypto_test's
#      Hmac.ThreadsAgreeWithSerial). faults_test runs the
#      injector's schedule machinery and crash hooks under the Monte-Carlo
#      fan-out (BitIdenticalAcrossJobs). The other half of the determinism
#      story (the jobs=1 vs jobs=8 bit-identity test in exec_test) runs in
#      the normal config via ctest.
#
#   2. AddressSanitizer + UBSan (hard-fail, -fno-sanitize-recover=all) —
#      the memory-facing suites: obs (JSON parser on hostile input, ring
#      indexing, event-line codec), util (wire codec fuzz loop), sim
#      (the event slab's slot reuse and capture lifetimes), exec, faults
#      (plan parser on malformed specs, loss-process state machines,
#      crash-time pending-table teardown), score (the score tables, the
#      shared blame rule, the verdict pin and the flat pending table),
#      stream (the hand-written event-line scanner and reader framing
#      under the truncation/corruption fuzz, snapshot parsing and its
#      mutation fuzz), alloc (the hot path's allocation budgets, run
#      through the slab, codecs and pending tables of three protocols),
#      crypto (SipHash's word loads on unaligned input, the FastCrypto
#      golden vectors, SHA-256's in-place padding at the block-boundary
#      lengths, both block functions — the SHA-extension one checked
#      against the portable one on random states where the CPU has it —
#      and the W-OTS lane kernel, its AVX-512 and reference bodies checked
#      against Sha256::iterate, hmac_sha256 and each other, the AVX-512
#      one where the CPU has AVX-512F),
#      mesh (topology parser, sharded score store),
#      runner, fleet (the mesh packet engine on linear@P against the
#      serial fleet reference) and telemetry (sampler, serve lag, the
#      Integration.* bit-identity sweeps), and the suites that drive every protocol
#      agent end to end — fullack, paai2, statfl, comb, authprobe,
#      ablation, protocol (the cross-commit GoldenRun digests among them)
#      and security — so the shared source skeleton, onion relay and data
#      intake run under both sanitizers for all seven protocols — plus
#      the adversary-path suites adversary, adaptive and onion, which
#      drive the relay's corrupt, withhold and packet-id branches (the
#      tampered copies, new wire buffers that carry no H(m)).
#
#   The 60k-packet ChaosPaperScale sweep is excluded under sanitizers for
#   runtime; ChaosSmoke is its in-sanitizer representative.
#
#   3. protocol-metric baseline — bench_diff's self-test, then
#      tools/bench_snapshot.sh regenerates bench/baseline.json's benches
#      at HEAD (ASan build) and bench_diff --threshold=0 gates the fresh
#      run against the committed baseline: every metric is deterministic,
#      so any moved, missing or null one fails. After an intended change,
#      refresh it with `tools/bench_snapshot.sh bench/baseline.json`.
#
#   4. forensics smoke — a small PAAI-1 run (adversary at l_3) with
#      --events-out, replayed through `paai explain`; the audit trail must
#      name the planted link, and the emitted paai.bench.v1 report must
#      diff cleanly against itself. The same run's --trace-out (a Chrome
#      rendering of the same event log) must be strict JSON with exactly
#      one trace event per --events-out line. On every event log legs 4-6
#      write (a `paai curve` log with checkpoint convictions among them,
#      and PAAI-1/PAAI-2 logs at 60000 packets), explain's CONVICTED set
#      must equal `paai replay --verify`'s verdict and, for a `paai run`
#      log, the run's own verdict table. --events-out writes through and keeps no ring, so
#      --events-cap=4096 (which bounds only the --trace-out rings) must
#      give the default's bytes, and a 60000-packet PAAI-2 log must peak
#      within 8 MiB of the same run without one (leg-0 Release build). A
#      complete log cut below its head (run-start, run-config) must make
#      explain and replay --verify both exit 2.
#
#   5. colluder forensics smoke — a full-ack run against the adaptive
#      fault colluder (collude@4:rate=1 hiding inside the calibrated
#      Gilbert-Elliott burst plan on honest l_2); `paai explain` must
#      convict the true adversarial link l_4 and must NOT name the bursty
#      honest l_2. Full-ack is the leg's protocol because its per-hop acks
#      localise in-window drops; PAAI-1's blame-to-first-failing-hop
#      heuristic measurably under-attributes here (bench_robustness C).
#
#   6. serve-mode smoke — stream engine replay + snapshot/restore; a
#      snapshot with a member the loader does not read must be rejected
#      (exit 2), never restored with the member ignored. A run writing
#      --events-out into a FIFO that `paai serve` tails (both under
#      timeout) must leave serve with replay --verify's verdict table for
#      the same log.
#
#   7. mesh smoke — a compromised fat-tree core straddling ~100 paths per
#      out-link; the aggregated cross-path score store (paai mesh) must
#      convict exactly the core's out-links with witness provenance and
#      exonerate every honest link. Then the packet engine on a
#      Corollary 2 fleet (linear@4:hops=6, full-ack) must convict exactly
#      the one planted mesh link, and exit 2 on an out-of-range --faults
#      clause; and a 3% drop on 2-hop routes must cost the same damage
#      (~0.03) as on 6-hop routes, each route scored against a clean
#      baseline of its own length. Last, the stat engine with a distinct
#      --fault rate on each of fattree@8's 512 links (more rates than a
#      tile's binomial draw cache has slots) must print the same stdout
#      at --jobs=1 and --jobs=4.
#
#   8. detector smoke — the multi-level blame modes (docs/DETECTORS.md):
#      the fault-colluding adversary (collude@4:rate=1 under the
#      calibrated GE burst cover) must be CONVICTED by PAAI-1 under
#      --blame=hybrid at the paper's 60k-packet horizon, and the same
#      hybrid detector must convict nobody on an honest path under every
#      shipped benign fault plan — the windowed clauses must not reopen
#      the Theorem 2 false-accusation door.
#
#   9. telemetry smoke — `paai serve` with --telemetry-out over the leg-6
#      reference stream must emit >= 2 paai.telemetry.v3 lines that
#      `paai top --once` (the strict consumer: exit 2 on a malformed line,
#      a non-monotone sample index or a torn tail) accepts, including a
#      nonzero back-pressure gauge; its stream.events.applied deltas must
#      add up to the summary's nonzero applied count, and its phases must
#      sum to >= 95% of wall (the serve loop's chained timers);
#      `replay --verify` must stay bit-identical with telemetry (and so
#      the phase timers) enabled; and a sig-ack
#      run's telemetry file must pass the same check (ASan and Release
#      builds), and its exclusive phase profile in the Release build must
#      charge >= 90% of the summed phase time to crypto (W-OTS
#      included). A Monte-Carlo bench must tick its own
#      --telemetry-out sink: bench_fig2_fullack's six runs at
#      --telemetry-every=1 give >= 6 samples that `paai top --once` accepts,
#      and bench_theorem1's five Monte-Carlo calls of two runs, sharing one
#      sink, give one sample per completed run (>= 10).
#
#  10. perfbench verdicts — each perfbench workload for 1 s at seed 1;
#      its result line must say "correct": true (perfbench/golden.txt).
#      The timing numbers themselves are the benchmark's, not a gate here.
#
# Usage: tools/check.sh [tsan-build-dir [asan-build-dir [werror-build-dir]]]
#        (defaults: build-tsan build-asan build-werror)
set -euo pipefail

cd "$(dirname "$0")/.."
TSAN_DIR="${1:-build-tsan}"
ASAN_DIR="${2:-build-asan}"
WERROR_DIR="${3:-build-werror}"
CHAOS_FILTER="--gtest_filter=-*ChaosPaperScale*"

echo "== leg 0: warning-free Release build (-Werror, every target) =="
cmake -B "$WERROR_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$WERROR_DIR" -j "$(nproc)"

echo "== leg 1: ThreadSanitizer =="
cmake -B "$TSAN_DIR" -S . -DPAAI_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_DIR" --target exec_test runner_test fleet_test mesh_test obs_test faults_test telemetry_test sim_test crypto_test -j "$(nproc)"

# TSAN_OPTIONS makes races hard failures rather than log noise.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
"$TSAN_DIR/tests/exec_test"
"$TSAN_DIR/tests/runner_test"
"$TSAN_DIR/tests/fleet_test"
"$TSAN_DIR/tests/mesh_test"
"$TSAN_DIR/tests/obs_test"
"$TSAN_DIR/tests/faults_test" "$CHAOS_FILTER"
# The Integration.* bit-identity sweeps (14 full runs) are excluded here
# for runtime, like ChaosPaperScale; they run in the normal ctest config.
# The race-facing tests (sampler vs. registry/profiler writers, serve
# lag) are what TSan is for.
"$TSAN_DIR/tests/telemetry_test" "--gtest_filter=-Integration.*"
"$TSAN_DIR/tests/sim_test"
"$TSAN_DIR/tests/crypto_test"

echo "== leg 2: AddressSanitizer + UBSan =="
cmake -B "$ASAN_DIR" -S . -DPAAI_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$ASAN_DIR" --target obs_test util_test sim_test exec_test faults_test score_test stream_test alloc_test crypto_test mesh_test fleet_test runner_test telemetry_test fullack_test paai2_test statfl_test comb_test authprobe_test ablation_test protocol_test security_test adversary_test adaptive_test onion_test -j "$(nproc)"

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
"$ASAN_DIR/tests/obs_test"
"$ASAN_DIR/tests/util_test"
"$ASAN_DIR/tests/sim_test"
"$ASAN_DIR/tests/exec_test"
"$ASAN_DIR/tests/faults_test" "$CHAOS_FILTER"
"$ASAN_DIR/tests/score_test"
# The all-protocol batch/stream equivalence sweeps (21+ full runs) are
# excluded here for runtime, like Integration.* under TSan; they run in
# the normal ctest config. The reader, codec fuzz, engine and snapshot
# tests are what the sanitizers are for.
"$ASAN_DIR/tests/stream_test" \
    "--gtest_filter=-Equivalence.AllProtocols*:Equivalence.Windowed*"
"$ASAN_DIR/tests/alloc_test"
"$ASAN_DIR/tests/crypto_test"
"$ASAN_DIR/tests/mesh_test"
"$ASAN_DIR/tests/fleet_test"
"$ASAN_DIR/tests/runner_test"
"$ASAN_DIR/tests/telemetry_test"
"$ASAN_DIR/tests/fullack_test"
"$ASAN_DIR/tests/paai2_test"
"$ASAN_DIR/tests/statfl_test"
"$ASAN_DIR/tests/comb_test"
"$ASAN_DIR/tests/authprobe_test"
"$ASAN_DIR/tests/ablation_test"
"$ASAN_DIR/tests/protocol_test"
"$ASAN_DIR/tests/security_test"
"$ASAN_DIR/tests/adversary_test"
"$ASAN_DIR/tests/adaptive_test"
"$ASAN_DIR/tests/onion_test"

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

# One verdict per event log: `paai explain`'s CONVICTED links must equal
# `paai replay --verify`'s verdict and, when a `paai run` stdout is given,
# that run's own verdict table.
convicted_by_explain() {
  # explain exits 1 when the verdict convicts nothing.
  { "$ASAN_DIR/tools/paai" explain "$1" || [[ $? -eq 1 ]]; } |
      sed -n 's/^CONVICTED \(l_[0-9]*\).*/\1/p' | sort | tr '\n' ' '
}
check_verdicts() {  # LEG LOG [RUN_STDOUT]
  local explained replayed ran
  explained="$(convicted_by_explain "$2")"
  replayed="$("$ASAN_DIR/tools/paai" replay "$2" --verify --csv |
      sed -n 's/^\(l_[0-9]*\),.*,CONVICTED$/\1/p' | sort | tr '\n' ' ')"
  ran="$replayed"
  if [[ $# -ge 3 ]]; then
    ran="$(awk '$NF == "CONVICTED" { print $1 }' "$3" | sort | tr '\n' ' ')"
  fi
  if [[ "$explained" != "$replayed" || "$ran" != "$replayed" ]]; then
    echo "leg $1 FAILED: verdicts disagree on $2: explain [$explained]," \
         "replay [$replayed], run [$ran]" >&2
    exit 1
  fi
}

echo "== leg 3: protocol-metric baseline (fresh run vs bench/baseline.json) =="
cmake --build "$ASAN_DIR" --target bench_diff bench_table1 bench_fig2_fullack bench_ablation bench_mesh bench_theorem1 paai -j "$(nproc)"
"$ASAN_DIR/tools/bench_diff" --self-test
tools/bench_snapshot.sh "$SMOKE_DIR/fresh.json" "$ASAN_DIR"
"$ASAN_DIR/tools/bench_diff" --threshold=0 bench/baseline.json \
    "$SMOKE_DIR/fresh.json"

echo "== leg 4: forensics smoke (paai run --events-out -> paai explain) =="
"$ASAN_DIR/tools/paai" run --protocol=paai1 --packets=20000 --seed=1 \
    --fault=3:0.02 --events-out="$SMOKE_DIR/events.jsonl" \
    --events-cap=65536 --metrics-out="$SMOKE_DIR/run.json" \
    --trace-out="$SMOKE_DIR/trace.json" > "$SMOKE_DIR/run.stdout"
"$ASAN_DIR/tools/paai" explain "$SMOKE_DIR/events.jsonl" \
    > "$SMOKE_DIR/explain.stdout"
grep -q "CONVICTED l_3" "$SMOKE_DIR/explain.stdout" || {
  echo "leg 4 FAILED: audit trail did not convict l_3:" >&2
  cat "$SMOKE_DIR/explain.stdout" >&2
  exit 1
}
# The run's verdict table and the replayed audit trail must agree.
grep -q "CONVICTED" "$SMOKE_DIR/run.stdout" || {
  echo "leg 4 FAILED: run verdict table has no conviction" >&2
  exit 1
}
check_verdicts 4 "$SMOKE_DIR/events.jsonl" "$SMOKE_DIR/run.stdout"
# A curve log carries checkpoint convictions (here an honest l_0 early on,
# and l_4 at the final packet count as well as in the verdict); only the
# latest run-end-count record of each link is the verdict.
"$ASAN_DIR/tools/paai" curve --protocol=paai1 --packets=30000 --runs=1 \
    --jobs=1 --fault=4:0.02 --events-out="$SMOKE_DIR/curve.jsonl" \
    > "$SMOKE_DIR/curve.stdout"
check_verdicts 4 "$SMOKE_DIR/curve.jsonl"
# A paper-horizon log is complete, so it replays and explains to the
# run's own verdict.
for proto in paai1 paai2; do
  "$ASAN_DIR/tools/paai" run --protocol=$proto --packets=60000 \
      --fault=4:0.05 --events-out="$SMOKE_DIR/default_$proto.jsonl" \
      > "$SMOKE_DIR/default_$proto.stdout"
  check_verdicts 4 "$SMOKE_DIR/default_$proto.jsonl" \
      "$SMOKE_DIR/default_$proto.stdout"
done
# --events-out keeps no ring: --events-cap bounds only the --trace-out
# timeline, so a cap far below the run's events changes no byte.
"$ASAN_DIR/tools/paai" run --protocol=paai1 --packets=60000 \
    --fault=4:0.05 --events-out="$SMOKE_DIR/capped.jsonl" \
    --events-cap=4096 > /dev/null
cmp "$SMOKE_DIR/capped.jsonl" "$SMOKE_DIR/default_paai1.jsonl" || {
  echo "leg 4 FAILED: --events-cap=4096 changed the --events-out bytes" >&2
  exit 1
}
# The log is written through, in constant memory: its peak RSS stays
# within 8 MiB of the same run without one (it was ~150 MiB above it when
# the whole log was buffered for a sort). Release build: ASan's shadow
# memory would blur the comparison.
peak_rss_kib() {
  python3 - "$@" <<'PY'
import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=False)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
PY
}
rss_log="$(peak_rss_kib "$WERROR_DIR/tools/paai" run --protocol=paai2 \
    --packets=60000 --fault=4:0.05 --events-out="$SMOKE_DIR/rss.jsonl")"
rss_none="$(peak_rss_kib "$WERROR_DIR/tools/paai" run --protocol=paai2 \
    --packets=60000 --fault=4:0.05)"
[[ -s "$SMOKE_DIR/rss.jsonl" && $((rss_log - rss_none)) -le 8192 ]] || {
  echo "leg 4 FAILED: --events-out peaks at $rss_log KiB vs $rss_none KiB" \
       "without a log (bound: +8192 KiB)" >&2
  exit 1
}
# A log that lost its head (run-start, run-config) is refused by explain
# and replay --verify alike (exit 2), not read as a run of its own.
head -n 2 "$SMOKE_DIR/default_paai1.jsonl" | grep -c 'run-start\|run-config' |
    grep -qx 2 || {
  echo "leg 4 FAILED: a log does not open with run-start, run-config" >&2
  exit 1
}
tail -n +3 "$SMOKE_DIR/default_paai1.jsonl" > "$SMOKE_DIR/headless.jsonl"
for cmd in explain "replay --verify"; do
  rc=0
  "$ASAN_DIR/tools/paai" $cmd "$SMOKE_DIR/headless.jsonl" \
      > /dev/null 2>&1 || rc=$?
  [[ $rc -eq 2 ]] || {
    echo "leg 4 FAILED: $cmd exited $rc, not 2, on a headless log" >&2
    exit 1
  }
done
# The emitted paai.bench.v1 report must be valid (self-diff is clean).
"$ASAN_DIR/tools/bench_diff" "$SMOKE_DIR/run.json" "$SMOKE_DIR/run.json"
# --trace-out renders the same event log: strict JSON, one trace event
# per --events-out line.
python3 - "$SMOKE_DIR/trace.json" "$SMOKE_DIR/events.jsonl" <<'PY' || {
import json, sys
def strict(token):
    raise ValueError("non-finite number " + token)
with open(sys.argv[1]) as f:
    trace = json.load(f, parse_constant=strict)
with open(sys.argv[2]) as f:
    lines = sum(1 for _ in f)
n = len(trace["traceEvents"])
if n != lines or n == 0:
    sys.exit(f"{n} trace events vs {lines} event lines")
PY
  echo "leg 4 FAILED: --trace-out is not the --events-out log" >&2
  exit 1
}

echo "== leg 5: colluder forensics smoke (fault-colluding adversary) =="
"$ASAN_DIR/tools/paai" run --protocol=fullack --packets=20000 --seed=1 \
    --adversary='collude@4:rate=1' \
    --faults='ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15' \
    --events-out="$SMOKE_DIR/collude.jsonl" > "$SMOKE_DIR/collude.stdout"
"$ASAN_DIR/tools/paai" explain "$SMOKE_DIR/collude.jsonl" \
    > "$SMOKE_DIR/collude_explain.stdout"
grep -q "CONVICTED l_4" "$SMOKE_DIR/collude_explain.stdout" || {
  echo "leg 5 FAILED: colluder's true link l_4 not convicted:" >&2
  cat "$SMOKE_DIR/collude_explain.stdout" >&2
  exit 1
}
if grep -q "CONVICTED l_2" "$SMOKE_DIR/collude_explain.stdout"; then
  echo "leg 5 FAILED: bursty honest l_2 falsely convicted:" >&2
  cat "$SMOKE_DIR/collude_explain.stdout" >&2
  exit 1
fi
check_verdicts 5 "$SMOKE_DIR/collude.jsonl" "$SMOKE_DIR/collude.stdout"

echo "== leg 6: serve-mode smoke (stream engine replay + snapshot/restore) =="
# A batch run's event stream replayed through the online engine must
# reproduce the batch verdict bit-identically (`replay --verify` diffs the
# engine's conviction set, thetas, and observation counts against the
# stream's own kConviction records), including when the stream is cut in
# half and the engine round-trips through a paai.state.v1 snapshot.
"$ASAN_DIR/tools/paai" run --protocol=paai1 --packets=8000 --seed=1 \
    --fault=4:0.02 --events-out="$SMOKE_DIR/stream.jsonl" \
    > "$SMOKE_DIR/stream_run.stdout"
"$ASAN_DIR/tools/paai" replay "$SMOKE_DIR/stream.jsonl" --verify \
    > "$SMOKE_DIR/replay.stdout" || {
  echo "leg 6 FAILED: replay --verify diverged from the batch run:" >&2
  cat "$SMOKE_DIR/replay.stdout" >&2
  exit 1
}
check_verdicts 6 "$SMOKE_DIR/stream.jsonl" "$SMOKE_DIR/stream_run.stdout"
# Snapshot mid-stream, restore, and finish: same verdict.
split -l 6000 "$SMOKE_DIR/stream.jsonl" "$SMOKE_DIR/stream_part."
"$ASAN_DIR/tools/paai" serve --in="$SMOKE_DIR/stream_part.aa" \
    --state-out="$SMOKE_DIR/state.json" > "$SMOKE_DIR/serve.stdout"
cat "$SMOKE_DIR/stream_part."a[b-z] > "$SMOKE_DIR/stream_rest.jsonl"
"$ASAN_DIR/tools/paai" replay "$SMOKE_DIR/stream_rest.jsonl" \
    --state-in="$SMOKE_DIR/state.json" --verify \
    > "$SMOKE_DIR/replay_resumed.stdout" || {
  echo "leg 6 FAILED: snapshot/restore replay diverged:" >&2
  cat "$SMOKE_DIR/replay_resumed.stdout" >&2
  exit 1
}
grep -q "verify: OK" "$SMOKE_DIR/replay_resumed.stdout" || {
  echo "leg 6 FAILED: resumed replay did not report verify: OK" >&2
  exit 1
}
# The same snapshot with one unknown top-level member fails closed.
sed 's/^{/{"bogus":{"x":[1,2]},/' "$SMOKE_DIR/state.json" \
    > "$SMOKE_DIR/state_bogus.json"
rc=0
"$ASAN_DIR/tools/paai" replay "$SMOKE_DIR/stream_rest.jsonl" \
    --state-in="$SMOKE_DIR/state_bogus.json" --verify \
    > "$SMOKE_DIR/replay_bogus.stdout" 2> "$SMOKE_DIR/replay_bogus.stderr" ||
    rc=$?
[[ $rc -eq 2 ]] &&
grep -q "unknown member bogus" "$SMOKE_DIR/replay_bogus.stderr" || {
  echo "leg 6 FAILED: snapshot with an unknown member not rejected (rc=$rc):" >&2
  cat "$SMOKE_DIR/replay_bogus.stderr" >&2
  exit 1
}

# A running log tailed through a FIFO: the producer writes 64 KiB blocks
# of lines during the run, serve applies them as they come, and serve's
# final state holds the same verdict table as replay --verify of that
# run's log (the same run as stream.jsonl). Opening a FIFO blocks until
# the other end opens it, so both ends run under timeout: an end that
# dies first makes the other exit 124 and fail the leg instead of
# hanging it.
mkfifo "$SMOKE_DIR/live.fifo"
timeout 300 "$ASAN_DIR/tools/paai" serve --in="$SMOKE_DIR/live.fifo" \
    --state-out="$SMOKE_DIR/live_state.json" > /dev/null 2>&1 &
serve_pid=$!
rc=0
timeout 300 "$ASAN_DIR/tools/paai" run --protocol=paai1 --packets=8000 \
    --seed=1 --fault=4:0.02 --events-out="$SMOKE_DIR/live.fifo" \
    > /dev/null || rc=$?
serve_rc=0
wait "$serve_pid" || serve_rc=$?
[[ $rc -le 1 && $serve_rc -eq 0 ]] || {
  echo "leg 6 FAILED: live FIFO run exited $rc, serve $serve_rc" \
       "(124: timed out, the other end never opened the FIFO)" >&2
  exit 1
}
: > "$SMOKE_DIR/empty.jsonl"
"$ASAN_DIR/tools/paai" replay "$SMOKE_DIR/empty.jsonl" \
    --state-in="$SMOKE_DIR/live_state.json" --csv 2>/dev/null |
    grep '^l_' > "$SMOKE_DIR/live_verdict.csv"
"$ASAN_DIR/tools/paai" replay "$SMOKE_DIR/stream.jsonl" --verify --csv \
    2>/dev/null | grep '^l_' > "$SMOKE_DIR/replay_verdict.csv"
[[ -s "$SMOKE_DIR/live_verdict.csv" ]] &&
cmp "$SMOKE_DIR/live_verdict.csv" "$SMOKE_DIR/replay_verdict.csv" || {
  echo "leg 6 FAILED: serve on a live FIFO disagrees with replay --verify:" >&2
  diff "$SMOKE_DIR/live_verdict.csv" "$SMOKE_DIR/replay_verdict.csv" >&2 || true
  exit 1
}

echo "== leg 7: mesh smoke (fat-tree colluder convicted from cross-path evidence) =="
# A compromised core switch (node 0) straddles ~100 paths per out-link on
# a k=4 fat-tree; the aggregated score store must convict exactly its
# out-links — [malicious] lines with witness-path provenance — and never
# an honest link. Exit status enforces zero missed / zero false. The TSan
# leg above already runs mesh_test (sharded store + jobs bit-identity).
"$ASAN_DIR/tools/paai" mesh --topo=fattree@4 --paths=2000 --units=1500 \
    --adversary='uniform@0:rate=0.05' --threshold=0.02 --seed=9000 \
    --metrics-out="$SMOKE_DIR/mesh.json" > "$SMOKE_DIR/mesh.stdout" || {
  echo "leg 7 FAILED: paai mesh exited nonzero (missed or false conviction):" >&2
  cat "$SMOKE_DIR/mesh.stdout" >&2
  exit 1
}
grep -q 'CONVICTED l_.* \[malicious\]' "$SMOKE_DIR/mesh.stdout" || {
  echo "leg 7 FAILED: no malicious link convicted:" >&2
  cat "$SMOKE_DIR/mesh.stdout" >&2
  exit 1
}
if grep -q '\[HONEST\]' "$SMOKE_DIR/mesh.stdout"; then
  echo "leg 7 FAILED: honest link falsely convicted:" >&2
  cat "$SMOKE_DIR/mesh.stdout" >&2
  exit 1
fi
grep -q 'witnesses=p' "$SMOKE_DIR/mesh.stdout" || {
  echo "leg 7 FAILED: conviction lines carry no witness provenance" >&2
  exit 1
}
# The emitted paai.bench.v1 report must be valid (self-diff is clean).
"$ASAN_DIR/tools/bench_diff" "$SMOKE_DIR/mesh.json" "$SMOKE_DIR/mesh.json"
# Packet engine on a Corollary 2 fleet: path p's hop j is mesh link 6p+j,
# so link 10 is path 1's l_4. Exactly it is convicted, nobody honest.
"$ASAN_DIR/tools/paai" mesh --engine=packet --topo=linear@4:hops=6 \
    --paths=4 --fault=10:0.05 --protocol=fullack \
    > "$SMOKE_DIR/fleet.stdout" || {
  echo "leg 7 FAILED: packet-engine fleet exited nonzero:" >&2
  cat "$SMOKE_DIR/fleet.stdout" >&2
  exit 1
}
[[ "$(grep -c '^CONVICTED ' "$SMOKE_DIR/fleet.stdout")" -eq 1 ]] &&
    grep -q '^CONVICTED l_10 .*\[malicious\]' "$SMOKE_DIR/fleet.stdout" &&
    ! grep -q '\[HONEST\]' "$SMOKE_DIR/fleet.stdout" || {
  echo "leg 7 FAILED: packet-engine fleet did not convict exactly l_10:" >&2
  cat "$SMOKE_DIR/fleet.stdout" >&2
  exit 1
}
# Both engines reject an out-of-range benign-fault index (exit 2).
rc=0
"$ASAN_DIR/tools/paai" mesh --engine=packet --topo=linear@4:hops=6 \
    --paths=4 --fault=10:0.05 --protocol=fullack --faults='dup@24:p=0.1' \
    > "$SMOKE_DIR/fleet_bad.stdout" 2>&1 || rc=$?
[[ $rc -eq 2 ]] || {
  echo "leg 7 FAILED: out-of-range --faults clause exited $rc, not 2:" >&2
  cat "$SMOKE_DIR/fleet_bad.stdout" >&2
  exit 1
}
# Packet-engine damage is scored per route length: a 3% drop costs ~0.03
# on 2-hop routes as on 6-hop ones, not 0.
for hops in 2 6; do
  "$ASAN_DIR/tools/paai" mesh --engine=packet --topo=linear@2:hops=$hops \
      --paths=2 --fault=1:0.03 --protocol=fullack --packets=20000 --jobs=1 |
      sed -n 's/.*damage: \([0-9.]*\).*/\1/p'
done > "$SMOKE_DIR/damage.txt"
awk 'NR == 1 { a = $1 } NR == 2 { d = a - $1 }
     END { exit !(a > 0.02 && d < 0.01 && d > -0.01) }' "$SMOKE_DIR/damage.txt" || {
  echo "leg 7 FAILED: hops=2 vs hops=6 damage:" $(cat "$SMOKE_DIR/damage.txt") >&2
  exit 1
}
# Stat engine, one distinct drop rate per link: each tile's draw cache
# evicts and refills in whatever order its paths run, yet every draw is
# a pure function of (seed, path, round), so --jobs cannot move a byte.
# Both runs exit 1 (the mildest faults go unconvicted); only the stdout
# and the exit statuses are compared.
mapfile -t link_faults < <(awk 'BEGIN {
  for (l = 0; l < 512; ++l) printf "--fault=%d:%.6f\n", l, 0.001 + 6e-5 * l }')
for jobs in 1 4; do
  rc=0
  "$ASAN_DIR/tools/paai" mesh --engine=stat --topo=fattree@8 --paths=3000 \
      --units=600 --rounds=3 "${link_faults[@]}" --jobs=$jobs \
      > "$SMOKE_DIR/stat_jobs$jobs.stdout" 2>/dev/null || rc=$?
  echo "exit $rc" >> "$SMOKE_DIR/stat_jobs$jobs.stdout"
done
cmp "$SMOKE_DIR/stat_jobs1.stdout" "$SMOKE_DIR/stat_jobs4.stdout" || {
  echo "leg 7 FAILED: stat engine stdout differs across --jobs:" >&2
  diff "$SMOKE_DIR/stat_jobs1.stdout" "$SMOKE_DIR/stat_jobs4.stdout" >&2 || true
  exit 1
}

echo "== leg 8: detector smoke (multi-level blame modes) =="
# The hybrid detector's target scenario: the r=1 fault colluder hiding in
# the calibrated GE burst plan evades the margin rule at the paper's 60k
# packets (theta_4 ~ 0.015-0.017, sd margin not cleared) but keeps a
# >= 4-window hot streak the honest churn cannot — hybrid must convict.
"$ASAN_DIR/tools/paai" run --protocol=paai1 --packets=60000 --seed=900 \
    --blame=hybrid --adversary='collude@4:rate=1' \
    --faults='ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15' \
    > "$SMOKE_DIR/hybrid.stdout"
grep -q "CONVICTED" "$SMOKE_DIR/hybrid.stdout" || {
  echo "leg 8 FAILED: hybrid blame mode did not convict the colluder:" >&2
  cat "$SMOKE_DIR/hybrid.stdout" >&2
  exit 1
}
grep "CONVICTED" "$SMOKE_DIR/hybrid.stdout" | grep -q "l_4" || {
  echo "leg 8 FAILED: hybrid conviction names the wrong link:" >&2
  cat "$SMOKE_DIR/hybrid.stdout" >&2
  exit 1
}
# The other side of the bargain: on an honest path, hybrid's extra
# clauses must convict nobody under ANY shipped benign fault plan
# (specs mirror faults::benign_plans() — bench_robustness section A runs
# the same sweep across all protocols and blame-free configs).
BENIGN_PLANS=(
  'ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15'
  'set@1:t=0,loss=0.002;set@1:t=150,loss=0.02;set@1:t=300,loss=0.002;set@1:t=450,loss=0.02;set@1:t=550,loss=0.002'
  'set@3:t=60,lat=4.5,jitter=0.5;set@3:t=240,lat=1;set@3:t=420,lat=4.8,jitter=1'
  'outage@3:t=120,dur=1.5;outage@2:t=360,dur=1'
  'reorder@1:p=0.05,delay=2;dup@4:p=0.01'
  'ge@2:pg=0.004,pb=0.2,g2b=0.002,b2g=0.2;set@1:t=100,loss=0.015;set@1:t=250,loss=0.002;outage@4:t=180,dur=1;reorder@5:p=0.02,delay=1;dup@0:p=0.005'
)
for plan in "${BENIGN_PLANS[@]}"; do
  # `paai run` exits 1 when nobody is convicted — the *expected* outcome
  # here; 0 means a conviction and >= 2 means the run itself errored.
  rc=0
  "$ASAN_DIR/tools/paai" run --protocol=paai1 --packets=60000 --seed=900 \
      --blame=hybrid --faults="$plan" > "$SMOKE_DIR/benign.stdout" || rc=$?
  if [[ $rc -ne 1 ]] || grep -q "CONVICTED" "$SMOKE_DIR/benign.stdout"; then
    echo "leg 8 FAILED: hybrid falsely convicted (or errored, rc=$rc)" \
         "under benign plan '$plan':" >&2
    cat "$SMOKE_DIR/benign.stdout" >&2
    exit 1
  fi
done

echo "== leg 9: telemetry smoke (live paai.telemetry.v3 plane) =="
# Serve the leg-6 reference stream with telemetry on. `paai top --once` IS
# the strict parser: exit 2 on any malformed line, non-monotone sample
# index or torn tail, so schema validity and monotonicity ride on its
# exit status.
"$ASAN_DIR/tools/paai" serve --in="$SMOKE_DIR/stream.jsonl" \
    --telemetry-out="$SMOKE_DIR/serve_tele.jsonl" --telemetry-every=2000 \
    > "$SMOKE_DIR/serve_tele.stdout" 2> "$SMOKE_DIR/serve_tele.stderr"
[[ "$(wc -l < "$SMOKE_DIR/serve_tele.jsonl")" -ge 2 ]] || {
  echo "leg 9 FAILED: serve emitted fewer than 2 telemetry lines" >&2
  cat "$SMOKE_DIR/serve_tele.jsonl" >&2
  exit 1
}
"$ASAN_DIR/tools/paai" top "$SMOKE_DIR/serve_tele.jsonl" --once \
    > "$SMOKE_DIR/serve_tele.top" || {
  echo "leg 9 FAILED: paai top --once rejected the serve stream:" >&2
  cat "$SMOKE_DIR/serve_tele.top" >&2
  exit 1
}
# The engine's stream.events.applied counter is the serve loop's one
# count of applied events: its deltas add up to the exit summary's
# `(N applied, ...)`, and N is nonzero.
python3 - "$SMOKE_DIR/serve_tele.jsonl" "$SMOKE_DIR/serve_tele.stderr" <<'PY' || {
import json, re, sys
with open(sys.argv[1]) as f:
    applied = sum(int(json.loads(line)["counters"].get(
        "stream.events.applied", "0")) for line in f)
with open(sys.argv[2]) as f:
    summary = int(re.search(r"\((\d+) applied", f.read()).group(1))
if applied == 0 or applied != summary:
    sys.exit(f"stream.events.applied sums to {applied}, summary {summary}")
PY
  echo "leg 9 FAILED: serve telemetry does not count the applied events:" >&2
  cat "$SMOKE_DIR/serve_tele.stderr" >&2
  exit 1
}
# Gauge rows are `name value high`; the high-water must be nonzero.
grep -Eq '^stream\.serve\.backlog_bytes +-?[0-9]+ +[1-9]' \
    "$SMOKE_DIR/serve_tele.top" || {
  echo "leg 9 FAILED: serve telemetry has no nonzero backlog gauge:" >&2
  cat "$SMOKE_DIR/serve_tele.top" >&2
  exit 1
}
# The sum row is `sum ms pct% of wall`: the serve loop's chained parse and
# apply timers plus the snapshot phase cover its wall time.
awk '$1 == "sum" && $3 + 0 >= 95 { ok = 1 } END { exit !ok }' \
    "$SMOKE_DIR/serve_tele.top" || {
  echo "leg 9 FAILED: serve phases cover < 95% of wall:" >&2
  cat "$SMOKE_DIR/serve_tele.top" >&2
  exit 1
}
# The exit summary prints throughput and peak backlog on stderr even when
# telemetry is off; with it on, same line.
grep -q 'events/s applied' "$SMOKE_DIR/serve_tele.stderr" || {
  echo "leg 9 FAILED: serve exit summary missing throughput line:" >&2
  cat "$SMOKE_DIR/serve_tele.stderr" >&2
  exit 1
}
# Telemetry and the phase timers must stay strictly observational: the
# replayed verdict is still bit-identical to the batch run.
"$ASAN_DIR/tools/paai" replay "$SMOKE_DIR/stream.jsonl" --verify \
    --telemetry-out="$SMOKE_DIR/replay_tele.jsonl" --telemetry-every=2000 \
    > "$SMOKE_DIR/replay_tele.stdout" || {
  echo "leg 9 FAILED: replay --verify diverged with telemetry enabled:" >&2
  cat "$SMOKE_DIR/replay_tele.stdout" >&2
  exit 1
}
grep -q "verify: OK" "$SMOKE_DIR/replay_tele.stdout" || {
  echo "leg 9 FAILED: telemetry-enabled replay did not report verify: OK" >&2
  exit 1
}
# Sig-ack's per-packet W-OTS signatures are its cost: the exclusive phase
# profile must charge >= 90% of the summed phase time to crypto (rc 1 =
# no conviction, acceptable for this packet budget). The run's telemetry
# file must pass `paai top --once` from the ASan build and from leg 0's
# Release build; the crypto share is read from the Release run. Under
# ASan the instrumented simulator slows several-fold while the
# SHA-extension compressions barely do, so a sanitized run's shares
# measure the sanitizer (sig-ack reads ~98% crypto optimized, ~88% under
# ASan).
for dir in "$ASAN_DIR" "$WERROR_DIR"; do
  rc=0
  "$dir/tools/paai" run --protocol=sigack --packets=2000 --seed=1 \
      --fault=4:0.02 --telemetry-out="$SMOKE_DIR/sigack_tele.jsonl" \
      --telemetry-every=500 > "$SMOKE_DIR/sigack_tele.stdout" || rc=$?
  [[ $rc -le 1 ]] || {
    echo "leg 9 FAILED: sig-ack telemetry run errored (rc=$rc, $dir)" >&2
    exit 1
  }
  # Phase rows are `name calls ms share%`.
  "$dir/tools/paai" top "$SMOKE_DIR/sigack_tele.jsonl" --once \
      > "$SMOKE_DIR/sigack_tele.top" || {
    echo "leg 9 FAILED: sig-ack telemetry rejected ($dir):" >&2
    cat "$SMOKE_DIR/sigack_tele.top" >&2
    exit 1
  }
done
awk '$1 == "crypto" && $4 + 0 >= 90 { ok = 1 } END { exit !ok }' \
    "$SMOKE_DIR/sigack_tele.top" || {
  echo "leg 9 FAILED: sig-ack charges < 90% to crypto (Release build):" >&2
  cat "$SMOKE_DIR/sigack_tele.top" >&2
  exit 1
}

# A bench ticks its sink once per completed Monte-Carlo run; the exit
# sample comes on top. The top header reads `(N samples)`.
"$ASAN_DIR/bench/bench_fig2_fullack" --runs=6 --scale=5 --jobs=1 \
    --telemetry-out="$SMOKE_DIR/bench_tele.jsonl" --telemetry-every=1 \
    > "$SMOKE_DIR/bench_tele.stdout" 2> "$SMOKE_DIR/bench_tele.stderr"
"$ASAN_DIR/tools/paai" top "$SMOKE_DIR/bench_tele.jsonl" --once \
    > "$SMOKE_DIR/bench_tele.top" &&
grep -Eq '\(([6-9]|[1-9][0-9]+) samples\)' "$SMOKE_DIR/bench_tele.top" || {
  echo "leg 9 FAILED: bench telemetry rejected or < 6 samples:" >&2
  cat "$SMOKE_DIR/bench_tele.top" >&2
  exit 1
}
# Several Monte-Carlo calls share the sink, whose units keep counting
# across them: 5 calls x 2 runs tick 10 samples, the Corollary 2 fleet
# runs tick once per path, and the exit sample comes on top.
"$ASAN_DIR/bench/bench_theorem1" --runs=2 --scale=1 --jobs=1 \
    --telemetry-out="$SMOKE_DIR/thm1_tele.jsonl" --telemetry-every=1 \
    > "$SMOKE_DIR/thm1_tele.stdout" 2> "$SMOKE_DIR/thm1_tele.stderr"
"$ASAN_DIR/tools/paai" top "$SMOKE_DIR/thm1_tele.jsonl" --once \
    > "$SMOKE_DIR/thm1_tele.top" &&
grep -Eq '\(([1-9][0-9]+) samples\)' "$SMOKE_DIR/thm1_tele.top" || {
  echo "leg 9 FAILED: multi-call bench telemetry rejected or < 10 samples:" >&2
  cat "$SMOKE_DIR/thm1_tele.top" >&2
  exit 1
}
# Every run ticks the sink, so no work is left for the exit sample: its
# sim-loop calls are no more than the busiest per-run sample's.
python3 - "$SMOKE_DIR/thm1_tele.jsonl" <<'PY' || {
import json, sys
with open(sys.argv[1]) as f:
    calls = [int(json.loads(line)["counters"].get("phase.sim-loop.calls", "0"))
             for line in f]
if len(calls) < 2 or calls[-1] > max(calls[:-1]):
    sys.exit(f"exit sample sim-loop calls {calls[-1]} > per-run max "
             f"{max(calls[:-1], default=0)}")
PY
  echo "leg 9 FAILED: bench_theorem1 work lands unattributed in the exit sample" >&2
  exit 1
}

echo "== leg 10: perfbench verdicts (golden digests) =="
for workload in mc_fast crypto_real serve_replay mesh_fattree; do
  out="$SMOKE_DIR/perfbench_$workload.out"
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
      > "$out" && tail -n 1 "$out" | grep -q '"correct": true' || {
    echo "leg 10 FAILED: perfbench $workload did not report correct=true:" >&2
    cat "$out" >&2
    exit 1
  }
done

echo "check.sh: warning-free Release build (-Werror), TSan (exec/runner/fleet/mesh/obs/faults/telemetry/sim/crypto), ASan+UBSan (obs/util/sim/exec/faults/score/stream/alloc/crypto/mesh/fleet/runner/telemetry/fullack/paai2/statfl/comb/authprobe/ablation/protocol/security/adversary/adaptive/onion), protocol-metric baseline clean, forensics smoke (trace = event log; explain = replay = run verdicts, default-cap logs included; truncated log exit 2) clean, colluder forensics clean, serve smoke (snapshot unknown member rejected) clean, mesh + packet-engine fleet + route-length damage smoke clean, detector smoke clean, telemetry smoke (paai top --once strict, serve applied events counted once, serve phases >= 95% of wall, sig-ack crypto >= 90% in Release, bench ticks >= 6 samples, multi-call bench one sample per run, no unattributed exit-sample work) clean, perfbench verdicts correct"
