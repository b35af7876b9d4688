#!/usr/bin/env bash
# Protocol-metric snapshot: the document bench/baseline.json holds and
# tools/check.sh leg 3 regenerates at HEAD to diff against it.
#
# Runs a fixed, fast subset of the bench suite with --metrics-out and
# bundles the per-bench documents into one suite document:
#
#   OUT = {
#     "schema": "paai.bench.suite.v1",
#     "label": "<git short hash>",
#     "created_unix": <seconds>,
#     "meta": { "cpu_model": "...", "cores": N, "compiler": "...",
#               "created_utc": "<ISO-8601 Z>" },
#     "benches": { "<name>": <paai.bench.v1 document>, ... }
#   }
#
# Every metric under the benches' "results" is deterministic (bit-identical
# for any --jobs, and across the normal and ASan+UBSan builds): Table 1's
# analytic bounds, a full-ack detection curve, the §7 ablations and the
# mesh's cross-path verdicts. Timing lives in perfbench/, not here.
# `meta` records where the numbers came from; tools/bench_diff ignores it.
#
# Pure bash + the bench binaries themselves — no jq/python. The per-bench
# documents are emitted by src/obs (BenchReport) and are strict-JSON by
# construction (tests/obs_test.cc round-trips them through the strict
# parser), so embedding them verbatim keeps the suite document valid.
#
# Usage: tools/bench_snapshot.sh OUT.json [build-dir]   (default: build)
# Refresh the baseline: tools/bench_snapshot.sh bench/baseline.json
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 OUT.json [build-dir]" >&2
  exit 2
fi
OUT="$1"
BUILD_DIR="${2:-build}"
LABEL="$(git -C "$(dirname "$0")" rev-parse --short HEAD 2>/dev/null || echo local)"
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

if [[ ! -d "$BUILD_DIR/bench" ]]; then
  echo "error: $BUILD_DIR/bench not found — build first (cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 1
fi

# binary extra-args — a few seconds in total, even under ASan.
SPECS=(
  "bench_table1"
  "bench_fig2_fullack --scale=5 --runs=8"
  "bench_ablation --scale=10 --runs=6"
  "bench_mesh --scale=2"
)

for spec in "${SPECS[@]}"; do
  name="${spec%% *}"
  echo "[snapshot] $name ..."
  # shellcheck disable=SC2086  # $spec is intentionally word-split
  "$BUILD_DIR/bench/"$spec --metrics-out "$TMP_DIR/$name.json" \
      > "$TMP_DIR/$name.stdout" 2> "$TMP_DIR/$name.stderr"
done

# Host metadata for the `meta` object. Values land inside JSON string
# literals, so strip anything that could break them (quotes, backslashes,
# control chars); cores must be a bare number.
json_str() { printf '%s' "$1" | tr -d '"\\' | tr -d '\000-\037'; }
CPU_MODEL="$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo \
    2>/dev/null || true)"
[[ -n "$CPU_MODEL" ]] || CPU_MODEL="unknown"
CORES="$(nproc 2>/dev/null || echo 0)"
[[ "$CORES" =~ ^[0-9]+$ ]] || CORES=0
COMPILER="$(c++ --version 2>/dev/null | head -n1 || true)"
[[ -n "$COMPILER" ]] || COMPILER="unknown"
CREATED_UTC="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

{
  printf '{"schema":"paai.bench.suite.v1","label":%s,"created_unix":%s,' \
      "\"$LABEL\"" "$(date +%s)"
  printf '"meta":{"cpu_model":"%s","cores":%s,"compiler":"%s","created_utc":"%s"},"benches":{' \
      "$(json_str "$CPU_MODEL")" "$CORES" "$(json_str "$COMPILER")" \
      "$CREATED_UTC"
  first=1
  for spec in "${SPECS[@]}"; do
    name="${spec%% *}"
    [[ $first -eq 1 ]] || printf ','
    first=0
    printf '"%s":' "$name"
    cat "$TMP_DIR/$name.json"
  done
  printf '}}\n'
} > "$OUT"

echo "[snapshot] wrote $OUT ($(wc -c < "$OUT") bytes, ${#SPECS[@]} benches)"
