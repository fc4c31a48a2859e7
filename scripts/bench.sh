#!/usr/bin/env bash
# Runs the adversary benchmark suite and leaves machine-readable telemetry
# in BENCH_adversary.json: one sweep per engine config — serial, a
# hardware-wide thread pool (threads > 1 on multicore hosts; it speeds up
# validation only, adversary runs stay on the calling thread), and the
# coordinator/worker fleet at 2 and 4 workers — with per-Δ wall time,
# certified radius and graph sizes in each (see docs/PERFORMANCE.md for
# the schema).
#
# LDLB_BENCH_BASELINE holds reference "delta:ms" pairs that the bench embeds
# next to the current numbers so speedups/regressions are visible in one
# file. The default below is the adversary wall time measured on the commit
# immediately before the parallel-engine/fast-path work (seed 1b1f6ee,
# RelWithDebInfo, single-core container); override with your own
# measurements when re-baselining.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"
build_dir="${LDLB_BENCH_BUILD_DIR:-build}"

export LDLB_BENCH_BASELINE="${LDLB_BENCH_BASELINE:-8:3.0,10:14.0,12:59.0}"

cmake -B "$build_dir" -S . > /dev/null
cmake --build "$build_dir" -j "$jobs" --target thm1_linear_in_delta

# Fast pass (the JSON comes from the reproduction report, not the timing
# loops); forward any extra args, e.g. --benchmark_filter=..., to the
# google-benchmark harness.
"$build_dir/bench/thm1_linear_in_delta" \
  --benchmark_min_time=0.05 "$@"

echo
echo "== BENCH_adversary.json =="
cat BENCH_adversary.json
