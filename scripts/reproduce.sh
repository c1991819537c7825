#!/usr/bin/env bash
# Full reproduction pipeline: build, test, regenerate every table/figure.
# Outputs land in test_output.txt and bench_output.txt at the repo root.
#
# JOBS controls the bb::exec pool each experiment shards its simulations over
# (default: all hardware threads). The printed tables are bit-identical
# at every value -- only the wall-clock changes.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 1)}"

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

bench_start=$(date +%s)
status=0
build/bench/bbsim run all --jobs "$JOBS" 2>&1 | tee bench_output.txt \
  || status=1
build/bench/bench_engine_perf 2>&1 | tee -a bench_output.txt || status=1
echo "bench suite wall-clock: $(($(date +%s) - bench_start))s at JOBS=$JOBS" \
  | tee -a bench_output.txt
exit "$status"
