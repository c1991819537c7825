#!/usr/bin/env bash
# Engine performance gate, measured against the base commit on this host.
#
# Builds bench_engine_perf twice in Release: from the working tree, and
# from the base commit checked out in a git worktree beside it. Runs the
# two binaries alternately, BB_PERF_REPS times each (the side that goes
# first swaps every round), and fails if any benchmark's best-of-N
# items/sec on the working tree is more than 20% below the base's, or if
# a *Steady benchmark reports a non-zero steady-state allocation rate.
# The working tree's rows are written to BENCH_engine.json at the repo
# root for the perf trajectory.
#
# The base is the merge base of HEAD and main; on main itself it is
# HEAD's parent. scripts/perf_baseline.json keeps the absolute numbers
# an earlier host measured, as history: absolute numbers gate nothing on
# another machine, so the gate does not read them.
#
# On machines with >= 4 cores the BM_ExecParallelSweep rows additionally
# gate bb::exec's scaling efficiency: 4 pool threads must reach at least
# MIN_SCALING_4T x the 1-thread throughput. On smaller machines the
# ratio is reported but informational (there is nothing to scale onto).
#
# Best-of-N (not mean) is compared on purpose: shared CI boxes run with
# wildly varying load, and the max over repetitions is the least noisy
# estimate of what the code can do.
#
# Usage:
#   scripts/check_perf.sh
#   BB_PERF_BUILD_DIR=build BB_PERF_REPS=7 scripts/check_perf.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BB_PERF_BUILD_DIR:-build-perf}"
# Heavily loaded CI boxes need several repetitions for a stable best-of.
REPS="${BB_PERF_REPS:-5}"

BASE="$(git merge-base HEAD main)"
if [[ "$BASE" == "$(git rev-parse HEAD)" ]]; then
  BASE="$(git rev-parse HEAD^)"
fi

BASE_SRC="$BUILD_DIR/base-src"
BASE_BUILD="$BUILD_DIR/base"
OUT="$BUILD_DIR/perf-runs"
mkdir -p "$BUILD_DIR"
cleanup() { git worktree remove --force "$BASE_SRC" >/dev/null 2>&1 || true; }
trap cleanup EXIT
cleanup
git worktree add --quiet --detach "$BASE_SRC" "$BASE"

echo "base: $(git log -1 --format='%h %s' "$BASE")"
for side in head base; do
  if [[ "$side" == head ]]; then src=.; dir="$BUILD_DIR"; else
    src="$BASE_SRC"; dir="$BASE_BUILD"; fi
  cmake -B "$dir" -S "$src" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$dir" -j "$(nproc)" --target bench_engine_perf >/dev/null
done

rm -rf "$OUT"
mkdir -p "$OUT"
for ((i = 1; i <= REPS; i++)); do
  if ((i % 2)); then order="base head"; else order="head base"; fi
  for side in $order; do
    if [[ "$side" == head ]]; then dir="$BUILD_DIR"; else dir="$BASE_BUILD"; fi
    "$dir/bench/bench_engine_perf" \
      --benchmark_format=json \
      --benchmark_min_time=0.2 \
      >"$OUT/$side-$i.json"
  done
done

OUT="$OUT" REPS="$REPS" python3 - <<'EOF'
import json
import os
import sys

MAX_REGRESSION = 0.20      # fail below 80% of the base's items/sec
MAX_ALLOC_RATE = 0.001     # steady-state allocations per simulated item
MIN_SCALING_4T = 2.4       # min 4-thread speedup over 1 thread (>=4 cores)

out, reps = os.environ["OUT"], int(os.environ["REPS"])

def load(side):
    """Every run of one side: (first report, all iteration rows)."""
    reports = []
    for i in range(1, reps + 1):
        with open(f"{out}/{side}-{i}.json") as f:
            reports.append(json.load(f))
    rows = [b for r in reports for b in r["benchmarks"]
            if b.get("run_type") == "iteration"]
    return reports[0], rows

def best_of(rows):
    """Benchmark name -> best items_per_second over all runs."""
    best = {}
    for b in rows:
        ips = b.get("items_per_second")
        if ips is not None:
            best[b["run_name"]] = max(best.get(b["run_name"], 0.0), ips)
    return best

head_report, head_rows = load("head")
_, base_rows = load("base")
with open("BENCH_engine.json", "w") as f:
    json.dump({"context": head_report["context"], "benchmarks": head_rows},
              f, indent=2)
    f.write("\n")

best, base = best_of(head_rows), best_of(base_rows)
allocs = {}    # benchmark name -> max allocs_per_item over runs
for b in head_rows:
    rate = b.get("allocs_per_item")
    if rate is not None:
        allocs[b["run_name"]] = max(allocs.get(b["run_name"], 0.0), rate)

failed = False
for name, rate in sorted(allocs.items()):
    ok = rate <= MAX_ALLOC_RATE
    print(f"{name}: {rate:.6f} allocs/item "
          f"({'ok' if ok else f'LIMIT {MAX_ALLOC_RATE}'})")
    if not ok:
        failed = True

def scaling_check():
    """bb::exec scaling efficiency from the BM_ExecParallelSweep rows."""
    one = best.get("BM_ExecParallelSweep/1/real_time")
    four = best.get("BM_ExecParallelSweep/4/real_time")
    if not one or not four:
        print("exec scaling: BM_ExecParallelSweep rows missing")
        return False  # the rows themselves are covered by the base gate
    ratio = four / one
    cores = os.cpu_count() or 1
    enforced = cores >= 4
    ok = (not enforced) or ratio >= MIN_SCALING_4T
    print(f"exec scaling: {ratio:.2f}x at 4 threads over 1 "
          f"({cores} cores; "
          f"{'ok' if ok else f'MIN {MIN_SCALING_4T}'}"
          f"{'' if enforced else ', informational'})")
    return not ok

if scaling_check():
    failed = True

for name, then in sorted(base.items()):
    now = best.get(name)
    if now is None:
        print(f"{name}: MISSING from this tree's run")
        failed = True
        continue
    ratio = now / then
    ok = ratio >= 1.0 - MAX_REGRESSION
    print(f"{name}: {now:.3e} vs base {then:.3e} items/s "
          f"({ratio:.2f}x, {'ok' if ok else 'REGRESSION'})")
    if not ok:
        failed = True
for name in sorted(set(best) - set(base)):
    print(f"{name}: {best[name]:.3e} items/s (new, no base row)")

sys.exit(1 if failed else 0)
EOF
