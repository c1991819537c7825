#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

For every workload it makes a tiny untraced and a tiny traced run and
asserts that the run passes every output check, prints every metric
named in BENCHMARK.json with its unit, and (traced) writes a Chrome
trace and a self-time table. It also asserts that a directory holding
only BENCHMARK.json and perfbench/ makes run.py fail without a result.
Takes about a minute after the first build.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(spec, workload, trace):
    p = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert p.returncode == 0, f"{where}: exit {p.returncode}\n{p.stdout}{p.stderr}"
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: a check failed\n{p.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] >= 0
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared], \
        f"{where}: metric names differ from BENCHMARK.json"
    for m in declared:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), where
        assert math.isfinite(got["value"]), f"{where}: {m['name']} not finite"
    assert any(l.startswith("trials:") for l in lines), f"{where}: no sample count"
    if trace:
        stem = os.path.join(ROOT, ".bench_out", f"{workload}_seed{SEED}")
        with open(stem + ".trace.json") as f:
            events = json.load(f)["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events), where
        assert os.path.getsize(stem + ".selftime.txt") > 0, where
        assert any(l.startswith("tracing overhead:") for l in lines), where
    print(f"ok  {where}: {len(metrics)} metrics, attempted {result['attempted']}")


def check_bare_directory_fails():
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    p = run(bare, "uct_put_bw", 0)
    shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0, "run.py succeeded without the simulator sources"
    assert not p.stdout.strip(), "run.py printed a result without sources"
    print("ok  bare directory: run.py fails without printing a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_bare_directory_fails()
    return 0


if __name__ == "__main__":
    sys.exit(main())
