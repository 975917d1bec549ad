#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload at its tiny size (a few seconds each), untraced and
traced, and asserts that each run is correct and prints exactly the
metrics BENCHMARK.json names, each with its unit: every end-to-end
metric untraced, every per-layer metric traced.

    python3 perfbench/smoke_test.py        # from the root of a checkout
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every workload prints every end-to-end metric (perfbench/README.md).
WORKLOADS = ("fig7-reach", "fig4-sweep", "campaign-short")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                         timeout=600)
    assert out.returncode == 0, f"{workload} trace={trace}: exit {out.returncode}"
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(WORKLOADS) == {w["name"] for w in bench["workloads"]}

    for workload in WORKLOADS:
        for trace, expected in ((0, units), (1, layer_units)):
            result = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0
            assert isinstance(result["attempted"], int)
            assert result["attempted"] >= 1
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == expected, (
                f"{workload} trace={trace}: missing "
                f"{sorted(set(expected) - set(got))}, unexpected "
                f"{sorted(set(got) - set(expected))}, or wrong units")
            if trace == 0:
                for n, m in result["metrics"].items():
                    assert m["value"] > 0, f"{workload}: {n} is not positive"
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
