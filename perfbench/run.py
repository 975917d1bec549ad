#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Builds the simulator library and the benchmark program from source into
.bench_build/ (CMake, Release), runs one workload, and prints the program's
JSON result line last on stdout. At the default seed and full size the
statistics digest of the run is checked against perfbench/digests.json.
Exits non-zero, without a result line, when the build fails, and non-zero
with a result line when a correctness check fails. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fig7-reach", "fig4-sweep", "campaign-short")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the program; returns its path or None."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    elif args.seed == DEFAULT_SEED and args.size == "full":
        with open(os.path.join(HERE, "digests.json")) as f:
            cmd += ["--expect-digest", json.load(f)[args.workload]]

    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if not lines:
        print("perfbench: the program printed no result", file=sys.stderr)
        return 1
    print(lines[-1])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
