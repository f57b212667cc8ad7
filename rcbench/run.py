#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 rcbench/run.py --workload adhoc_olap --seed 1 --seconds 10 --trace 0

The first call configures and builds into .bench_build/ at the checkout root
(CMake, the repository's own compile flags); later calls rebuild only what
changed. The benchmark binary's report lines ("metric <name> <value> <unit>
samples=<n>") are passed through, and the last line printed is the result
object {"correct", "attempted", "failed", "metrics"} holding exactly the
metrics BENCHMARK.json lists: its end_to_end list with --trace 0, its
per_layer list with --trace 1. A per-layer metric the workload does not
exercise is reported as 0; its report line is missing or shows samples=0.

Exits non-zero, without printing a result, when the build fails, the run
fails, or the run leaves out an end-to-end metric.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("adhoc_olap", "dashboard_wire", "window_ingest")


def run_timeout(seconds, trace):
    """Seconds a run may take: set-ups, the measured time and, traced, the
    replay with probes, which takes about twice the measured time."""
    return 60 + (5 if trace else 2) * seconds


def build():
    """Configures (once) and builds the benchmark; build output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "rcbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(BUILD, "rcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT]
    timeout = run_timeout(args.seconds, args.trace)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {timeout:g} s",
              file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: {args.workload} exited with {proc.returncode}",
              file=sys.stderr)
        return 3
    report = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None and not args.trace:
            print(f"run.py: {args.workload} did not report {m['name']}",
                  file=sys.stderr)
            return 3
        if got is not None and got["unit"] != m["unit"]:
            print(f"run.py: {m['name']} is in {got['unit']}, BENCHMARK.json "
                  f"says {m['unit']}", file=sys.stderr)
            return 3
        value = got["value"] if got is not None else 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
