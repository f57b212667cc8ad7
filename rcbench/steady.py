#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly and prints each metric's spread.

    python3 rcbench/steady.py --runs 10 [--workloads adhoc_olap,window_ingest]
                              [--first-seed 1]

Every run measures BENCHMARK.json's run_seconds. Run i uses seed
first-seed + i and runs the workloads in an order rotated by i, so no
workload always runs first or right after the same neighbour. For every
workload and metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, next to the
metric's bound in BENCHMARK.json: a spread at or above the bound is marked
FAIL, one at or above a third of it is marked wide. It also prints the share
of failed operations of every run, which must be identical across runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"steady.py: {workload} seed {seed} exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1]), wall


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            result, wall = run_once(w, args.first_seed + i, spec["run_seconds"])
            result["seed"] = args.first_seed + i
            result["wall_s"] = wall
            results[w].append(result)
            print(f"run {i + 1}/{args.runs} {w} seed={result['seed']} "
                  f"wall={wall:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)

    for w in workloads:
        runs = results[w]
        print(f"\n== {w}: {len(runs)} runs")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"failed share per run: {shares}"
              f"{'' if len(shares) == 1 else '  (NOT identical)'}")
        print(f"{'metric':40s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            mark = ""
            if bound is not None:
                mark = ("FAIL" if spread >= bound
                        else "wide" if spread >= bound / 3 else "")
            print(f"{name:40s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6} "
                  f"{mark}")


if __name__ == "__main__":
    main()
