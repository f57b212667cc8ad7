#!/usr/bin/env python3
"""Checks bench_ch4's figure counters against the committed BENCH_ch4.json.

Reads a google-benchmark JSON run of bench_ch4 on stdin and compares every
counter of Figs 4.8-4.13 (sizes, pages, evaluated tuples, heap peaks) with
the committed figures. Times are ignored: real_time, cpu_time and every
counter named *_ms or ms_per_*. The counters repeat exactly run to run, so
any difference is a change in what the program builds or reads. On a
difference the checker names each one on stderr, prints the run's counters
in the committed format on stdout and exits 1; a change that moves the
figures on purpose commits that output as BENCH_ch4.json.

Usage (from the repository root, after a Release build):
  ./build-release/bench/bench_ch4 --rows_scale=0.2 --benchmark_format=json \\
    | python3 tools/check_bench_ch4.py
"""
import json
import os
import sys

COMMITTED = os.path.join(os.path.dirname(__file__), "..", "BENCH_ch4.json")

# Per-run bookkeeping google-benchmark adds beside the counters.
NOT_COUNTERS = {"family_index", "per_family_instance_index", "repetitions",
                "repetition_index", "threads", "iterations", "real_time",
                "cpu_time"}


def figure_counters(run):
    out = {}
    for bench in run["benchmarks"]:
        out[bench["name"]] = {
            key: value for key, value in sorted(bench.items())
            if isinstance(value, (int, float)) and key not in NOT_COUNTERS
            and not key.endswith("_ms") and not key.startswith("ms_per_")}
    return out


def main():
    got = figure_counters(json.loads(sys.stdin.read()))
    with open(COMMITTED) as f:
        committed = json.load(f)
    want = committed["counters"]
    problems = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            problems.append(f"{name}: missing from the run")
            continue
        if name not in want:
            problems.append(f"{name}: not in BENCH_ch4.json")
            continue
        for key in sorted(set(want[name]) | set(got[name])):
            w, g = want[name].get(key), got[name].get(key)
            if w != g:
                problems.append(f"{name} {key}: {g!r}, committed {w!r}")
    if not problems:
        return 0
    for problem in problems:
        print(problem, file=sys.stderr)
    json.dump({**committed, "counters": got}, sys.stdout, indent=2)
    print()
    return 1


if __name__ == "__main__":
    sys.exit(main())
