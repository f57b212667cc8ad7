#!/usr/bin/env python3
"""Checks a paper bench's figure counters against its committed BENCH_<name>.json.

Reads a google-benchmark JSON run of bench_<name> on stdin and compares
every counter (sizes, pages, states, evaluated tuples, heap peaks, ...)
with the figures committed in BENCH_<name>.json at the repository root.
Times are ignored: real_time, cpu_time and every counter named *_ms or
ms_per_*. The counters repeat exactly run to run, so any difference is a
change in what the program builds or reads. On a difference the checker
names each one on stderr, prints the run's counters in the committed format
on stdout and exits 1; a change that moves the figures on purpose commits
that output as BENCH_<name>.json.

Usage (from the repository root, after a Release build), for each of
ch3_cube, ch3_frag, ch4, ch5, ch6 and ch7:
  ./build-release/bench/bench_ch4 --rows_scale=0.2 --benchmark_format=json \\
    | python3 tools/check_bench.py ch4
"""
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")

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
    if len(sys.argv) != 2:
        print("usage: check_bench.py <bench name, e.g. ch4>", file=sys.stderr)
        return 2
    name = sys.argv[1]
    got = figure_counters(json.loads(sys.stdin.read()))
    committed_path = os.path.join(ROOT, f"BENCH_{name}.json")
    committed = {"bench": f"bench_{name}", "args": "--rows_scale=0.2",
                 "counters": {}}
    if os.path.exists(committed_path):
        with open(committed_path) as f:
            committed = json.load(f)
    want = committed["counters"]
    problems = []
    for bench in sorted(set(want) | set(got)):
        if bench not in got:
            problems.append(f"{bench}: missing from the run")
            continue
        if bench not in want:
            problems.append(f"{bench}: not in BENCH_{name}.json")
            continue
        for key in sorted(set(want[bench]) | set(got[bench])):
            w, g = want[bench].get(key), got[bench].get(key)
            if w != g:
                problems.append(f"{bench} {key}: {g!r}, committed {w!r}")
    if not problems:
        return 0
    for problem in problems:
        print(problem, file=sys.stderr)
    json.dump({**committed, "counters": got}, sys.stdout, indent=2)
    print()
    return 1


if __name__ == "__main__":
    sys.exit(main())
