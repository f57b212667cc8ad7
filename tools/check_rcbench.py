#!/usr/bin/env python3
"""Checks one rcbench result against the committed BENCH_rcbench.json.

Reads the result object (the last line rcbench/run.py prints) on stdin and
exits 1 when the run answered a query wrongly, failed any operation, or,
for a workload the file pins, charged a pages_per_query other than the
committed figure. pages_per_query repeats exactly per seed on the pinned
workloads, so any difference is a change in the pages the program reads; a
change that moves them on purpose updates the file.

Usage (from the repository root):
  python3 rcbench/run.py --workload adhoc_olap --seed 1 --seconds 2 \\
    --trace 0 | tail -n 1 | python3 tools/check_rcbench.py adhoc_olap
"""
import json
import os
import sys

COMMITTED = os.path.join(os.path.dirname(__file__), "..", "BENCH_rcbench.json")


def main():
    workload = sys.argv[1]
    result = json.loads(sys.stdin.read())
    with open(COMMITTED) as f:
        pinned = json.load(f)["pages_per_query"]
    problems = []
    if not result["correct"]:
        problems.append("wrong answers")
    if result["failed"] != 0:
        problems.append(f"{result['failed']} failed operations")
    pages = result["metrics"]["pages_per_query"]["value"]
    if workload in pinned and pages != pinned[workload]:
        problems.append(f"pages_per_query {pages!r}, committed "
                        f"{pinned[workload]!r}")
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
