#!/usr/bin/env python3
"""Summarises the untraced result files a series of runs left behind.

For each workload and end-to-end metric it prints the median over the runs,
the first and third quartile, and the spread (Q3 - Q1 over the median) next
to the metric's bound from BENCHMARK.json:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload cifar10_dp4 --seed $seed --trace 0
    done
    python3 perfbench/summary.py
"""

import json
import sys
from pathlib import Path

from stats import quartiles, read_result, spread

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".bench_build" / "results"


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for path in sorted(RESULTS.glob("*-trace0.json")):
        result = read_result(path)
        runs.setdefault(result["workload"], []).append(result)
    if not runs:
        sys.exit("summary: no untraced results under %s" % RESULTS)
    for workload, results in sorted(runs.items()):
        failed = sum(r["failed"] for r in results)
        print("== %s: %d runs, %d failed operations" % (workload, len(results), failed))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                print("   %-18s %14.6f (one run)" % (name, values[0]))
                continue
            q1, q2, q3 = quartiles(values)
            print("   %-18s median %12.6f  Q1 %12.6f  Q3 %12.6f  spread %.3f  bound %.2f" %
                  (name, q2, q1, q3, spread(values), bound))


if __name__ == "__main__":
    main()
