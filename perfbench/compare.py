#!/usr/bin/env python3
"""Compares two result sets of perfbench/run.py.

    python3 perfbench/compare.py <results-a> <results-b>

Each argument is a --results directory of run.py (default
.bench_build/results), holding <workload>-seed<n>-trace0.json files; run
the same seeds on both sides. For every workload and end-to-end metric it
prints the median and quartiles of each set and a verdict on B against A:

  worse       B's median is worse than A's by more than the metric's bound
  better      B's median is better by more than the bound
  same        the medians differ by no more than the bound
  unresolved  either set's spread (quartile distance over median) is wider
              than the bound, so the sets cannot tell a change of that size
              apart from noise -- unless every run of B reads better than
              every run of A, which is reported as better

The exit code is 1 when any metric is worse, else 0.
"""

import glob
import json
import os
import re
import statistics
import sys


def load(directory):
    """{workload: {metric: [values]}} over the untraced results."""
    sets = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        match = re.match(r"(.+)-seed(-?\d+)-trace0\.json$", os.path.basename(path))
        if not match:
            continue
        with open(path) as f:
            result = json.load(f)
        per_metric = sets.setdefault(match.group(1), {})
        for name, metric in result["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return sets


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(a, b, bound, better):
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = sign * (med_b - med_a) / med_a if med_a else 0.0  # > 0: B better
    all_better = min(b) > max(a) if better == "higher" else max(b) < min(a)
    if all_better:
        return "better", change
    if max(spread(a), spread(b)) > bound:
        return "unresolved", change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "same", change


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    set_a, set_b = load(sys.argv[1]), load(sys.argv[2])
    worse = False
    print(f"{'workload':13s} {'metric':15s} {'A q1/median/q3':>30s} "
          f"{'B q1/median/q3':>30s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in sorted(set(set_a) & set(set_b)):
        for name, metric in spec.items():
            a = set_a[workload].get(name)
            b = set_b[workload].get(name)
            if not a or not b:
                continue
            result, change = verdict(a, b, metric["bound"], metric["better"])
            worse |= result == "worse"
            qa = "/".join(f"{v:.4g}" for v in quartiles(a))
            qb = "/".join(f"{v:.4g}" for v in quartiles(b))
            print(f"{workload:13s} {name:15s} {qa:>30s} {qb:>30s} "
                  f"{change:+8.1%} {metric['bound']:6.2f}  {result}"
                  f"  (n={len(a)}/{len(b)})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
