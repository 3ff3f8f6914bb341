#!/usr/bin/env python3
"""Compare two result sets of the session benchmark.

    python3 benchmarks/session/compare.py A.jsonl B.jsonl

Each file holds the records ``run.py --out`` appended (one JSON line per
run).  For every workload and end-to-end metric this prints both
medians, B's difference relative to A and the metric's bound from
``BENCHMARK.json``.  A pairing is ``unresolved`` when either side's
quartile spread (Q3 - Q1 over the median, as
``statistics.quantiles(values, n=4)`` gives them) is wider than the
bound: the runs cannot tell a difference of that size from noise.
Exits non-zero when any difference exceeds its bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                         "BENCHMARK.json")


def load(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> one value per untraced run."""
    values: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, metric in record["result"]["metrics"].items():
                values[record["workload"]][name].append(metric["value"])
    return values


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as handle:
        benchmark = json.load(handle)
    left, right = load(argv[0]), load(argv[1])
    status = 0
    print(f"{'workload':<16}{'metric':<16}{'A median':>11}{'B median':>11}"
          f"{'B vs A':>9}{'bound':>7}{'spread A':>10}{'spread B':>10}"
          f"{'runs':>7}  verdict")
    for workload in benchmark["workloads"]:
        name = workload["name"]
        for metric in benchmark["end_to_end"]:
            a = left.get(name, {}).get(metric["name"], [])
            b = right.get(name, {}).get(metric["name"], [])
            if not a or not b:
                print(f"{name:<16}{metric['name']:<16}  missing on one side")
                status = 1
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            difference = (median_b - median_a) / median_a
            worse = difference if metric["better"] == "lower" else -difference
            noisy = max(spread(a), spread(b)) > metric["bound"]
            if abs(difference) > metric["bound"]:
                verdict = "WORSE" if worse > 0 else "BETTER"
                status = 1
            else:
                verdict = "within bound"
            if noisy:
                verdict += ", unresolved"
            print(f"{name:<16}{metric['name']:<16}{median_a:>11.4f}"
                  f"{median_b:>11.4f}{difference:>+9.1%}"
                  f"{metric['bound']:>7.2f}{spread(a):>10.3f}"
                  f"{spread(b):>10.3f}{f'{len(a)}/{len(b)}':>7}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
