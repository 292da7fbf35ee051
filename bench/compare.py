#!/usr/bin/env python3
"""Summarize one result set, or compare two, per workload and metric.

    python3 bench/compare.py bench/out/sets/A              # steadiness
    python3 bench/compare.py bench/out/sets/A bench/out/sets/B

A result set is a directory of untraced run records written by
``run.py --results`` (for example by ``sweep.py``).  For each workload
and end-to-end metric of BENCHMARK.json the report gives the median and
quartiles over the set's runs (``statistics.quantiles(values, n=4)``)
and the spread, (Q3 - Q1) / median.

With one set, a metric is ``steady`` when its spread is below a third of
its bound and ``wide`` when the spread exceeds the bound.  With two
sets, runs are paired by seed; ``won`` counts the pairs where B is
better, ties counting for neither.  ``worse`` is how much B's median is worse than A's, as a
share of A's median; beyond the bound it is a regression.  ``gain``
marks a metric where B wins at least nine tenths of the pairs and the
medians differ by more than A's quartile distance.

Exit code 1 on a wide spread (one set) or a regression (two sets).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METRICS = SPEC["end_to_end"]


def load(directory: Path) -> dict:
    """workload -> seed -> metric -> value, from untraced records."""
    runs: dict = {}
    for path in sorted(directory.glob("*.trace0.json")):
        record = json.loads(path.read_text())
        values = {k: m["value"] for k, m in record["result"]["metrics"].items()}
        runs.setdefault(record["workload"], {})[record["seed"]] = values
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def summarize(runs: dict) -> int:
    bad = 0
    print(f"{'workload':14} {'metric':22} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}  status")
    for workload, seeds in runs.items():
        for metric in METRICS:
            name, bound = metric["name"], metric["bound"]
            values = [v[name] for v in seeds.values() if name in v]
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            status = "steady" if s < bound / 3 else "within bound" if s <= bound else "wide"
            if status == "wide":
                bad += 1
            print(f"{workload:14} {name:22} {len(values):3d} {q2:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {s:8.4f} {bound:6.3f}  {status}")
    return 1 if bad else 0


def compare(a: dict, b: dict) -> int:
    regressions = 0
    print(f"{'workload':14} {'metric':22} {'A median':>12} {'A q1-q3':>25} "
          f"{'B median':>12} {'B q1-q3':>25} {'won':>7} {'worse':>8} {'bound':>6}  verdict")
    for workload in a:
        if workload not in b:
            print(f"{workload}: missing from B")
            regressions += 1
            continue
        for metric in METRICS:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            seeds = sorted(set(a[workload]) & set(b[workload]))
            pairs = [(a[workload][s][name], b[workload][s][name]) for s in seeds]
            va = [v[name] for v in a[workload].values()]
            vb = [v[name] for v in b[workload].values()]
            qa, qb = quartiles(va), quartiles(vb)
            won = sum(sign * (y - x) < 0 for x, y in pairs)
            worse = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif pairs and won >= 0.9 * len(pairs) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
                verdict = "gain"
            else:
                verdict = "within bound"
            print(f"{workload:14} {name:22} {qa[1]:12.6g} "
                  f"{qa[0]:12.6g}-{qa[2]:<12.6g} {qb[1]:12.6g} "
                  f"{qb[0]:12.6g}-{qb[2]:<12.6g} {won:3d}/{len(pairs):<3d} "
                  f"{worse:8.4f} {bound:6.3f}  {verdict}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(p)) for p in argv]
    if not sets[0]:
        print(f"no run records in {argv[0]}", file=sys.stderr)
        return 2
    return summarize(sets[0]) if len(sets) == 1 else compare(*sets)


if __name__ == "__main__":
    sys.exit(main())
