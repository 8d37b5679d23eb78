"""Compare two sets of benchmark results, one row per (metric, workload).

    python3 perfbench/run.py --workload codim-wall --seed 1 --out base.jsonl
    ...  (ten seeds on the parent commit, the same ten on the change)
    python3 perfbench/compare.py base.jsonl change.jsonl

Runs are paired by seed.  Verdicts, for a metric with a bound in
BENCHMARK.json:

- unresolved: the spread (q3 - q1 over the median) of either side
  exceeds the bound, unless every run of the change reads better than
  every run of the base;
- regression: the change's median is worse than the base's by more
  than the bound;
- gain: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the base's q3 - q1;
- unchanged: otherwise.

Per-layer metrics have no bound and are only marked gain or "-".
Results recorded on different machines are flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MACHINE_KEYS = ("cpu", "nproc", "python")


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def wins(pairs: list[tuple[float, float]], better: str) -> int:
    """Pairs (base, change) in which the change reads better; ties count for neither."""
    sign = 1 if better == "lower" else -1
    return sum(1 for b, c in pairs if sign * (c - b) < 0)


def verdict(base: list[float], change: list[float],
            pairs: list[tuple[float, float]], better: str,
            bound: float | None) -> str:
    sign = 1 if better == "lower" else -1
    b1, b_median, b3 = quartiles(base)
    c_median = quartiles(change)[1]
    if bound is not None:
        every_run_better = all(sign * (c - b) < 0 for c in change for b in base)
        if not every_run_better and max(_spread(base), _spread(change)) > bound:
            return "unresolved"
        if sign * (c_median - b_median) > bound * abs(b_median):
            return "regression"
    won = wins(pairs, better)
    if pairs and won >= 0.9 * len(pairs) and sign * (b_median - c_median) > b3 - b1:
        return "gain"
    return "unchanged" if bound is not None else "-"


def machines(records: list[dict]) -> set[tuple]:
    return {tuple(r["meta"].get(k) for k in MACHINE_KEYS) for r in records}


def compare(base: list[dict], change: list[dict], spec: dict) -> list[dict]:
    """One row per (metric, workload) present on both sides."""
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    workloads = sorted({(r["workload"], r["trace"]) for r in base})
    for workload, trace in workloads:
        b_runs = {r["seed"]: r for r in base
                  if (r["workload"], r["trace"]) == (workload, trace)}
        c_runs = {r["seed"]: r for r in change
                  if (r["workload"], r["trace"]) == (workload, trace)}
        if not c_runs:
            continue
        names = [n for n in next(iter(b_runs.values()))["metrics"] if n in metric_spec]
        for name in names:
            b_vals = [r["metrics"][name]["value"] for r in b_runs.values()]
            c_vals = [r["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [(b_runs[s]["metrics"][name]["value"],
                      c_runs[s]["metrics"][name]["value"])
                     for s in b_runs if s in c_runs]
            m = metric_spec[name]
            rows.append({
                "metric": name,
                "workload": workload,
                "unit": m["unit"],
                "base": quartiles(b_vals),
                "change": quartiles(c_vals),
                "wins": wins(pairs, m["better"]),
                "pairs": len(pairs),
                "verdict": verdict(b_vals, c_vals, pairs, m["better"], m.get("bound")),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two benchmark result sets")
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)
    spec = json.loads(BENCHMARK.read_text())
    seen = machines(base) | machines(change)
    if len(seen) > 1:
        print("WARNING: results come from different machines:", file=sys.stderr)
        for machine in sorted(seen, key=str):
            print(f"  {dict(zip(MACHINE_KEYS, machine))}", file=sys.stderr)
    print(f"{'metric':34s} {'workload':12s} {'base q1/med/q3':>30s} "
          f"{'change median':>14s} {'shift':>8s} {'wins':>6s}  verdict")
    for row in compare(base, change, spec):
        b1, bm, b3 = row["base"]
        cm = row["change"][1]
        shift = f"{(cm - bm) / bm:+.1%}" if bm else "n/a"
        print(f"{row['metric']:34s} {row['workload']:12s} "
              f"{b1:9.4g} {bm:9.4g} {b3:9.4g} {row['unit']:>2s} {cm:14.4g} "
              f"{shift:>8s} {row['wins']:>2d}/{row['pairs']:<3d}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
