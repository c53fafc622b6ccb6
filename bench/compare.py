"""Compare two sets of benchmark runs (see bench/README.md).

    python3 bench/compare.py A.jsonl B.jsonl

``A`` and ``B`` are JSON Lines files of run reports as ``run.py --out``
appends them: ``A`` for the parent commit, ``B`` for the change.  For
every workload and metric it prints each side's median and quartiles
and a verdict.  End-to-end metrics use the bounds of ``BENCHMARK.json``:
``regressed`` when B's median is worse than A's by more than the bound,
``improved`` when better by more than the bound, ``unresolved`` when
either side's spread (quartile distance over median) exceeds the bound
and not every run of B beats every run of A, else ``unchanged``.
Per-layer metrics (from traced runs) have no bound; one whose median
moves by more than ``LAYER_MOVE`` and by more than either side's spread
is reported as ``moved``, and the largest such move of each workload is
named.  Exits 1 when an end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: relative move beyond which a per-layer metric is reported as moved
LAYER_MOVE = 0.25


def load(path: Path) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float | None):
    """``(verdict, relative change of the median)`` of B against A."""
    (a1, a_med, a3), (b1, b_med, b3) = quartiles(a), quartiles(b)
    if a_med == 0:
        return ("unchanged" if b_med == 0 else "new", 0.0)
    change = (b_med - a_med) / abs(a_med)
    worse = change if better == "lower" else -change
    spread = max((a3 - a1) / abs(a_med), (b3 - b1) / abs(b_med) if b_med else 0.0)
    if bound is None:
        if abs(change) > max(LAYER_MOVE, spread):
            return ("moved, worse" if worse > 0 else "moved, better", change)
        return ("steady", change)
    b_wins = all(
        (y < x) if better == "lower" else (y > x) for x in a for y in b
    )
    if spread > bound and not b_wins:
        return ("unresolved", change)
    if worse > bound:
        return ("regressed", change)
    if -worse > bound:
        return ("improved", change)
    return ("unchanged", change)


def _side(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> tuple[list[str], list[str]]:
    """Report lines, and the end-to-end regressions as ``workload metric``."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines, regressions = [], []
    for workload in [w["name"] for w in spec["workloads"]]:
        largest = None
        for trace in (0, 1):
            a = [r for r in a_runs if r["workload"] == workload and r["trace"] == trace]
            b = [r for r in b_runs if r["workload"] == workload and r["trace"] == trace]
            if not a or not b:
                continue
            kind = "per layer" if trace else "end to end"
            lines.append(f"{workload} ({kind}; A {len(a)} runs, B {len(b)} runs)")
            for name in a[0]["metrics"]:
                metric = declared[name]
                a_values = [r["metrics"][name]["value"] for r in a]
                b_values = [r["metrics"][name]["value"] for r in b]
                result, change = verdict(
                    a_values, b_values, metric["better"], metric.get("bound")
                )
                if result == "regressed":
                    regressions.append(f"{workload} {name}")
                if result.startswith("moved") and (
                    largest is None or abs(change) > abs(largest[1])
                ):
                    largest = (name, change, result)
                lines.append(
                    f"  {name:34s} A {_side(a_values):36s} B {_side(b_values):36s}"
                    f" {change:+8.1%}  {result}"
                )
        if largest is not None:
            name, change, result = largest
            lines.append(
                f"{workload}: largest per-layer move {name} {change:+.1%} "
                f"({result.split(', ')[1]})"
            )
    return lines, regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="runs of the parent commit")
    parser.add_argument("b", type=Path, help="runs of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, regressions = compare(load(args.a), load(args.b), spec)
    for line in lines:
        print(line)
    for regression in regressions:
        print(f"REGRESSED: {regression}")
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
