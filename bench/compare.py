#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are result files written by ``run.py --out`` (a single
result, or the list ``--workload all`` writes), or directories of them.
Runs of the two sides are paired by seed (by order when no seeds match).
Each workload gets its own rows; for every metric they show each side's
median and quartiles, the change's median relative to the parent's, the
share of pairs the change won (ties count for neither side), and for an
end-to-end metric a verdict against its BENCHMARK.json bound:

``unresolved``
    the parent's own spread (inter-quartile distance over median) exceeds
    the bound, and not every change run beats every parent run;
``regressed``
    the change's median is worse than the parent's by more than the bound;
``improved``
    the change won at least nine tenths of the pairs and the medians differ
    by more than the parent's inter-quartile distance;
``unchanged``
    anything else.

Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Row:
    """One workload x metric comparison."""

    workload: str
    metric: str
    unit: str
    parent: Tuple[float, float, float]
    change: Tuple[float, float, float]
    pairs: int
    won: float
    verdict: str

    @property
    def delta(self) -> float:
        """Change median relative to the parent median."""
        base = self.parent[1]
        return (self.change[1] - base) / abs(base) if base else 0.0


def load_results(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Result dicts from files or directories of ``*.json`` files."""
    results: List[Dict[str, Any]] = []
    for name in paths:
        path = Path(name)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            data = json.loads(file.read_text(encoding="utf-8"))
            for result in data if isinstance(data, list) else [data]:
                if "workload" in result and "metrics" in result:
                    results.append(result)
    return results


def _group(results: Sequence[Dict[str, Any]]
           ) -> Dict[str, List[Dict[str, Any]]]:
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for result in results:
        label = result["workload"] + (" [traced]" if result.get("trace")
                                      else "")
        groups.setdefault(label, []).append(result)
    return groups


def _pairs(parent: List[Dict[str, Any]], change: List[Dict[str, Any]]
           ) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
    by_seed = {r.get("seed"): r for r in change}
    matched = [(p, by_seed[p.get("seed")]) for p in parent
               if p.get("seed") in by_seed]
    return matched or list(zip(parent, change))


def _better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` reads better than ``b``."""
    return a < b if direction == "lower" else a > b


def verdict(parent: Sequence[float], change: Sequence[float],
            pairs: Sequence[Tuple[float, float]], direction: str,
            bound: Optional[float]) -> Tuple[str, float]:
    """The guide's rules for one metric; returns ``(verdict, share won)``."""
    won = (sum(1 for p, c in pairs if _better(c, p, direction)) / len(pairs)
           if pairs else 0.0)
    if bound is None:
        return "-", won
    p_q1, p_med, p_q3 = stats.quartiles(parent)
    c_med = stats.median(change)
    if stats.spread(parent) > bound and not all(
            _better(c, p, direction) for c in change for p in parent):
        return "unresolved", won
    worse = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    if p_med and worse / abs(p_med) > bound:
        return "regressed", won
    if (won >= 0.9 and _better(c_med, p_med, direction)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "improved", won
    return "unchanged", won


def compare(parent: Sequence[Dict[str, Any]], change: Sequence[Dict[str, Any]],
            spec: Dict[str, Any]) -> List[Row]:
    """Rows for every workload and metric both sides measured."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    directions = {m["name"]: m for m in spec["per_layer"]}
    directions.update(bounds)
    rows = []
    change_groups = _group(change)
    for label, parent_runs in sorted(_group(parent).items()):
        change_runs = change_groups.get(label, [])
        pairs = _pairs(parent_runs, change_runs)
        if not pairs:
            continue
        for metric, entry in directions.items():
            if metric not in parent_runs[0]["metrics"]:
                continue
            values = [(p["metrics"][metric]["value"],
                       c["metrics"][metric]["value"]) for p, c in pairs]
            p_vals = [r["metrics"][metric]["value"] for r in parent_runs]
            c_vals = [r["metrics"][metric]["value"] for r in change_runs]
            result, won = verdict(p_vals, c_vals, values, entry["better"],
                                  entry.get("bound"))
            rows.append(Row(label, metric, entry["unit"],
                            stats.quartiles(p_vals), stats.quartiles(c_vals),
                            len(pairs), won, result))
    return rows


def format_rows(rows: Sequence[Row]) -> str:
    """A plain-text table, one block per workload."""
    lines: List[str] = []
    workload = None
    for row in rows:
        if row.workload != workload:
            workload = row.workload
            lines.append(f"\n{workload} ({row.pairs} pairs)")
            lines.append(f"  {'metric':<30} {'unit':<9} "
                         f"{'parent median [q1, q3]':<34} "
                         f"{'change median [q1, q3]':<34} "
                         f"{'delta':>8} {'won':>5}  verdict")
        sides = [f"{m:.6g} [{q1:.6g}, {q3:.6g}]"
                 for q1, m, q3 in (row.parent, row.change)]
        lines.append(f"  {row.metric:<30} {row.unit:<9} {sides[0]:<34} "
                     f"{sides[1]:<34} {row.delta:>+8.2%} {row.won:>5.0%}"
                     f"  {row.verdict}")
    return "\n".join(lines).lstrip("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="parent results (file or directory)")
    parser.add_argument("change", help="change results (file or directory)")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    rows = compare(load_results([args.parent]), load_results([args.change]),
                   spec)
    if not rows:
        print("compare: no workload measured on both sides", file=sys.stderr)
        return 2
    print(format_rows(rows))
    return 1 if any(row.verdict == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
