#!/usr/bin/env python3
"""Compare two sets of end-to-end runs: a parent commit and a change.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records ``run.py --out DIR`` writes.  Make the
two sets as alternating pairs (parent, change, parent, change, ...;
at least 10 pairs per workload) with the same seeds and ``--seconds``.
The i-th parent run of a workload is paired with its i-th change run,
in start order.

For every workload and end-to-end metric this prints each side's median
and quartiles, the share of pairs the change wins (ties count for
neither) and a verdict against the bound in BENCHMARK.json:

* ``improved``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range;
* ``unresolved``: fewer than 10 pairs, or either side's interquartile
  range is wider than the bound — unless every change run beats every
  parent run, which is ``no-regression``;
* ``no-regression``: the change's median is no worse than the parent's
  by more than the bound;
* ``regressed``: otherwise.

It also prints each side's failed-operation share and checks that the
decision digest and ``utopia_gap_mean`` are identical for every seed
across both sides.  Exit status 1 if any metric regressed or a digest
differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Untraced run records by workload, in start order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text())
        if not record.get("trace"):
            runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["started_at"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[str, float]:
    """(verdict, share of pairs the change wins) for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    scale = abs(pm) or 1e-12
    if len(pairs) < MIN_PAIRS:
        return "unresolved", win_share
    if win_share >= 0.9 and sign * (cm - pm) > p3 - p1:
        return "improved", win_share
    if max(p3 - p1, c3 - c1) / scale > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "no-regression", win_share
        return "unresolved", win_share
    worse = -sign * (cm - pm) / scale
    return ("no-regression" if worse <= bound else "regressed"), win_share


def determinism_errors(parent: list[dict], change: list[dict]) -> list[str]:
    """Seeds whose digest or utopia_gap_mean differ between any two runs."""
    seen: dict[int, set] = defaultdict(set)
    for record in parent + change:
        seen[record["seed"]].add(
            (record["digest"], record["metrics"]["utopia_gap_mean"]["value"])
        )
    return [f"seed {seed}: {len(v)} distinct (digest, utopia_gap_mean)"
            for seed, v in sorted(seen.items()) if len(v) > 1]


def _failed_share(records: list[dict]) -> str:
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return f"{failed}/{attempted} = {failed / attempted if attempted else 0.0:.4f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="directory of parent-commit runs")
    parser.add_argument("change", type=Path, help="directory of change runs")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    status = 0
    for w in spec["workloads"]:
        name = w["name"]
        parent, change = parent_runs.get(name, []), change_runs.get(name, [])
        print(f"\n{name}: {len(parent)} parent runs, {len(change)} change runs; "
              f"failed operations parent {_failed_share(parent)}, change {_failed_share(change)}")
        if not parent or not change:
            print("  missing runs on one side")
            status = 1
            continue
        print(f"  {'metric':<18} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
              f"{'change':>8} {'wins':>5}  verdict")
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in parent]
            c = [r["metrics"][m["name"]]["value"] for r in change]
            v, wins = verdict(p, c, m["better"], m["bound"])
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            print(f"  {m['name']:<18} {pm:>12.5g} [{p1:.5g}, {p3:.5g}] {m['unit']:<4}"
                  f" {cm:>12.5g} [{c1:.5g}, {c3:.5g}] {m['unit']:<4}"
                  f" {(cm - pm) / (abs(pm) or 1e-12):>+8.2%} {wins:>5.0%}  {v}")
            status |= v == "regressed"
        for error in determinism_errors(parent, change):
            print(f"  DETERMINISM: {error}")
            status = 1
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
