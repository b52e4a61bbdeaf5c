#!/usr/bin/env python3
"""Compare two result documents of ``run.py``, one row per pairing.

``python3 benchmarks/e2e/compare.py a.json b.json`` prints, for every
workload x end-to-end metric, both medians, how much worse ``b`` is
than ``a``, the metric's bound and a verdict:

``ok``          ``b`` is not worse than ``a`` by more than the bound
``regressed``   it is
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so the medians cannot settle it — unless every
                run of one side beats every run of the other

Exit status is 1 when any row regressed (or ``b`` failed operations
that ``a`` did not), 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def separated(a: List[float], b: List[float], better: str, b_wins: bool) -> bool:
    """True when every run of one side beats every run of the other."""
    if better == "lower":
        return max(b) < min(a) if b_wins else min(b) > max(a)
    return min(b) > max(a) if b_wins else max(b) < min(a)


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    spreads = [s for s in (a.get("spread"), b.get("spread")) if s is not None]
    wide = bool(spreads) and max(spreads) > bound
    regressed = worse_by(a["median"], b["median"], better) > bound
    if not wide:
        return "regressed" if regressed else "ok"
    if separated(a["values"], b["values"], better, b_wins=not regressed):
        return "regressed" if regressed else "ok"
    return "unresolved"


def _percent(value: Optional[float]) -> str:
    return "   n/a" if value is None else f"{value:6.1%}"


def compare(a: dict, b: dict) -> int:
    metrics = a["metrics"]
    regressions = 0
    print(
        f"{'workload':<24} {'metric':<16} {'a':>12} {'b':>12} "
        f"{'worse by':>9} {'bound':>6} {'spread a':>8} {'spread b':>8}  verdict"
    )
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            print(f"{name:<24} missing from the second document")
            regressions += 1
            continue
        for metric, rule in metrics.items():
            side_a = entry_a["end_to_end"][metric]
            side_b = entry_b["end_to_end"][metric]
            outcome = verdict(side_a, side_b, rule["better"], rule["bound"])
            regressions += outcome == "regressed"
            print(
                f"{name:<24} {metric:<16} {side_a['median']:>12.4f} "
                f"{side_b['median']:>12.4f} "
                f"{worse_by(side_a['median'], side_b['median'], rule['better']):>+9.1%} "
                f"{rule['bound']:>6.0%} {_percent(side_a.get('spread')):>8} "
                f"{_percent(side_b.get('spread')):>8}  {outcome}"
            )
        # any increase in failed operations is a regression
        outcome = "ok"
        if entry_b["error_rate"] > entry_a["error_rate"]:
            outcome = "regressed"
            regressions += 1
        print(
            f"{name:<24} {'error_rate':<16} {entry_a['error_rate']:>12.4f} "
            f"{entry_b['error_rate']:>12.4f} {'':>9} {'any':>6} {'':>8} {'':>8}  "
            f"{outcome}  ({entry_b['failed']}/{entry_b['attempted']} failed)"
        )
    return 1 if regressions else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    return compare(*documents)


if __name__ == "__main__":
    sys.exit(main())
