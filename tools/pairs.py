#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload.

``python3 tools/pairs.py --parent REV --workload NAME [--pairs 10] [--seed 7]``
(``make pairs PARENT=REV WORKLOAD=NAME``), from the repository root.

Exports the committed files of ``REV`` into a temporary directory, then
runs the command ``BENCHMARK.json`` names — ``--workload NAME --seed S
--seconds <run_seconds> --trace 0`` — once there and once in this
checkout per pair, alternating which side goes first (pair *i* uses
seed ``S + i`` on both sides).  Prints every run, and per end-to-end
metric both medians and quartiles, the wins, and the verdict of the
choosing-metrics guide, section 8: a gain is claimed only when the
change wins at least nine tenths of the pairs (ties count for neither)
and the medians differ by more than the distance between the parent's
own quartiles.  A metric whose median is worse than the parent's by
more than its ``bound`` in ``BENCHMARK.json`` is flagged as regressed.

Exit status: 0 when every run passed, 1 when any run failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str = "higher",
    bound: float = 0.0,
) -> dict:
    """Judge paired runs of one metric (``parent[i]`` ran with ``change[i]``).

    Returns the wins/losses/ties, each side's quartiles, and three
    flags: ``gain`` (section 8's rule), ``regressed`` (the change's
    median is worse than the parent's by more than ``bound``, a share
    of the parent's median) and ``resolved`` (false when the parent's
    spread is wider than ``bound``, so a pass on ``regressed`` proves
    little).
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', not {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    improvement = sign * (c_med - p_med)
    return {
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "parent_iqr": iqr,
        "ratio": c_med / p_med if p_med else float("nan"),
        "gain": 10 * wins >= 9 * len(parent) and improvement > iqr,
        "regressed": -improvement > bound * abs(p_med),
        "resolved": iqr <= bound * abs(p_med),
    }


def export_revision(rev: str, into: Path) -> None:
    """Unpack the committed files of ``rev`` under ``into``."""
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"pairs: cannot export revision {rev!r}")


def run_once(checkout: Path, command: List[str], args: List[str]) -> dict:
    """One benchmark run in ``checkout``: its result line, plus the
    child's voluntary context switches (``getrusage``)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_nvcsw
    done = subprocess.run(
        command + args, cwd=checkout, stdout=subprocess.PIPE, text=True
    )
    switches = resource.getrusage(resource.RUSAGE_CHILDREN).ru_nvcsw - before
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
    result["exit"] = done.returncode
    result["nvcsw"] = switches
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("-o", "--output", help="write every run and verdict as JSON")
    opts = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as tmp:
        export_revision(opts.parent, Path(tmp))
        checkouts = {"parent": Path(tmp), "change": ROOT}
        for pair in range(opts.pairs):
            args = [
                "--workload", opts.workload, "--seed", str(opts.seed + pair),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(checkouts[side], spec["command"], args)
                runs[side].append(result)
                values = "  ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                    for m in metrics
                    if m["name"] in result["metrics"]
                )
                print(
                    f"pair {pair} seed {opts.seed + pair} {side:6s} "
                    f"failed={result['failed']}/{result['attempted']} "
                    f"nvcsw={result['nvcsw']}  {values}",
                    flush=True,
                )

    failed = any(
        r["exit"] != 0 or r["failed"] or not r["correct"]
        for side in runs.values() for r in side
    )
    verdicts = {}
    print(f"\n{opts.workload}: {opts.pairs} pairs, parent {opts.parent}")
    for metric in metrics:
        name = metric["name"]
        try:
            sides = [
                [r["metrics"][name]["value"] for r in runs[side]]
                for side in ("parent", "change")
            ]
        except KeyError:
            print(f"  {name}: missing from a failed run")
            continue
        v = verdicts[name] = verdict(
            *sides, better=metric["better"], bound=metric["bound"]
        )
        if v["gain"]:
            word = "GAIN"
        elif v["regressed"]:
            word = "REGRESSED"
        else:
            word = "no gain" if v["resolved"] else "no gain (unresolved: spread > bound)"
        print(
            f"  {name} [{metric['unit']}, {metric['better']} is better]\n"
            f"    parent q1/med/q3 {v['parent']['q1']:.4g} / "
            f"{v['parent']['median']:.4g} / {v['parent']['q3']:.4g}"
            f"   change {v['change']['q1']:.4g} / "
            f"{v['change']['median']:.4g} / {v['change']['q3']:.4g}\n"
            f"    ratio {v['ratio']:.3f}  wins {v['wins']}/{v['pairs']} "
            f"(ties {v['ties']})  parent IQR {v['parent_iqr']:.4g}"
            f"  -> {word}"
        )
    for side in ("parent", "change"):
        print(
            f"  nvcsw per run, {side}: "
            f"median {statistics.median(r['nvcsw'] for r in runs[side]):.0f}"
        )
    if failed:
        print("  FAILED RUNS PRESENT: no claim can rest on these pairs")
    if opts.output:
        Path(opts.output).write_text(
            json.dumps(
                {
                    "workload": opts.workload, "parent": opts.parent,
                    "seed": opts.seed, "runs": runs, "verdicts": verdicts,
                },
                indent=2,
            )
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
