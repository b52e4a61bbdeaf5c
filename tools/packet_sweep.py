#!/usr/bin/env python3
"""End-to-end packet-size sweep of one benchmark drain rig.

``python3 tools/packet_sweep.py --workload NAME [--quick] [--repeats 7]``
(``make packet-sweep WORKLOAD=NAME``), from the repository root.

Builds the workload's rig exactly as ``benchmarks/e2e`` does, then runs
its FastPR star drain through the public ``execute(plan,
packet_size=...)`` at every power-of-two packet size from 16 KiB (4 KiB
with ``--quick``) up to the chunk, verifying every drain's bytes.  The
sizes are interleaved — one drain each per repeat, so host drift hits
them all alike — and the median seconds per drain are printed beside
the size ``repro.core.analysis.optimal_packet_size`` picks for the rig
(what ``execute(plan)`` uses when no size is given).

Also printed: the least-squares fit of the rule's own model to the
sweep, ``seconds(n) = a + rounds * (cost * n + (chunk / n) * fill)`` for
``n`` packets per stream.  On the unthrottled in-memory rig
(``drain-cpu-mem``) ``cost`` is the per-packet critical-path cost the
rule records as ``PACKET_COST`` and ``1 / fill`` the rate of its
in-memory stage, ``MEMORY_BANDWIDTH``; on a throttled rig ``fill`` also
holds the devices' ``2/b_d + 1/b_n``.

Exit status: 0 when the rule's choice is within ``--tolerance`` (5 %)
of the fastest swept size, 1 when it is slower or a drain failed.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

KIB = 1024


def sweep_sizes(chunk: int, smallest: int) -> List[int]:
    """Powers of two from ``smallest`` up to ``chunk`` (inclusive)."""
    sizes = []
    size = smallest
    while size <= chunk:
        sizes.append(size)
        size *= 2
    return sizes


def fit_model(
    medians: Dict[int, float], chunk: int, rounds: int
) -> Tuple[float, float]:
    """Least-squares ``(cost, fill)`` of the rule's model on a sweep.

    ``cost`` is seconds per packet per stream per round, ``fill``
    seconds per packet byte per round (the sum of ``1/b`` over the
    stages a first packet crosses before the pipeline overlaps).
    """
    counts = np.array([chunk / size for size in medians])
    design = np.stack([np.ones_like(counts), counts, 1.0 / counts], axis=1)
    (_, per_packet, per_fill), *_ = np.linalg.lstsq(
        design, np.array(list(medians.values())), rcond=None
    )
    return per_packet / rounds, per_fill / rounds / chunk


def judge(medians: Dict[int, float], choice: int, tolerance: float) -> dict:
    """Compare the rule's ``choice`` with the fastest swept size."""
    best = min(medians, key=medians.get)
    excess = medians[choice] / medians[best] - 1.0
    return {"best": best, "excess": excess, "ok": excess <= tolerance}


def run_sweep(workload: str, quick: bool, repeats: int, seed: int) -> dict:
    """Median seconds per verified star drain at each packet size."""
    from repro.obs import Tracer
    import workloads

    shape = workloads.SHAPES[workload]
    if shape.load != "drain":
        raise SystemExit(f"{workload} is not a drain workload")
    if quick:
        shape = workloads.quick_shape(shape)
    sizes = sweep_sizes(shape.chunk, 4 * KIB if quick else 16 * KIB)
    samples: Dict[int, List[float]] = {size: [] for size in sizes}
    with tempfile.TemporaryDirectory(prefix="packet-sweep-") as workdir:
        rig = workloads.Rig(shape, seed, Path(workdir), Tracer(enabled=False))
        try:
            plan = rig.plans["star"]
            for repeat in range(repeats + 1):  # the first pass warms up
                for size in sizes:
                    seconds = _drain(workloads, rig, plan, size)
                    if repeat:
                        samples[size].append(seconds)
            choice = rig.bed.packet_size
        finally:
            rig.close()
    return {
        "chunk": shape.chunk,
        "rounds": plan.num_rounds,
        "repaired_bytes": plan.total_chunks * shape.chunk,
        "choice": choice,
        "medians": {s: statistics.median(v) for s, v in samples.items()},
    }


def _drain(workloads, rig, plan, packet_size: Optional[int]) -> float:
    workloads._clear_destinations(rig, plan)
    started = time.perf_counter()
    result = rig.bed.execute(plan, packet_size=packet_size)
    seconds = time.perf_counter() - started
    problem = workloads._verify_drain(rig, plan, result)
    if problem is not None:
        raise SystemExit(f"drain at packet_size={packet_size} failed: {problem}")
    return seconds


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--quick", action="store_true",
                        help="64 KiB chunks, as benchmarks/e2e --quick")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tolerance", type=float, default=0.05)
    args = parser.parse_args(argv)

    sweep = run_sweep(args.workload, args.quick, args.repeats, args.seed)
    medians, choice, chunk = sweep["medians"], sweep["choice"], sweep["chunk"]
    verdict = judge(medians, choice, args.tolerance)
    print(
        f"{args.workload}{' (quick)' if args.quick else ''}: "
        f"{chunk // KIB} KiB chunks, {sweep['rounds']} rounds, "
        f"median of {args.repeats} drains per size"
    )
    print(f"{'packet':>10} {'per stream':>10} {'s/drain':>9} {'MB/s':>8}")
    for size, seconds in medians.items():
        marks = [
            name
            for name, at in (("rule", choice), ("best", verdict["best"]))
            if at == size
        ]
        print(
            f"{size // KIB:>6} KiB {chunk // size:>10} {seconds:>9.3f} "
            f"{sweep['repaired_bytes'] / seconds / 1e6:>8.1f}"
            + (f"  <- {', '.join(marks)}" if marks else "")
        )
    cost, fill = fit_model(medians, chunk, sweep["rounds"])
    if cost > 0 and fill > 0:
        print(
            f"fit: {cost * 1e3:.2f} ms per packet per stream per round, "
            f"fill {fill * 1e9:.1f} ns/byte ({1e-6 / fill:.0f} MB/s)"
        )
    else:
        print("fit: the sweep has no interior optimum to fit")
    print(
        f"rule picks {choice // KIB} KiB: {verdict['excess'] * 100:+.1f} % "
        f"against the best ({verdict['best'] // KIB} KiB), "
        f"{'within' if verdict['ok'] else 'OUTSIDE'} "
        f"{args.tolerance * 100:.0f} %"
    )
    return 0 if verdict["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
