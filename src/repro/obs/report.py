"""Per-round repair breakdown from a trace document.

This is the analysis layer behind ``repro report``: fold the span tree
emitted by a repair run (testbed or simulator — same schema) into one
:class:`RoundBreakdown` per repair round, splitting each round's time
into its migration and reconstruction components the way the paper's
Figs. 8-10 do, and render the result as a table (or JSON via ``-o``).

A round's *migration seconds* is the span from the round start to the
last migration action's completion (the STF node migrates serially, so
this is the migration chain's critical path); *reconstruction seconds*
likewise for reconstruction actions.  The round duration itself is the
round span's own length — slightly larger than either split because it
includes command issue and ACK collection overhead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from .tracing import TraceDocument, TraceError, duration_of

#: schema version of the rendered report JSON
REPORT_SCHEMA_VERSION = 1


@dataclass
class RoundBreakdown:
    """Where one repair round's time went."""

    index: int
    duration: float
    migrations: int = 0
    reconstructions: int = 0
    migration_seconds: float = 0.0
    reconstruction_seconds: float = 0.0
    retries: int = 0
    #: ingress streams on the round's busiest NIC (coordinator traces
    #: only; the simulator's round spans do not carry it)
    max_ingress_streams: Optional[int] = None

    @property
    def actions(self) -> int:
        return self.migrations + self.reconstructions

    def to_dict(self) -> dict:
        document = {
            "round": self.index,
            "duration_s": self.duration,
            "actions": self.actions,
            "migrations": self.migrations,
            "reconstructions": self.reconstructions,
            "migration_s": self.migration_seconds,
            "reconstruction_s": self.reconstruction_seconds,
            "retries": self.retries,
        }
        if self.max_ingress_streams is not None:
            document["max_ingress_streams"] = self.max_ingress_streams
        return document


@dataclass
class RepairBreakdown:
    """A whole repair run, folded round by round."""

    rounds: List[RoundBreakdown] = field(default_factory=list)
    total_seconds: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def total_actions(self) -> int:
        return sum(r.actions for r in self.rounds)

    def to_dict(self) -> dict:
        return {
            "version": REPORT_SCHEMA_VERSION,
            "total_s": self.total_seconds,
            "attrs": dict(self.attrs),
            "rounds": [r.to_dict() for r in self.rounds],
        }


def breakdown_from_trace(
    trace: Union[TraceDocument, dict]
) -> RepairBreakdown:
    """Fold a trace document into per-round breakdowns.

    Raises:
        TraceError: if the document holds no ``repair`` span.
    """
    if not isinstance(trace, TraceDocument):
        trace = TraceDocument(trace)
    repairs = trace.named("repair")
    if not repairs:
        raise TraceError("trace holds no 'repair' span; nothing to report")
    # Multiple repair spans (crash/recover cycles) fold into one
    # breakdown: later incarnations re-report rounds they skipped as
    # already complete, so rounds are keyed — not appended — by index.
    breakdown = RepairBreakdown()
    rounds: Dict[int, RoundBreakdown] = {}
    for repair in repairs:
        breakdown.total_seconds += duration_of(repair)
        for key, value in repair["attrs"].items():
            breakdown.attrs.setdefault(key, value)
        for round_span in trace.children_of(repair["id"], "round"):
            index = int(round_span["attrs"].get("round", len(rounds)))
            duration = duration_of(round_span)
            entry = rounds.get(index)
            if entry is None:
                entry = rounds[index] = RoundBreakdown(index, 0.0)
            entry.duration += duration
            streams = round_span["attrs"].get("max_ingress_streams")
            if streams is not None:
                entry.max_ingress_streams = max(
                    entry.max_ingress_streams or 0, int(streams)
                )
            start = round_span["start"]
            for action in trace.children_of(round_span["id"], "action"):
                method = action["attrs"].get("method", "reconstruction")
                elapsed = (action.get("end") or start) - start
                entry.retries += int(action["attrs"].get("retries", 0))
                if method == "migration":
                    entry.migrations += 1
                    entry.migration_seconds = max(
                        entry.migration_seconds, elapsed
                    )
                else:
                    entry.reconstructions += 1
                    entry.reconstruction_seconds = max(
                        entry.reconstruction_seconds, elapsed
                    )
    breakdown.rounds = [rounds[i] for i in sorted(rounds)]
    return breakdown


def render_breakdown(breakdown: RepairBreakdown) -> str:
    """The ``repro report`` table."""
    header = (
        f"{'round':>5s} {'actions':>8s} {'migr':>6s} {'recon':>6s} "
        f"{'duration(s)':>12s} {'migration(s)':>13s} "
        f"{'reconstruction(s)':>18s} {'retries':>8s} {'ingress':>8s}"
    )
    lines = []
    attrs = breakdown.attrs
    if attrs:
        described = ", ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        lines.append(f"repair: {described}")
    lines.append(header)
    for entry in breakdown.rounds:
        streams = entry.max_ingress_streams
        lines.append(
            f"{entry.index:>5d} {entry.actions:>8d} {entry.migrations:>6d} "
            f"{entry.reconstructions:>6d} {entry.duration:>12.3f} "
            f"{entry.migration_seconds:>13.3f} "
            f"{entry.reconstruction_seconds:>18.3f} {entry.retries:>8d} "
            f"{'-' if streams is None else streams:>8}"
        )
    lines.append(
        f"total: {breakdown.total_seconds:.3f}s over "
        f"{len(breakdown.rounds)} rounds, {breakdown.total_actions} actions"
    )
    return "\n".join(lines)


def metrics_summary(metrics_doc: dict) -> str:
    """One-line-per-family summary of a ``--metrics-out`` JSON file."""
    lines = []
    for family in metrics_doc.get("metrics", []):
        name, kind = family["name"], family["type"]
        if kind == "counter" or kind == "gauge":
            total = sum(s["value"] for s in family["samples"])
            lines.append(f"{name:48s} {kind:10s} {total:.6g}")
        elif kind == "histogram":
            count = sum(s["count"] for s in family["samples"])
            total = sum(s["sum"] for s in family["samples"])
            mean = total / count if count else 0.0
            lines.append(
                f"{name:48s} {kind:10s} count={count} mean={mean:.6g}s"
            )
    return "\n".join(lines)


def load_report_inputs(
    trace_path: Union[str, Path],
    metrics_path: Optional[Union[str, Path]] = None,
):
    """Load the trace (and optional metrics) files ``repro report`` takes."""
    trace = TraceDocument.load(trace_path)
    metrics_doc = None
    if metrics_path is not None:
        metrics_doc = json.loads(Path(metrics_path).read_text())
    return trace, metrics_doc
