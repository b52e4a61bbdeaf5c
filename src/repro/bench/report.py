"""Markdown report generation from saved bench results.

``pytest benchmarks/ --benchmark-only`` writes each experiment's series
to ``benchmarks/results/<id>.json`` (plus a human-readable ``.txt``).
This module folds the JSON documents into one markdown report — a table
per panel — so a full reproduction run can be summarized with::

    python -m repro.bench.report benchmarks/results -o REPORT.md

A hand-written ``<id>.notes.md`` beside ``<id>.json`` is placed under
that experiment's heading, so commentary on a figure survives the next
regeneration.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .harness import Experiment


def experiment_to_markdown(
    experiment: Experiment, notes: str = ""
) -> List[str]:
    """Render one experiment as markdown blocks (``notes`` first)."""
    out = [f"## {experiment.experiment_id}: {experiment.title}", ""]
    if notes.strip():
        out.extend([notes.strip(), ""])
    for panel in experiment.panels:
        out.append(f"### {panel.title}")
        out.append(f"*{panel.ylabel}*")
        out.append("")
        labels = [series.label for series in panel.series]
        out.append("| " + " | ".join([panel.xlabel] + labels) + " |")
        out.append("|" + "---|" * (len(labels) + 1))
        for i, xtick in enumerate(panel.xticks):
            cells = [xtick]
            for series in panel.series:
                value = series.values[i] if i < len(series.values) else None
                cells.append("" if value is None else f"{value:.4f}")
            out.append("| " + " | ".join(cells) + " |")
        out.append("")
    return out


def _order(path: Path):
    """Paper figures first (numerically), extensions after."""
    name = path.stem
    if name.startswith("fig"):
        digits = "".join(ch for ch in name if ch.isdigit())
        return (0, int(digits or 0), name)
    return (1, 0, name)


def generate_report(
    results_dir: Path, title: str = "FastPR reproduction results"
) -> str:
    """Build the markdown report from every ``*.json`` in a directory."""
    results_dir = Path(results_dir)
    files = sorted(results_dir.glob("*.json"), key=_order)
    if not files:
        raise FileNotFoundError(
            f"no result JSON files in {results_dir}; run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
    parts: List[str] = [f"# {title}", ""]
    for path in files:
        experiment = Experiment.from_dict(json.loads(path.read_text()))
        notes = path.with_suffix(".notes.md")
        parts.extend(
            experiment_to_markdown(
                experiment, notes.read_text() if notes.is_file() else ""
            )
        )
    return "\n".join(parts)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fold benchmarks/results/*.json into a markdown report."
    )
    parser.add_argument("results_dir")
    parser.add_argument("-o", "--output", default=None)
    args = parser.parse_args(argv)
    try:
        report = generate_report(Path(args.results_dir))
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.output:
        Path(args.output).write_text(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
