"""Monte-Carlo durability study, as ``BENCH_durability.json``.

Predictive versus reactive repair over simulated years of disk
failures (:mod:`repro.sim.lifetime`), summarized per failure process
and schema-validated before it is written.  The study is deterministic
for a given seed, so the committed document is regenerated
byte-identically by::

    python -m repro.bench.durability -o BENCH_durability.json

and the test suite checks that it still is.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from ..core.serde import Schema

DURABILITY_SCHEMA = Schema(
    "bench-durability",
    version=1,
    fields=("config", "processes"),
    required=("config", "processes"),
)


def run_durability(trials: int = 50, years: float = 1.0, seed: int = 7) -> dict:
    """Monte-Carlo durability study; returns ``BENCH_durability.json``.

    The committed document is this with the defaults: 50 trials of
    one simulated year on an RS(9,6) cluster under two failure
    processes — Weibull renewals and SMART-trace replay through the
    threshold predictor — each with predictive repair on and off, plus
    latent sector errors surfaced by a 14-day scrub cycle.  The
    acceptance bar (:func:`validate_durability`) is zero lost stripes
    across every predictive-mode trial.
    """
    from ..failure.predictor import ThresholdPredictor
    from ..failure.smart import SmartTraceGenerator
    from ..sim.lifetime import (
        LifetimeConfig,
        TraceReplayProcess,
        WeibullFailureProcess,
        durability_study,
    )

    config = LifetimeConfig(
        num_disks=30,
        num_stripes=120,
        n=9,
        k=6,
        years=years,
        repair_concurrency=2,
        latent_errors_per_disk_year=0.3,
        scrub_interval_days=14.0,
    )
    traces = SmartTraceGenerator(
        num_disks=60, annual_failure_rate=0.12, seed=seed
    ).generate()
    processes = [
        WeibullFailureProcess(annual_failure_rate=0.08),
        TraceReplayProcess(traces, ThresholdPredictor()),
    ]
    entries = durability_study(processes, config, trials=trials, seed=seed)
    return DURABILITY_SCHEMA.dump(
        {
            "config": {
                "trials": trials,
                "years": years,
                "seed": seed,
                "disks": config.num_disks,
                "stripes": config.num_stripes,
                "code": f"rs({config.n},{config.k})",
                "repair_concurrency": config.repair_concurrency,
                "latent_errors_per_disk_year": (
                    config.latent_errors_per_disk_year
                ),
                "scrub_interval_days": config.scrub_interval_days,
            },
            "processes": entries,
        }
    )


def validate_durability(document: dict, require_zero_loss: bool = True) -> dict:
    """Schema-check a durability document; enforce the zero-loss bar.

    Args:
        require_zero_loss: assert that every process shows zero lost
            stripes with predictive repair on (the CI acceptance bar).
    """
    body = DURABILITY_SCHEMA.load(document)
    if not body["processes"]:
        raise ValueError("durability document covers no failure processes")
    for entry in body["processes"]:
        for mode in ("predictive", "reactive"):
            if mode not in entry:
                raise ValueError(
                    f"process {entry.get('process')!r} lacks a {mode} run"
                )
            if entry[mode]["trials"] <= 0:
                raise ValueError(
                    f"process {entry.get('process')!r} {mode} ran no trials"
                )
        if entry["predictive"]["disk_failures"] <= 0:
            raise ValueError(
                f"process {entry.get('process')!r} produced no disk "
                "failures; the study measured nothing"
            )
        if (
            require_zero_loss
            and entry["predictive"]["lost_stripe_probability"] > 0
        ):
            raise ValueError(
                f"process {entry.get('process')!r} lost stripes with "
                "predictive repair on: P(loss)="
                f"{entry['predictive']['lost_stripe_probability']:.4f}"
            )
    return body


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.durability", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_durability.json",
        help="where to write the durability document",
    )
    args = parser.parse_args(argv)
    durability = run_durability()
    validate_durability(durability)
    with open(args.output, "w") as f:
        json.dump(durability, f, indent=2, sort_keys=True)
        f.write("\n")
    for entry in durability["processes"]:
        print(
            f"wrote {args.output}: {entry['process']} "
            f"P(loss) predictive="
            f"{entry['predictive']['lost_stripe_probability']:.4f} "
            f"reactive="
            f"{entry['reactive']['lost_stripe_probability']:.4f}, "
            "chunk-days at risk "
            f"{entry['predictive']['mean_chunk_days_at_risk']:.1f} vs "
            f"{entry['reactive']['mean_chunk_days_at_risk']:.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
