#!/usr/bin/env python3
"""A year of cluster life under SMART alarms: does the planner matter?

Trains a logistic failure predictor on one synthetic SMART fleet and
replays a second fleet through it (``TraceReplayProcess``), so alarms,
lead times and misses come from the predictor itself.  Each repair
strategy's drain time is priced with ``evaluate_plan`` on real planner
output for one disk of a 24-node RS(9,6) cluster, scaled to a 4 TB
disk; the reactive rebuild of the same disk, once it has failed, is
priced the same way.  ``run_lifetime`` then plays out a year of the
cluster with predictive repair on and off, and prints chunk-days at
risk (stripe chunks below full redundancy, times days) and the chance
of losing a stripe.

Run:
    python examples/cluster_lifetime.py
"""

from dataclasses import replace

from repro.cluster import StorageCluster
from repro.core.planner import FastPRPlanner, MigrationOnlyPlanner
from repro.core.reactive import plan_failed_node_repair
from repro.failure import LogisticPredictor, SmartTraceGenerator
from repro.sim import (
    LifetimeConfig,
    TraceReplayProcess,
    evaluate_plan,
    run_lifetime,
)

#: chunks on one disk: a 4 TB disk at 64 MiB chunks
DISK_CHUNKS = 60_000
NUM_NODES = 24
SEED = 90


def drain_days(cluster, plan) -> float:
    """Days to repair a whole disk at ``plan``'s per-chunk speed."""
    per_chunk = evaluate_plan(cluster, plan).total_time / plan.total_chunks
    return per_chunk * DISK_CHUNKS / 86_400


def price_drains():
    """Drain days per predictive planner, plus the reactive rebuild."""
    cluster = StorageCluster.random(NUM_NODES, 100, 9, 6, seed=SEED)
    stf = max(cluster.storage_node_ids(), key=cluster.load_of)
    cluster.node(stf).mark_soon_to_fail()
    days = {
        planner.name: drain_days(cluster, planner.plan(cluster, stf))
        for planner in (FastPRPlanner(seed=0), MigrationOnlyPlanner())
    }
    cluster.node(stf).mark_failed()
    reactive = drain_days(cluster, plan_failed_node_repair(cluster, stf, seed=0))
    return days, reactive


def main() -> None:
    history = SmartTraceGenerator(
        300, horizon_days=120, annual_failure_rate=0.25, seed=SEED + 1
    ).generate()
    predictor = LogisticPredictor(seed=0).fit(history)
    fleet = SmartTraceGenerator(
        NUM_NODES, horizon_days=120, annual_failure_rate=0.6, seed=SEED
    ).generate()
    process = TraceReplayProcess(fleet, predictor)

    days, reactive_days = price_drains()
    config = LifetimeConfig(
        num_disks=NUM_NODES,
        num_stripes=100,
        n=9,
        k=6,
        reactive_repair_days=reactive_days,
    )
    reports = {
        f"predictive {name}": run_lifetime(
            process,
            replace(config, predictive_repair_days=drain),
            trials=20,
            seed=SEED,
        )
        for name, drain in days.items()
    }
    reports["reactive"] = run_lifetime(
        process, replace(config, predictive=False), trials=20, seed=SEED
    )
    repair_days = list(days.values()) + [reactive_days]
    print(
        f"{'one year, 20 trials':22s} {'repair days':>11s} "
        f"{'chunk-days at risk':>19s} {'P(lost stripe)':>15s}"
    )
    for (mode, report), repair in zip(reports.items(), repair_days):
        print(
            f"{mode:22s} {repair:11.2f} "
            f"{report.mean_chunk_days_at_risk:19.1f} "
            f"{report.lost_stripe_probability:15.2f}"
        )
    print(
        "SMART alarms here come days ahead of each failure, so even "
        "migration-only's drain\nfinishes first: acting on the alarm is "
        "what saves the chunk-days, not the planner.\nShort leads are "
        "where the planner matters (benchmarks/bench_vulnerability.py)."
    )


if __name__ == "__main__":
    main()
