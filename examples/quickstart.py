#!/usr/bin/env python3
"""Quickstart: plan and simulate a predictive repair with FastPR.

Builds the paper's default simulation setup (100 nodes, 1,000 RS(9,6)
stripes, 64 MB chunks, 100 MB/s disks, 1 Gb/s network), flags one node
as soon-to-fail, and compares FastPR against the paper's two baselines
and the analytical optimum.

Run:
    python examples/quickstart.py
"""

from repro import (
    FastPRPlanner,
    MigrationOnlyPlanner,
    ReconstructionOnlyPlanner,
    RepairScenario,
    make_codec,
)
from repro.core import model_for
from repro.sim import (
    PAPER_SIM_CONFIG,
    build_cluster_with_stf,
    evaluate_plan,
)


def main() -> None:
    config = PAPER_SIM_CONFIG.with_(seed=42)  # 1,000 stripes, RS(9,6)
    cluster, stf_node = build_cluster_with_stf(config)
    chunks = cluster.load_of(stf_node)
    print(f"cluster: {cluster}")
    print(f"soon-to-fail node: {stf_node} storing {chunks} chunks")
    print()

    planners = [
        FastPRPlanner(seed=1, group_size=64),
        ReconstructionOnlyPlanner(seed=1, group_size=64),
        MigrationOnlyPlanner(),
    ]
    print(f"{'approach':16s} {'rounds':>6s} {'migrated':>9s} "
          f"{'reconstructed':>14s} {'total (s)':>10s} {'s/chunk':>8s}")
    results = {}
    for planner in planners:
        plan = planner.plan(cluster, stf_node)
        plan.validate(cluster)  # raises if any invariant is broken
        result = evaluate_plan(cluster, plan)
        results[planner.name] = result
        print(
            f"{planner.name:16s} {plan.num_rounds:>6d} "
            f"{plan.migrated_chunks:>9d} {plan.reconstructed_chunks:>14d} "
            f"{result.total_time:>10.1f} {result.time_per_chunk:>8.3f}"
        )

    # Eq. (2) for the repair RS(9,6) runs: any k helpers, whole chunks.
    recipe = make_codec(f"rs({config.n},{config.k})").repair_recipe(0)
    model = model_for(cluster, RepairScenario.SCATTERED, recipe)
    optimum = model.predictive_time_per_chunk()
    print(f"{'optimum (Eq. 2)':16s} {'-':>6s} {'-':>9s} {'-':>14s} "
          f"{optimum * chunks:>10.1f} {optimum:>8.3f}")
    print()

    fast = results["fastpr"]
    recon = results["reconstruction"]
    mig = results["migration"]
    print(
        f"FastPR cuts reconstruction-only by "
        f"{1 - fast.total_time / recon.total_time:.1%} and migration-only "
        f"by {1 - fast.total_time / mig.total_time:.1%} "
        f"(paper, RS(9,6) scattered: similar double-digit reductions)."
    )
    print(
        f"FastPR is {fast.time_per_chunk / optimum - 1:.1%} above the "
        f"analytical optimum (paper: +11.4% on average)."
    )


if __name__ == "__main__":
    main()
