"""Ablation: FastPR vs repair pipelining (related work [20], ATC'17).

The paper positions FastPR against repair-efficient *techniques* like
repair pipelining, which chains helpers into partial-sum pipelines so
the repairing node ingests one chunk instead of k.  Both are
implemented here; this bench compares them (and their combination) on
the emulated testbed at a bandwidth-constrained operating point:

* pipelining collapses reconstruction's k-fold ingest, slashing
  reconstruction-only repair time;
* FastPR's migration/reconstruction coupling composes with it —
  pipelined FastPR is at least as fast as pipelined reconstruction.

A second panel lists reconstruction-only repair round by round: star
and chained seconds beside the ingress streams on the round's busiest
NIC (``ingress_streams``: 1 = no node receives two streams; 2 = some
chain has two sibling destinations among its helpers and only one can
head it), and what plan order would have left there.  A chained round
runs at ``1 / streams`` of the NIC rate, so this is where round-level
chain order (DESIGN.md §14) shows outside the e2e benchmark.
"""

from conftest import run_once

from repro import apply_pipelining
from repro.bench.harness import Experiment, Panel
from repro.core.planner import (
    FastPRPlanner,
    MigrationOnlyPlanner,
    ReconstructionOnlyPlanner,
)
from repro.core.scheduling import ingress_duties, ingress_streams
from repro.ec import make_codec
from repro.runtime.testbed import EmulatedTestbed
from repro.sim.workload import SimulationConfig, fixed_stf_chunk_count


def run_pipelining_ablation(runs: int = 1) -> Experiment:
    exp = Experiment(
        "repair_pipelining",
        "Star vs pipelined reconstruction on the emulated testbed",
    )
    panel = Panel(
        "RS(9,6), 21 nodes, bn/bd = 1.5 (network-constrained)",
        "strategy",
    )
    rounds = Panel(
        "reconstruction-only, round by round (first run)",
        "round",
        ylabel="seconds; ingress streams on the busiest NIC",
    )
    acc = {}
    for run in range(runs):
        cfg = SimulationConfig(
            num_nodes=21,
            num_stripes=28,
            n=9,
            k=6,
            num_hot_standby=3,
            chunk_size=1024 * 1024,
            disk_bandwidth=20e6,
            network_bandwidth=30e6,
            seed=31 + 97 * run,
        )
        cluster, stf = fixed_stf_chunk_count(cfg, 8)
        codec = make_codec("rs(9,6)")
        strategies = [
            ("migration", MigrationOnlyPlanner(), "off"),
            ("recon_star", ReconstructionOnlyPlanner(seed=run), "off"),
            ("recon_pipelined", ReconstructionOnlyPlanner(seed=run), "chain"),
            ("fastpr_star", FastPRPlanner(seed=run), "off"),
            ("fastpr_pipelined", FastPRPlanner(seed=run), "chain"),
        ]
        plans, results = {}, {}
        with EmulatedTestbed(
            cluster, codec, packet_size=64 * 1024
        ) as testbed:
            testbed.load_random_data(seed=cfg.seed)
            for label, planner, pipelining in strategies:
                plan = apply_pipelining(planner.plan(cluster, stf), pipelining)
                result = testbed.execute(plan)
                testbed.verify_plan(plan)
                acc.setdefault(label, []).append(result.time_per_chunk)
                plans[label], results[label] = plan, result
        if run == 0:
            # The star and chained plans share rounds (same seed); only
            # the ``pipelined`` flag differs.
            for round_ in plans["recon_pipelined"].rounds:
                plan_order = ingress_duties(round_.actions())
                for action in round_.reconstructions:
                    plan_order[action.sources[0]] -= 1
                point = {
                    label: results[label].round_times[round_.index]
                    for label in ("recon_star", "recon_pipelined")
                }
                point["ingress_streams"] = max(
                    ingress_streams(round_.actions()).values()
                )
                point["plan_order_streams"] = max(plan_order.values())
                rounds.add_point(str(round_.index), point)
    panel.add_point(
        "per-chunk", {label: sum(v) / len(v) for label, v in acc.items()}
    )
    exp.panels.append(panel)
    exp.panels.append(rounds)
    return exp


def test_repair_pipelining(benchmark, save_result):
    exp = run_once(benchmark, run_pipelining_ablation)
    save_result(exp)
    panel = exp.panels[0]
    values = {s.label: s.values[0] for s in panel.series}
    # Pipelining slashes star reconstruction at this operating point.
    assert values["recon_pipelined"] < values["recon_star"] * 0.75
    # FastPR composes with pipelining: no slower than pipelined recon.
    assert values["fastpr_pipelined"] <= values["recon_pipelined"] * 1.10
    # And pipelined FastPR is the best (or ties best) overall.
    best = min(values.values())
    assert values["fastpr_pipelined"] <= best * 1.10
    # Round-level chain order never shares more ingress than plan order.
    rounds = exp.panels[1]
    assert all(
        chosen <= planned
        for chosen, planned in zip(
            rounds.values_of("ingress_streams"),
            rounds.values_of("plan_order_streams"),
        )
    )
