"""Ablation: the paper's cost model vs the measured runtime.

The paper's simulator computes round times from the Section III cost
model (:func:`repro.sim.evaluate_plan`), which explicitly ignores
cross-method interference — e.g. a hot-standby node ingesting migration
and reconstruction traffic at once.  This bench runs the same FastPR
and reconstruction-only plans on the emulated testbed's figure rig
(RS(9,6), 21 nodes + 3 standbys, 10 STF chunks, 2 MiB chunks; the rig
of Figures 11-14), verifies every repaired chunk byte for byte, and
sets the measured per-chunk times beside the modelled ones:

* measured FastPR reads below the model in both scenarios: the runtime
  pipelines packets, overlapping the read and the send that Eq. (4)
  adds;
* hot-standby repair keeps less of FastPR's modelled gain than
  scattered repair: migration and reconstruction share the standby
  ingest the model treats as independent, so measured
  FastPR/reconstruction sits above the modelled ratio.
"""

from conftest import run_once

from repro.bench.experiments import (
    FASTPR,
    RECONSTRUCTION,
    TestbedConfig,
    testbed_cluster,
)
from repro.bench.harness import Experiment, Panel, average_runs
from repro.core.plan import RepairScenario
from repro.core.planner import FastPRPlanner, ReconstructionOnlyPlanner
from repro.ec.codec import make_codec
from repro.runtime.testbed import EmulatedTestbed
from repro.sim.cost_model import evaluate_plan


def run_ablation(runs: int = 2, seed: int = 41) -> Experiment:
    exp = Experiment(
        "ablation_contention",
        "Cost model vs measured runtime of FastPR",
    )
    config = TestbedConfig(seed=seed)
    codec = make_codec(f"rs({config.n},{config.k})")
    for scenario, title in (
        (RepairScenario.SCATTERED, "scattered repair"),
        (RepairScenario.HOT_STANDBY, "hot-standby repair"),
    ):
        model = {FASTPR: [], RECONSTRUCTION: []}
        runtime = {FASTPR: [], RECONSTRUCTION: []}
        for run in range(runs):
            cluster, stf, data_seed = testbed_cluster(config, run)
            with EmulatedTestbed(
                cluster, codec, packet_size=config.packet_size
            ) as testbed:
                testbed.load_random_data(seed=data_seed)
                for planner in (
                    FastPRPlanner(scenario=scenario, seed=run),
                    ReconstructionOnlyPlanner(scenario=scenario, seed=run),
                ):
                    plan = planner.plan(cluster, stf)
                    model[planner.name].append(
                        evaluate_plan(cluster, plan).time_per_chunk
                    )
                    result = testbed.execute(plan)
                    assert testbed.verify_plan(plan) == plan.total_chunks
                    runtime[planner.name].append(result.time_per_chunk)
        panel = Panel(f"Ablation — {title}", "planner")
        for label in (FASTPR, RECONSTRUCTION):
            panel.add_point(
                label,
                {
                    "cost_model": average_runs(model[label]),
                    "runtime": average_runs(runtime[label]),
                },
            )
        exp.panels.append(panel)
    return exp


def _ratios(panel: Panel):
    """(FastPR runtime/model, FastPR/reconstruction modelled, measured)."""
    model = panel.values_of("cost_model")
    runtime = panel.values_of("runtime")
    return runtime[0] / model[0], model[0] / model[1], runtime[0] / runtime[1]


def test_ablation_contention(benchmark, save_result):
    exp = run_once(benchmark, run_ablation)
    save_result(exp)
    scat_ratio, _, _ = _ratios(exp.panels[0])
    hot_ratio, hot_model_gain, hot_runtime_gain = _ratios(exp.panels[1])
    # Hot-standby suffers relatively more from contention than
    # scattered repair (the standby ingest is shared).
    assert hot_ratio > scat_ratio * 0.9, (hot_ratio, scat_ratio)
    # Contention eats into FastPR's modelled gain over reconstruction.
    assert hot_runtime_gain > hot_model_gain, (
        hot_runtime_gain,
        hot_model_gain,
    )
