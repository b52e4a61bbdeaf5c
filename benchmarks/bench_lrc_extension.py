"""Extension bench: predictive repair for LRCs (Section III, last part).

The paper has no LRC figure, but its analysis extension predicts:

* LRC local repair (k' = k/l helpers) is much cheaper per chunk than
  RS reconstruction at comparable k;
* predictive repair still improves over reactive repair under LRC,
  though by less (migration's relative advantage shrinks when
  reconstruction is already cheap);
* the simulated LRC-aware FastPR tracks the k'-substituted optimum.

The planners take the codec, which names each chunk's repair helpers;
the cost model prices every reconstruction by the helpers it reads, so
a global parity's reconstruction costs k reads and a local one k'.
"""

from conftest import run_once

from repro.bench.harness import Experiment, Panel
from repro.core.analysis import AnalyticalModel
from repro.cluster import StorageCluster
from repro.core.planner import (
    FastPRPlanner,
    ReconstructionOnlyPlanner,
    profile_from_cluster,
)
from repro.ec import make_codec
from repro.sim.cost_model import evaluate_plan


def run_lrc_extension(runs: int = 2) -> Experiment:
    exp = Experiment(
        "lrc_extension",
        "Section III extension: predictive repair under LRC(12,2,2)",
    )
    codec = make_codec("lrc(12,2,2)")  # n=16, k=12, k'=6

    analysis = Panel("Analysis — RS(16,12) vs LRC k'=6", "model")
    rs_model = AnalyticalModel(num_nodes=100, k=12)
    lrc_model = AnalyticalModel(num_nodes=100, k=12, k_prime=6)
    analysis.add_point(
        "reactive",
        {"rs": rs_model.reactive_time_per_chunk(),
         "lrc": lrc_model.reactive_time_per_chunk()},
    )
    analysis.add_point(
        "predictive",
        {"rs": rs_model.predictive_time_per_chunk(),
         "lrc": lrc_model.predictive_time_per_chunk()},
    )
    exp.panels.append(analysis)

    sim = Panel("Simulation — per-chunk repair time", "approach")
    lrc_fast, lrc_recon, rs_recon, optimum = [], [], [], []
    for run in range(runs):
        cluster = StorageCluster.random(
            100, 300, codec.n, codec.k, seed=19 + 101 * run
        )
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        lrc_fast.append(
            evaluate_plan(
                cluster,
                FastPRPlanner(seed=run, group_size=64, codec=codec).plan(
                    cluster, stf
                ),
            ).time_per_chunk
        )
        lrc_recon.append(
            evaluate_plan(
                cluster,
                ReconstructionOnlyPlanner(
                    seed=run, group_size=64, codec=codec
                ).plan(cluster, stf),
            ).time_per_chunk
        )
        rs_recon.append(
            evaluate_plan(
                cluster,
                ReconstructionOnlyPlanner(seed=run, group_size=64).plan(
                    cluster, stf
                ),
            ).time_per_chunk
        )
        model = AnalyticalModel.for_codec(
            codec,
            num_nodes=cluster.num_storage_nodes,
            profile=profile_from_cluster(cluster),
        )
        optimum.append(model.predictive_time_per_chunk())
    n = len(lrc_fast)
    sim.add_point(
        "mean",
        {
            "lrc_fastpr": sum(lrc_fast) / n,
            "lrc_reconstruction": sum(lrc_recon) / n,
            "rs_reconstruction": sum(rs_recon) / n,
            "lrc_optimum": sum(optimum) / n,
        },
    )
    exp.panels.append(sim)
    return exp


def test_lrc_extension(benchmark, save_result):
    exp = run_once(benchmark, run_lrc_extension)
    save_result(exp)

    analysis = exp.panel("Analysis — RS(16,12) vs LRC k'=6")
    # LRC is cheaper than RS in both reactive and predictive modes.
    for i in range(2):
        assert analysis.values_of("lrc")[i] < analysis.values_of("rs")[i]
    # Predictive still beats reactive under LRC.
    lrc = analysis.values_of("lrc")
    assert lrc[1] < lrc[0]

    sim = exp.panel("Simulation — per-chunk repair time")
    lrc_fast = sim.values_of("lrc_fastpr")[0]
    lrc_recon = sim.values_of("lrc_reconstruction")[0]
    rs_recon = sim.values_of("rs_reconstruction")[0]
    lrc_opt = sim.values_of("lrc_optimum")[0]
    assert lrc_fast <= lrc_recon * 1.05, "LRC FastPR beats LRC reactive"
    assert lrc_recon < rs_recon, "local repair beats k-helper repair"
    assert lrc_fast >= lrc_opt * 0.95, "optimum is a lower bound"
    # LRC sits farther from its optimum than RS does: a local repair
    # has zero helper slack (all k' group members are required), so
    # disjoint-group packing is much more constrained than RS's
    # choose-k-of-(n-1) matching.  Assert a correspondingly wider
    # envelope.
    assert lrc_fast < lrc_opt * 3.5, "LRC FastPR tracks the k' optimum"
