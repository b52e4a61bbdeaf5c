"""Tests for the paper-faithful cost-model simulator."""

import dataclasses

import pytest

from repro import apply_pipelining
from repro.cluster import StorageCluster
from repro.core.analysis import AnalyticalModel
from repro.core.planner import (
    FastPRPlanner,
    MigrationOnlyPlanner,
    ReconstructionOnlyPlanner,
    profile_from_cluster,
)
from repro.core.plan import RepairScenario
from repro.sim.cost_model import evaluate_plan

CHUNK = 1000
BD = 100.0
BN = 250.0


def make_cluster(standby=3, seed=7):
    return StorageCluster.random(
        20,
        60,
        5,
        3,
        num_hot_standby=standby,
        seed=seed,
        disk_bandwidth=BD,
        network_bandwidth=BN,
        chunk_size=CHUNK,
    )


@pytest.fixture
def stf_setup():
    cluster = make_cluster()
    stf = max(cluster.storage_node_ids(), key=cluster.load_of)
    cluster.node(stf).mark_soon_to_fail()
    return cluster, stf


class TestCostModel:
    def test_migration_only_exact(self, stf_setup):
        cluster, stf = stf_setup
        plan = MigrationOnlyPlanner().plan(cluster, stf)
        result = evaluate_plan(cluster, plan)
        model = AnalyticalModel(
            num_nodes=cluster.num_storage_nodes,
            k=3,
            profile=profile_from_cluster(cluster),
        )
        expected = cluster.load_of(stf) * model.migration_time()
        assert result.total_time == pytest.approx(expected)

    def test_reconstruction_round_is_tr(self, stf_setup):
        cluster, stf = stf_setup
        plan = ReconstructionOnlyPlanner(seed=0).plan(cluster, stf)
        result = evaluate_plan(cluster, plan)
        model = AnalyticalModel(
            num_nodes=cluster.num_storage_nodes,
            k=3,
            profile=profile_from_cluster(cluster),
        )
        assert result.total_time == pytest.approx(
            plan.num_rounds * model.reconstruction_time()
        )

    def test_round_time_is_max_of_methods(self, stf_setup):
        cluster, stf = stf_setup
        plan = FastPRPlanner(seed=0).plan(cluster, stf)
        result = evaluate_plan(cluster, plan)
        model = AnalyticalModel(
            num_nodes=cluster.num_storage_nodes,
            k=3,
            profile=profile_from_cluster(cluster),
        )
        for round_, t in zip(plan.rounds, result.round_times):
            expected = 0.0
            if round_.cr:
                expected = model.reconstruction_time(groups=round_.cr)
            expected = max(expected, round_.cm * model.migration_time())
            assert t == pytest.approx(expected)

    def test_traffic_accounting(self, stf_setup):
        cluster, stf = stf_setup
        plan = FastPRPlanner(seed=0).plan(cluster, stf)
        result = evaluate_plan(cluster, plan)
        expected_tx = (
            plan.reconstructed_chunks * 3 + plan.migrated_chunks
        ) * CHUNK
        assert result.bytes_transferred == expected_tx
        assert result.bytes_written == plan.total_chunks * CHUNK

    def test_hot_standby_uses_eq6(self, stf_setup):
        cluster, stf = stf_setup
        plan = ReconstructionOnlyPlanner(
            scenario=RepairScenario.HOT_STANDBY, seed=0
        ).plan(cluster, stf)
        result = evaluate_plan(cluster, plan)
        model = AnalyticalModel(
            num_nodes=cluster.num_storage_nodes,
            k=3,
            profile=profile_from_cluster(cluster),
            hot_standby=cluster.num_hot_standby,
        )
        expected = sum(
            model.reconstruction_time(groups=r.cr) for r in plan.rounds
        )
        assert result.total_time == pytest.approx(expected)

    def test_hot_standby_mixed_round_counts_streams_per_action(
        self, stf_setup
    ):
        # A round where heal/replan demoted one chain to star fan-in
        # is neither all-chained nor all-star: the h standby nodes
        # split one stream per chain plus k per star repair.
        cluster, stf = stf_setup
        plan = apply_pipelining(
            ReconstructionOnlyPlanner(
                scenario=RepairScenario.HOT_STANDBY, seed=0
            ).plan(cluster, stf),
            "chain",
        )
        round_ = plan.rounds[0]
        cr, h, k = round_.cr, cluster.num_hot_standby, 3
        assert cr >= 2
        disk, net = CHUNK / BD, CHUNK / BN
        chained = evaluate_plan(cluster, plan).round_times[0]
        assert chained == pytest.approx(
            disk + (cr / h) * net + (cr / h) * disk
        )
        round_.reconstructions[0] = dataclasses.replace(
            round_.reconstructions[0], pipelined=False
        )
        mixed = evaluate_plan(cluster, plan).round_times[0]
        assert mixed == pytest.approx(
            disk + ((cr - 1 + k) / h) * net + (cr / h) * disk
        )
        all_star = AnalyticalModel(
            num_nodes=cluster.num_storage_nodes, k=k,
            profile=profile_from_cluster(cluster), hot_standby=h,
        ).reconstruction_time(groups=cr)
        assert chained < mixed < all_star

    def test_fewer_helper_reads_speed_up(self, stf_setup):
        cluster, stf = stf_setup
        plan = ReconstructionOnlyPlanner(seed=0).plan(cluster, stf)
        base = evaluate_plan(cluster, plan)
        # A repair that reads k' < k helpers (an LRC local repair) moves
        # fewer chunks; each reconstruction is priced by its sources.
        narrow = dataclasses.replace(plan, rounds=[
            dataclasses.replace(r, reconstructions=[
                dataclasses.replace(a, sources=a.sources[:1])
                for a in r.reconstructions
            ])
            for r in plan.rounds
        ])
        lrc_like = evaluate_plan(cluster, narrow)
        assert lrc_like.total_time < base.total_time
        assert lrc_like.bytes_read * 3 == base.bytes_read