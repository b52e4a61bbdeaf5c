"""Tests for the event-driven repair simulator."""

import pytest

from repro.cluster import StorageCluster
from repro.core.analysis import AnalyticalModel, BandwidthProfile
from repro.core.plan import (
    ChunkRepairAction,
    RepairMethod,
    RepairPlan,
    RepairRound,
    RepairScenario,
)
from repro.core.planner import (
    FastPRPlanner,
    MigrationOnlyPlanner,
    ReconstructionOnlyPlanner,
    profile_from_cluster,
)
from repro.sim.simulator import RepairSimulator, simulate_repair

CHUNK = 1000
BD = 100.0  # 10 s per chunk on disk
BN = 250.0  # 4 s per chunk on the wire


def make_cluster(num_nodes=12, stripes=8, n=5, k=3, standby=2, seed=2):
    cluster = StorageCluster.random(
        num_nodes,
        stripes,
        n,
        k,
        num_hot_standby=standby,
        seed=seed,
        disk_bandwidth=BD,
        network_bandwidth=BN,
        chunk_size=CHUNK,
    )
    return cluster


def single_action_plan(cluster, action, scenario=RepairScenario.SCATTERED):
    plan = RepairPlan(stf_node=0, scenario=scenario)
    round_ = RepairRound(index=0)
    if action.method is RepairMethod.MIGRATION:
        round_.migrations.append(action)
    else:
        round_.reconstructions.append(action)
    plan.rounds.append(round_)
    return plan


class TestSingleChunkTimes:
    def test_migration_matches_eq4(self):
        cluster = StorageCluster(
            6, disk_bandwidth=BD, network_bandwidth=BN, chunk_size=CHUNK
        )
        cluster.add_stripe(4, 2, [0, 1, 2, 3])
        action = ChunkRepairAction(0, 0, RepairMethod.MIGRATION, (0,), 4)
        result = simulate_repair(cluster, single_action_plan(cluster, action))
        # t_m = 10 + 4 + 10 = 24 s.
        assert result.total_time == pytest.approx(24.0)
        assert result.time_per_chunk == pytest.approx(24.0)

    def test_reconstruction_matches_eq5(self):
        cluster = StorageCluster(
            8, disk_bandwidth=BD, network_bandwidth=BN, chunk_size=CHUNK
        )
        cluster.add_stripe(4, 3, [0, 1, 2, 3])
        action = ChunkRepairAction(
            0, 0, RepairMethod.RECONSTRUCTION, (1, 2, 3), 5
        )
        result = simulate_repair(cluster, single_action_plan(cluster, action))
        # Reads parallel (10) + 3 serialized transfers (12) + write (10).
        assert result.total_time == pytest.approx(32.0)

    def test_traffic_accounting(self):
        cluster = StorageCluster(
            8, disk_bandwidth=BD, network_bandwidth=BN, chunk_size=CHUNK
        )
        cluster.add_stripe(4, 3, [0, 1, 2, 3])
        action = ChunkRepairAction(
            0, 0, RepairMethod.RECONSTRUCTION, (1, 2, 3), 5
        )
        result = simulate_repair(cluster, single_action_plan(cluster, action))
        assert result.bytes_read == 3 * CHUNK
        assert result.bytes_transferred == 3 * CHUNK
        assert result.bytes_written == CHUNK
        assert result.traffic_amplification == pytest.approx(3.0)


class TestPlanLevelBehavior:
    def test_migration_only_total_is_u_times_tm(self):
        cluster = make_cluster()
        cluster.node(0).mark_soon_to_fail()
        chunks = cluster.load_of(0)
        plan = MigrationOnlyPlanner().plan(cluster, 0)
        result = simulate_repair(cluster, plan)
        assert result.total_time == pytest.approx(chunks * 24.0, rel=0.01)
        assert result.traffic_amplification == pytest.approx(1.0)

    def test_reconstruction_amplifies_traffic_k_times(self):
        cluster = make_cluster()
        cluster.node(0).mark_soon_to_fail()
        plan = ReconstructionOnlyPlanner(seed=0).plan(cluster, 0)
        result = simulate_repair(cluster, plan)
        assert result.traffic_amplification == pytest.approx(3.0)

    def test_rounds_are_barriers(self):
        cluster = make_cluster()
        cluster.node(0).mark_soon_to_fail()
        plan = ReconstructionOnlyPlanner(seed=0).plan(cluster, 0)
        result = simulate_repair(cluster, plan)
        assert len(result.round_times) == plan.num_rounds
        assert sum(result.round_times) == pytest.approx(result.total_time)

    def test_fastpr_beats_migration_only(self):
        cluster = make_cluster(num_nodes=20, stripes=40, seed=5)
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        fast = simulate_repair(
            cluster, FastPRPlanner(seed=0).plan(cluster, stf)
        )
        mig = simulate_repair(
            cluster, MigrationOnlyPlanner().plan(cluster, stf)
        )
        assert fast.total_time < mig.total_time

    def test_empty_plan(self):
        cluster = make_cluster()
        plan = RepairPlan(stf_node=0, scenario=RepairScenario.SCATTERED)
        result = simulate_repair(cluster, plan)
        assert result.total_time == 0.0
        assert result.time_per_chunk == 0.0

    def test_chunk_size_override(self):
        cluster = StorageCluster(
            6, disk_bandwidth=BD, network_bandwidth=BN, chunk_size=CHUNK
        )
        cluster.add_stripe(4, 2, [0, 1, 2, 3])
        action = ChunkRepairAction(0, 0, RepairMethod.MIGRATION, (0,), 4)
        plan = single_action_plan(cluster, action)
        half = RepairSimulator(cluster, chunk_size=CHUNK // 2).run(plan)
        assert half.total_time == pytest.approx(12.0)


class TestUtilization:
    def test_migration_saturates_stf_devices(self):
        cluster = make_cluster()
        cluster.node(0).mark_soon_to_fail()
        plan = MigrationOnlyPlanner().plan(cluster, 0)
        result = simulate_repair(cluster, plan)
        stf = result.utilization[0]
        # The STF node reads every chunk (10 s of 24 s per chunk) and
        # never ingests.
        assert stf.disk == pytest.approx(10.0 / 24.0, rel=0.02)
        assert stf.nic_out == pytest.approx(4.0 / 24.0, rel=0.05)
        assert stf.nic_in == 0.0

    def test_fractions_bounded(self):
        cluster = make_cluster(num_nodes=20, stripes=40, seed=5)
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        result = simulate_repair(
            cluster, FastPRPlanner(seed=0).plan(cluster, stf)
        )
        for usage in result.utilization.values():
            for value in (usage.disk, usage.nic_in, usage.nic_out):
                assert 0.0 <= value <= 1.0 + 1e-9

    def test_empty_plan_no_utilization(self):
        cluster = make_cluster()
        plan = RepairPlan(stf_node=0, scenario=RepairScenario.SCATTERED)
        assert simulate_repair(cluster, plan).utilization == {}


class TestHeterogeneousBandwidth:
    def test_slow_helper_disk_slows_reconstruction(self):
        cluster = StorageCluster(
            8, disk_bandwidth=BD, network_bandwidth=BN, chunk_size=CHUNK
        )
        cluster.add_stripe(4, 3, [0, 1, 2, 3])
        action = ChunkRepairAction(
            0, 0, RepairMethod.RECONSTRUCTION, (1, 2, 3), 5
        )
        baseline = simulate_repair(
            cluster, single_action_plan(cluster, action)
        ).total_time
        cluster.node(2).disk_bandwidth = BD / 4  # 40 s read
        slowed = simulate_repair(
            cluster, single_action_plan(cluster, action)
        ).total_time
        # The fast helpers' transfers (8 s) hide inside the slow read
        # (40 s); the straggler's own transfer (4 s) and the write
        # (10 s) follow: 54 s vs the 32 s baseline.
        assert slowed == pytest.approx(40.0 + 4.0 + 10.0)
        assert slowed > baseline

    def test_slow_stf_nic_slows_migration(self):
        cluster = StorageCluster(
            6, disk_bandwidth=BD, network_bandwidth=BN, chunk_size=CHUNK
        )
        cluster.add_stripe(4, 2, [0, 1, 2, 3])
        action = ChunkRepairAction(0, 0, RepairMethod.MIGRATION, (0,), 4)
        cluster.node(0).network_bandwidth = BN / 2  # 8 s transfer
        result = simulate_repair(cluster, single_action_plan(cluster, action))
        assert result.total_time == pytest.approx(10.0 + 8.0 + 10.0)


class TestHotStandbyBottleneck:
    def test_more_standbys_faster(self):
        results = {}
        for h in (1, 3):
            cluster = make_cluster(num_nodes=16, stripes=30, standby=h, seed=4)
            stf = max(cluster.storage_node_ids(), key=cluster.load_of)
            cluster.node(stf).mark_soon_to_fail()
            plan = ReconstructionOnlyPlanner(
                scenario=RepairScenario.HOT_STANDBY, seed=0
            ).plan(cluster, stf)
            results[h] = simulate_repair(cluster, plan).time_per_chunk
        assert results[3] < results[1]


class TestChainedPlansRejected:
    def test_chained_plan_fails_loudly_instead_of_timing_star(self):
        cluster = make_cluster()
        cluster.node(0).mark_soon_to_fail()
        star = ReconstructionOnlyPlanner(seed=0).plan(cluster, 0)
        chained = ReconstructionOnlyPlanner(seed=0, pipelined=True).plan(
            cluster, 0
        )
        first = next(iter(chained.actions()))
        message = (
            f"stripe {first.stripe_id} chunk {first.chunk_index} "
            ".*evaluate_plan"
        )
        simulator = RepairSimulator(cluster)
        with pytest.raises(ValueError, match=message):
            simulator.run(chained)
        with pytest.raises(ValueError, match=message):
            simulator.run_sharded(chained, num_shards=2)
        assert simulator.run(star).total_time > 0
