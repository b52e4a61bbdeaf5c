"""Cross-module integration tests: the full FastPR story.

These tests wire the substrates together the way the paper's system
does: SMART telemetry -> failure predictor -> STF flag -> FastPR plan ->
simulated or emulated execution -> metadata update -> rebalance.
"""

import pytest

from repro import (
    EmulatedTestbed,
    FastPRPlanner,
    MigrationOnlyPlanner,
    ReconstructionOnlyPlanner,
    RepairScenario,
    make_codec,
    simulate_repair,
)
from repro.cluster import Rebalancer, StorageCluster, placement_balance
from repro.core import apply_plan
from repro.failure import (
    ClusterFailureMonitor,
    LogisticPredictor,
    SmartTraceGenerator,
)
from repro.sim import evaluate_plan


class TestPredictiveMaintenancePipeline:
    """SMART traces drive repairs end to end (simulated execution)."""

    def test_full_loop(self):
        num_nodes = 16
        cluster = StorageCluster.random(
            num_nodes, 60, 5, 3, num_hot_standby=2, seed=50
        )
        train_fleet = SmartTraceGenerator(
            250, horizon_days=120, annual_failure_rate=0.25, seed=51
        ).generate()
        predictor = LogisticPredictor(seed=0).fit(train_fleet)
        live_traces = SmartTraceGenerator(
            num_nodes, horizon_days=120, annual_failure_rate=0.5, seed=52
        ).generate()
        repair_log = []

        def on_stf(event):
            planner = FastPRPlanner(seed=0)
            plan = planner.plan(cluster, event.node_id)
            plan.validate(cluster)
            result = evaluate_plan(cluster, plan)
            apply_plan(cluster, plan)
            repair_log.append((event, plan, result))
            return plan

        monitor = ClusterFailureMonitor(cluster, live_traces, predictor)
        report = monitor.run(on_stf=on_stf)

        assert report.stf_events, "seed should produce at least one alarm"
        # Every predicted failure was repaired before the disk died.
        for event, plan, result in repair_log:
            assert cluster.load_of(event.node_id) == 0
            if not event.is_false_alarm:
                assert event.day < event.actual_failure_day
            assert result.total_time > 0
        cluster.verify_fault_tolerance()

    def test_repair_faster_than_reactive(self):
        cluster = StorageCluster.random(40, 200, 9, 6, seed=60)
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        fast = evaluate_plan(cluster, FastPRPlanner(seed=0).plan(cluster, stf))
        reactive = evaluate_plan(
            cluster, ReconstructionOnlyPlanner(seed=0).plan(cluster, stf)
        )
        migration = evaluate_plan(
            cluster, MigrationOnlyPlanner().plan(cluster, stf)
        )
        assert fast.total_time <= reactive.total_time
        assert fast.total_time < migration.total_time


class TestRepairThenRebalance:
    def test_post_repair_rebalance(self):
        cluster = StorageCluster.random(12, 60, 5, 3, seed=70)
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        plan = FastPRPlanner(seed=0).plan(cluster, stf)
        apply_plan(cluster, plan)
        cluster.decommission(stf)
        # Repair skews the distribution; the paper assumes periodic
        # rebalancing restores it.
        Rebalancer(seed=0).run(cluster)
        cluster.verify_fault_tolerance()
        healthy = cluster.healthy_storage_nodes()
        loads = [cluster.load_of(n) for n in healthy]
        assert max(loads) - min(loads) <= 2


class TestRuntimeAgainstSimulator:
    """The emulated testbed's bytes match plans the simulator times."""

    def test_same_plan_runs_on_both_substrates(self, tmp_path):
        cluster = StorageCluster.random(
            10,
            15,
            5,
            3,
            num_hot_standby=2,
            seed=80,
            disk_bandwidth=100e6,
            network_bandwidth=440e6,
            chunk_size=128 * 1024,
        )
        cluster.node(0).mark_soon_to_fail()
        if cluster.load_of(0) == 0:
            pytest.skip("seed gave the STF node no chunks")
        plan = FastPRPlanner(seed=0).plan(cluster, 0)
        sim_result = simulate_repair(cluster, plan)
        with EmulatedTestbed(
            cluster, make_codec("rs(5,3)"), workdir=tmp_path
        ) as testbed:
            testbed.load_random_data(seed=81)
            run_result = testbed.execute(plan)
            testbed.verify_plan(plan)
        assert run_result.chunks_repaired == sim_result.chunks_repaired
        assert run_result.bytes_transferred == sim_result.bytes_transferred

    def test_lrc_repair_on_testbed(self, tmp_path):
        """LRC local repair end-to-end: XOR streaming decode, verified."""
        from repro.core.lrc_support import LrcFastPRPlanner, build_lrc_cluster

        codec = make_codec("lrc(6,2,2)")
        cluster = build_lrc_cluster(
            codec,
            num_nodes=14,
            num_stripes=12,
            num_hot_standby=2,
            seed=100,
            disk_bandwidth=200e6,
            network_bandwidth=880e6,
            chunk_size=64 * 1024,
        )
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        plan = LrcFastPRPlanner(codec, seed=0).plan(cluster, stf)
        plan.validate(cluster)
        # 16 packets per stream, so the decode really streams.
        with EmulatedTestbed(
            cluster, codec, packet_size=4096, workdir=tmp_path
        ) as testbed:
            testbed.load_random_data(seed=101)
            testbed.execute(plan)
            testbed.verify_plan(plan)

    def test_hot_standby_promotion_story(self, tmp_path):
        cluster = StorageCluster.random(
            8,
            10,
            4,
            2,
            num_hot_standby=2,
            seed=90,
            disk_bandwidth=200e6,
            network_bandwidth=880e6,
            chunk_size=64 * 1024,
        )
        cluster.node(1).mark_soon_to_fail()
        plan = FastPRPlanner(
            scenario=RepairScenario.HOT_STANDBY, seed=0
        ).plan(cluster, 1)
        with EmulatedTestbed(
            cluster, make_codec("rs(4,2)"), workdir=tmp_path
        ) as testbed:
            testbed.load_random_data(seed=91)
            testbed.execute(plan)
            testbed.verify_plan(plan)
        apply_plan(cluster, plan)
        cluster.decommission(1)
        for standby in cluster.hot_standby_ids():
            cluster.promote_standby(standby)
        cluster.verify_fault_tolerance()
