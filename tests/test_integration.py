"""Cross-module integration tests: the full FastPR story.

These tests wire the substrates together the way the paper's system
does: SMART telemetry -> failure predictor -> STF flag -> FastPR plan ->
cost-model timing or emulated execution -> metadata update.
"""

import pytest

from repro import (
    EmulatedTestbed,
    FastPRPlanner,
    MigrationOnlyPlanner,
    ReconstructionOnlyPlanner,
    RepairScenario,
    evaluate_plan,
    make_codec,
)
from repro.cluster import StorageCluster
from repro.core import apply_plan
from repro.failure import (
    ClusterFailureMonitor,
    LogisticPredictor,
    SmartTraceGenerator,
)


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


class TestRuntimeAgainstSimulator:
    """The emulated testbed moves the bytes the cost model charges."""

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
        model = evaluate_plan(cluster, plan)
        with EmulatedTestbed(
            cluster, make_codec("rs(5,3)"), workdir=tmp_path
        ) as testbed:
            testbed.load_random_data(seed=81)
            run_result = testbed.execute(plan)
            testbed.verify_plan(plan)
        assert run_result.chunks_repaired == model.chunks_repaired
        # The coordinator may run a planned reconstruction as a
        # migration once it has measured a round: one chunk, not k.
        saved = run_result.resplit_chunks * (3 - 1) * cluster.chunk_size
        assert run_result.bytes_transferred == model.bytes_transferred - saved

    def test_lrc_repair_on_testbed(self, tmp_path):
        """LRC local repair end-to-end: XOR streaming decode, verified."""
        codec = make_codec("lrc(6,2,2)")
        cluster = StorageCluster.random(
            14,
            12,
            codec.n,
            codec.k,
            num_hot_standby=2,
            seed=100,
            disk_bandwidth=200e6,
            network_bandwidth=880e6,
            chunk_size=64 * 1024,
        )
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        plan = FastPRPlanner(seed=0, codec=codec).plan(cluster, stf)
        plan.validate(cluster)
        # 16 packets per stream, so the decode really streams.
        with EmulatedTestbed(
            cluster, codec, packet_size=4096, workdir=tmp_path
        ) as testbed:
            testbed.load_random_data(seed=101)
            testbed.execute(plan)
            testbed.verify_plan(plan)

    def test_msr_reconstruction_refused_before_any_command(self, tmp_path):
        """The runtime streams scaled whole chunks; an MSR helper sends a
        sub-chunk symbol, so a plan that reconstructs under MSR is
        refused up front, while a migration-only plan still runs."""
        codec = make_codec("msr(5,3)")
        cluster = StorageCluster.random(
            10,
            8,
            codec.n,
            codec.k,
            seed=5,
            disk_bandwidth=400e6,
            network_bandwidth=880e6,
            chunk_size=16 * 1024,
        )
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        plan = ReconstructionOnlyPlanner(seed=0, codec=codec).plan(cluster, stf)
        first = next(iter(plan.actions()))
        with EmulatedTestbed(cluster, codec, workdir=tmp_path) as testbed:
            testbed.load_random_data(seed=6)
            frames = testbed.network.net.frames_sent
            before = frames.total()
            with pytest.raises(ValueError) as refused:
                testbed.execute(plan)
            assert frames.total() == before
            message = str(refused.value)
            assert "MsrCodec(n=5, k=3)" in message
            assert f"({first.stripe_id}, {first.chunk_index})" in message
            migrate = MigrationOnlyPlanner().plan(cluster, stf)
            testbed.execute(migrate)
            assert testbed.verify_plan(migrate) == migrate.total_chunks

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
