"""Tests for repair pipelining (chained partial-sum reconstruction)."""

import pytest

from repro.cluster import StorageCluster
from repro.core.planner import FastPRPlanner, ReconstructionOnlyPlanner
from repro.ec import make_codec
from repro.runtime.testbed import EmulatedTestbed

CHUNK = 64 * 1024


@pytest.fixture(scope="module")
def rig(tmp_path_factory):
    cluster = StorageCluster.random(
        12,
        15,
        5,
        3,
        num_hot_standby=2,
        seed=91,
        disk_bandwidth=400e6,
        network_bandwidth=1e9,
        chunk_size=CHUNK,
    )
    cluster.node(0).mark_soon_to_fail()
    if cluster.load_of(0) == 0:
        pytest.skip("seed gave the STF node no chunks")
    codec = make_codec("rs(5,3)")
    testbed = EmulatedTestbed(
        cluster, codec, workdir=tmp_path_factory.mktemp("pipe"),
        packet_size=16 * 1024,
    )
    testbed.start()
    testbed.load_random_data(seed=92)
    yield cluster, testbed
    testbed.shutdown()


class TestPipelinedReconstruction:
    def test_bytes_verified(self, rig):
        cluster, testbed = rig
        plan = ReconstructionOnlyPlanner(seed=0, pipelined=True).plan(cluster, 0)
        assert all(a.pipelined for a in plan.actions())
        testbed.execute(plan)
        testbed.verify_plan(plan)

    def test_fastpr_with_pipelining(self, rig):
        cluster, testbed = rig
        plan = FastPRPlanner(seed=0, pipelined=True).plan(cluster, 0)
        testbed.execute(plan)
        testbed.verify_plan(plan)

    def test_same_traffic_different_topology(self, rig):
        """Pipelining moves the same bytes, but off the destination."""
        cluster, testbed = rig
        star = ReconstructionOnlyPlanner(seed=1).plan(cluster, 0)
        pipe = ReconstructionOnlyPlanner(seed=1, pipelined=True).plan(cluster, 0)
        r_star = testbed.execute(star)
        testbed.verify_plan(star)
        r_pipe = testbed.execute(pipe)
        testbed.verify_plan(pipe)
        assert r_pipe.bytes_transferred == r_star.bytes_transferred

    def test_pipelined_faster_when_network_is_the_bottleneck(
        self, tmp_path
    ):
        """With bn << bd the destination ingest dominates; the chain
        removes the k-fold fan-in and wins clearly."""
        cluster = StorageCluster.random(
            12,
            12,
            9,
            6,
            seed=93,
            disk_bandwidth=200e6,
            network_bandwidth=30e6,
            chunk_size=512 * 1024,
        )
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        codec = make_codec("rs(9,6)")
        with EmulatedTestbed(
            cluster, codec, workdir=tmp_path, packet_size=64 * 1024
        ) as testbed:
            testbed.load_random_data(seed=94)
            star = ReconstructionOnlyPlanner(seed=0).plan(cluster, stf)
            pipe = ReconstructionOnlyPlanner(seed=0, pipelined=True).plan(
                cluster, stf
            )
            t_star = testbed.execute(star)
            testbed.verify_plan(star)
            t_pipe = testbed.execute(pipe)
            testbed.verify_plan(pipe)
        assert t_pipe.total_time < t_star.total_time * 0.8, (
            f"pipelined {t_pipe.total_time:.2f}s vs star "
            f"{t_star.total_time:.2f}s"
        )


class TestCostModelPipelined:
    def test_round_time_collapses(self):
        from repro.sim.cost_model import evaluate_plan

        cluster = StorageCluster.random(
            20, 60, 9, 6, seed=95, disk_bandwidth=100.0,
            network_bandwidth=250.0, chunk_size=1000,
        )
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        star = ReconstructionOnlyPlanner(seed=0).plan(cluster, stf)
        pipe = ReconstructionOnlyPlanner(seed=0, pipelined=True).plan(
            cluster, stf
        )
        t_star = evaluate_plan(cluster, star)
        t_pipe = evaluate_plan(cluster, pipe)
        # Star: 2*c/bd + 6*c/bn = 44 s/round; pipelined: 2*c/bd + c/bn
        # = 24 where no NIC ingests two streams (round 3).  Round 0's
        # third chain has two sibling destinations among its helpers
        # and only one can head it, so the other NIC carries two
        # streams: 2*c/bd + 2*c/bn = 28.
        assert t_star.round_times[0] == pytest.approx(44.0)
        assert t_pipe.round_times[3] == pytest.approx(24.0)
        assert t_pipe.round_times[0] == pytest.approx(28.0)
        # Traffic accounting is unchanged.
        assert t_pipe.bytes_transferred == t_star.bytes_transferred
