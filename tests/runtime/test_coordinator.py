"""Tests for the coordinator's command generation."""

import pytest

from repro.cluster import StorageCluster
from repro.core.plan import ChunkRepairAction, RepairMethod
from repro.core.planner import FastPRPlanner
from repro.ec import make_codec
from repro.obs import MetricsRegistry
from repro.runtime.coordinator import (
    COORDINATOR_ID,
    Coordinator,
    CoordinatorState,
    NextRound,
    Start,
    _source_coefficients,
)
from repro.runtime.messages import ACK_FAILED, RepairAck
from repro.runtime.transport import Network


@pytest.fixture
def setup():
    cluster = StorageCluster(8, chunk_size=1024)
    cluster.add_stripe(5, 3, [0, 1, 2, 3, 4])
    cluster.node(0).mark_soon_to_fail()
    net = Network()
    codec = make_codec("rs(5,3)")
    coordinator = Coordinator(net, cluster, codec, packet_size=256)
    return cluster, net, codec, coordinator


class TestSourceCoefficients:
    def test_migration_unity_coefficient(self, setup):
        cluster, net, codec, coordinator = setup
        action = ChunkRepairAction(0, 0, RepairMethod.MIGRATION, (0,), 5)
        assert _source_coefficients(cluster, codec, action) == {0: 1}

    def test_reconstruction_coefficients_match_codec(self, setup):
        cluster, net, codec, coordinator = setup
        # Stripe 0 placement [0,1,2,3,4]; node i holds chunk index i.
        action = ChunkRepairAction(
            0, 0, RepairMethod.RECONSTRUCTION, (1, 2, 3), 5
        )
        coeffs = _source_coefficients(cluster, codec, action)
        expected = codec.recovery_coefficients(0, [1, 2, 3])
        assert coeffs == {node: expected[node] for node in (1, 2, 3)}

    def test_coefficients_resolve_node_to_chunk_index(self):
        # Shuffled placement: node id != chunk index.
        cluster = StorageCluster(8, chunk_size=1024)
        cluster.add_stripe(5, 3, [4, 3, 2, 1, 0])
        codec = make_codec("rs(5,3)")
        # Repair chunk index 0 (stored on node 4, the "STF" here);
        # helpers are nodes 3, 2, 1 holding chunk indices 1, 2, 3.
        action = ChunkRepairAction(
            0, 0, RepairMethod.RECONSTRUCTION, (3, 2, 1), 5
        )
        coeffs = _source_coefficients(cluster, codec, action)
        expected = codec.recovery_coefficients(0, [1, 2, 3])
        assert coeffs == {3: expected[1], 2: expected[2], 1: expected[3]}

    def test_coordinator_attaches_itself(self, setup):
        cluster, net, codec, coordinator = setup
        assert net.endpoint(COORDINATOR_ID) is coordinator._endpoint


class TestShell:
    def test_counters_move_as_events_happen(self, setup):
        # A registry read mid-run (daemon, supervisor) sees a NACK as
        # soon as the shell has stepped it, not when the run ends.
        cluster, net, codec, _ = setup
        metrics = MetricsRegistry()
        coordinator = Coordinator(
            net, cluster, codec, packet_size=256, metrics=metrics,
            coordinator_id=-2,
        )
        plan = FastPRPlanner(seed=1).plan(cluster, 0)
        state = CoordinatorState(
            plan, 256, 0, cluster, codec, coordinator_id=-2
        )
        coordinator._step(state, Start(), 0.0)
        coordinator._step(state, NextRound(), 0.0)
        (key, action), = state.actions.items()
        nack = RepairAck(
            *key, action.destination, status=ACK_FAILED, detail="injected"
        )
        coordinator._step(state, nack, 0.1)
        assert metrics.get("repair_nacks_total").total() == 1
        assert not state.finished
