"""Tests for rack topology and rack-aware placement."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import StorageCluster
from repro.cluster.topology import (
    RackAwarePlacement,
    RackTopology,
    RackViolationError,
    verify_rack_tolerance,
)


@pytest.fixture
def topology():
    return RackTopology.uniform(list(range(12)), num_racks=4)


class TestRackTopology:
    def test_uniform_spread(self, topology):
        assert topology.num_racks == 4
        for rack in topology.racks():
            assert len(topology.nodes_in_rack(rack)) == 3

    def test_rack_counts(self, topology):
        counts = topology.rack_counts([0, 4, 8, 1])
        assert counts == {0: 3, 1: 1}

    def test_needs_a_rack(self):
        with pytest.raises(ValueError):
            RackTopology.uniform([0, 1], 0)


class TestRackAwarePlacement:
    def test_respects_per_rack_bound(self, topology):
        cluster = StorageCluster(12)
        policy = RackAwarePlacement(topology, max_per_rack=1, seed=0)
        for _ in range(20):
            placement = policy.choose(cluster, 4)
            cluster.add_stripe(4, 2, placement)
            counts = topology.rack_counts(placement)
            assert max(counts.values()) == 1

    def test_wider_stripes_need_bigger_bound(self, topology):
        cluster = StorageCluster(12)
        policy = RackAwarePlacement(topology, max_per_rack=1, seed=0)
        with pytest.raises(ValueError, match="capacity"):
            policy.choose(cluster, 5)
        relaxed = RackAwarePlacement(topology, max_per_rack=2, seed=0)
        placement = relaxed.choose(cluster, 5)
        assert max(topology.rack_counts(placement).values()) <= 2

    def test_populate_and_verify(self, topology):
        cluster = StorageCluster(12)
        placer = RackAwarePlacement(topology, max_per_rack=2, seed=1)
        for _ in range(25):
            cluster.add_stripe(5, 3, placer.choose(cluster, 5))
        cluster.verify_fault_tolerance()
        # n - k = 2: a rack loss never exceeds the code's tolerance.
        verify_rack_tolerance(cluster, topology)

    def test_balances_load(self, topology):
        cluster = StorageCluster(12)
        placer = RackAwarePlacement(topology, max_per_rack=1, seed=2)
        for _ in range(30):
            cluster.add_stripe(4, 2, placer.choose(cluster, 4))
        loads = [cluster.load_of(n) for n in cluster.storage_node_ids()]
        assert max(loads) / (sum(loads) / len(loads)) < 1.3

    def test_bad_bound(self, topology):
        with pytest.raises(ValueError):
            RackAwarePlacement(topology, max_per_rack=0)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**16), st.integers(2, 5))
    def test_property_bound_holds(self, seed, racks):
        topology = RackTopology.uniform(list(range(15)), racks)
        cluster = StorageCluster(15)
        policy = RackAwarePlacement(topology, max_per_rack=2, seed=seed)
        n = min(5, racks * 2)
        placement = policy.choose(cluster, n)
        assert len(set(placement)) == n
        assert max(topology.rack_counts(placement).values()) <= 2


class TestVerifyRackTolerance:
    def test_violation_detected(self, topology):
        cluster = StorageCluster(12)
        # All four chunks in rack 0 (nodes 0, 4, 8 are rack 0; add 1).
        cluster.add_stripe(4, 2, [0, 4, 8, 1])
        with pytest.raises(RackViolationError, match="stripe 0"):
            verify_rack_tolerance(cluster, topology)

    def test_explicit_bound(self, topology):
        cluster = StorageCluster(12)
        cluster.add_stripe(4, 2, [0, 4, 1, 5])  # two per rack 0 and 1
        verify_rack_tolerance(cluster, topology, max_per_rack=2)
        with pytest.raises(RackViolationError):
            verify_rack_tolerance(cluster, topology, max_per_rack=1)
