"""Tests for repaired-chunk destination selection (Fig. 4(c))."""

import pytest

from repro.cluster import StorageCluster
from repro.core.placement import (
    HotStandbyPlacer,
    PlacementError,
    assign_scattered_destinations,
)


@pytest.fixture
def cluster():
    c = StorageCluster(10, num_hot_standby=3)
    for i in range(6):
        c.add_stripe(5, 3, [0, 1 + (i % 3), 4 + (i % 3), 7, 8])
    c.node(0).mark_soon_to_fail()
    return c


class TestScatteredDestinations:
    def test_distinct_destinations(self, cluster):
        chunks = cluster.chunks_on_node(0)
        assignment = assign_scattered_destinations(cluster, 0, chunks[:3])
        assert len(set(assignment.values())) == 3

    def test_destination_eligibility(self, cluster):
        chunks = cluster.chunks_on_node(0)
        assignment = assign_scattered_destinations(cluster, 0, chunks)
        for (stripe_id, _), node in assignment.items():
            stripe = cluster.stripe(stripe_id)
            assert not stripe.stores_on(node)
            assert node != 0
            assert not cluster.node(node).is_standby

    def test_no_eligible_destination_raises(self):
        # Stripe spans every storage node: nowhere to put the repair.
        c = StorageCluster(5)
        c.add_stripe(5, 3, [0, 1, 2, 3, 4])
        c.node(0).mark_soon_to_fail()
        with pytest.raises(PlacementError, match="no eligible destination"):
            assign_scattered_destinations(c, 0, c.chunks_on_node(0))

    def test_fallback_allows_reuse(self):
        # 6 nodes, stripes of width 4 through node 0: only 2 eligible
        # destinations for 3 repairs -> perfect matching impossible.
        c = StorageCluster(6)
        for _ in range(3):
            c.add_stripe(4, 2, [0, 1, 2, 3])
        c.node(0).mark_soon_to_fail()
        chunks = c.chunks_on_node(0)
        assignment = assign_scattered_destinations(c, 0, chunks)
        assert set(assignment.values()) <= {4, 5}

    def test_strict_mode_raises_when_hall_violated(self):
        c = StorageCluster(6)
        for _ in range(3):
            c.add_stripe(4, 2, [0, 1, 2, 3])
        c.node(0).mark_soon_to_fail()
        with pytest.raises(PlacementError, match="distinct nodes"):
            assign_scattered_destinations(
                c, 0, c.chunks_on_node(0), allow_reuse_fallback=False
            )

    def test_empty_input(self, cluster):
        assert assign_scattered_destinations(cluster, 0, []) == {}


class TestHotStandbyPlacer:
    def test_round_robin_even_spread(self, cluster):
        placer = HotStandbyPlacer(cluster)
        chunks = cluster.chunks_on_node(0)
        assignment = placer.assign(chunks)
        counts = {}
        for node in assignment.values():
            counts[node] = counts.get(node, 0) + 1
        assert set(counts) == {10, 11, 12}
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_cursor_persists_across_rounds(self, cluster):
        placer = HotStandbyPlacer(cluster)
        chunks = cluster.chunks_on_node(0)
        first = placer.assign(chunks[:2])
        second = placer.assign(chunks[2:4])
        used = list(first.values()) + list(second.values())
        assert used == [10, 11, 12, 10]

    def test_requires_standbys(self):
        c = StorageCluster(5)
        with pytest.raises(PlacementError):
            HotStandbyPlacer(c)

    def test_explicit_ids(self, cluster):
        placer = HotStandbyPlacer(cluster, standby_ids=[11])
        chunks = cluster.chunks_on_node(0)[:2]
        assert set(placer.assign(chunks).values()) == {11}

    def test_skips_standby_holding_a_chunk_of_the_stripe(self, cluster):
        # An earlier hot-standby repair left a chunk of stripe 0 on 10.
        cluster.relocate_chunk(0, 1, 10)
        placer = HotStandbyPlacer(cluster)
        chunks = cluster.chunks_on_node(0)[:2]
        assert list(placer.assign(chunks).values()) == [11, 12]

    def test_no_free_standby_raises(self, cluster):
        placer = HotStandbyPlacer(cluster, standby_ids=[11])
        cluster.relocate_chunk(0, 1, 11)
        with pytest.raises(PlacementError, match="stripe 0"):
            placer.assign(cluster.chunks_on_node(0)[:1])
