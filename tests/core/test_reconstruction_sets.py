"""Tests for Algorithm 1 (finding reconstruction sets)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import StorageCluster
from repro.core.matching import IncrementalStripeMatcher
from repro.core.reconstruction_sets import (
    ReconstructionSetFinder,
    helper_assignment,
)


def find_reconstruction_sets(cluster, stf, chunks=None, **options):
    return ReconstructionSetFinder(cluster, stf, **options).find_all(chunks)


def chunk_keys(sets):
    return [(c.stripe_id, c.chunk_index) for s in sets for c in s]


def assert_valid_sets(cluster, stf, sets):
    """Every chunk covered exactly once; every set feasible in parallel."""
    chunks = cluster.chunks_on_node(stf)
    expected = {(c.stripe_id, c.chunk_index) for c in chunks}
    covered = chunk_keys(sets)
    assert len(covered) == len(expected)
    assert set(covered) == expected
    for s in sets:
        assignment = helper_assignment(cluster, stf, s)  # raises if infeasible
        used = [n for helpers in assignment.values() for n in helpers]
        assert len(used) == len(set(used)), "helpers must be distinct"
        assert stf not in used


class TestFindReconstructionSets:
    def test_covers_all_chunks(self, stf_cluster):
        cluster, stf = stf_cluster
        sets = find_reconstruction_sets(cluster, stf)
        assert_valid_sets(cluster, stf, sets)

    def test_set_size_bounded_by_parallelism(self, stf_cluster):
        cluster, stf = stf_cluster
        k = 3
        bound = (cluster.num_storage_nodes - 1) // k
        for s in find_reconstruction_sets(cluster, stf):
            assert len(s) <= bound

    def test_empty_when_no_chunks(self):
        cluster = StorageCluster(6)
        assert find_reconstruction_sets(cluster, 0) == []

    def test_optimize_never_worse(self, medium_cluster):
        cluster = medium_cluster
        stf = max(
            cluster.storage_node_ids(), key=cluster.load_of
        )
        cluster.node(stf).mark_soon_to_fail()
        d_ini = len(find_reconstruction_sets(cluster, stf, optimize=False))
        d_opt = len(find_reconstruction_sets(cluster, stf, optimize=True))
        assert d_opt <= d_ini
        assert_valid_sets(
            cluster, stf, find_reconstruction_sets(cluster, stf, optimize=True)
        )

    def test_grouping_still_covers(self, stf_cluster):
        cluster, stf = stf_cluster
        sets = find_reconstruction_sets(cluster, stf, group_size=4)
        assert_valid_sets(cluster, stf, sets)

    def test_seed_shuffles_deterministically(self, stf_cluster):
        cluster, stf = stf_cluster
        a = find_reconstruction_sets(cluster, stf, seed=5)
        b = find_reconstruction_sets(cluster, stf, seed=5)
        assert chunk_keys(a) == chunk_keys(b)

    def test_unrepairable_chunk_raises(self):
        # Stripe with k=3 but only 3 surviving holders... make fewer:
        # 4-node cluster, stripe on all 4, STF + one failed => 2 < k.
        cluster = StorageCluster(4)
        cluster.add_stripe(4, 3, [0, 1, 2, 3])
        cluster.node(1).mark_failed()
        cluster.node(0).mark_soon_to_fail()
        with pytest.raises(ValueError, match="cannot be reconstructed"):
            find_reconstruction_sets(cluster, 0)

    def test_mixed_k_rejected(self):
        cluster = StorageCluster(8)
        cluster.add_stripe(4, 3, [0, 1, 2, 3])
        cluster.add_stripe(4, 2, [0, 4, 5, 6])
        with pytest.raises(ValueError, match="uniform"):
            find_reconstruction_sets(cluster, 0)

    def test_stats_recorded(self, stf_cluster):
        cluster, stf = stf_cluster
        finder = ReconstructionSetFinder(cluster, stf)
        finder.find_all()
        assert finder.stats.match_calls > 0
        assert finder.stats.initial_sets_sizes

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**16))
    def test_random_clusters_property(self, seed):
        cluster = StorageCluster.random(15, 40, 6, 4, seed=seed)
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        sets = find_reconstruction_sets(cluster, stf)
        assert_valid_sets(cluster, stf, sets)


class TestPaperExample:
    """Figure 5: four RS(5,3) stripes over 10 nodes.

    The initial greedy set {C1, C2} cannot grow, but swapping C2 for C3
    admits C4, yielding {C1, C3, C4} and {C2} — d_opt = 2.
    """

    def build(self):
        # 9 healthy nodes N1..N9 (ids 1..9), STF node id 0.
        # Stripe placements chosen so that C1+C2 block C3/C4 via node
        # overlap but C1+C3+C4 fit (mirrors the paper's figure).
        cluster = StorageCluster(10)
        cluster.add_stripe(5, 3, [0, 1, 2, 3, 4])  # C1: helpers 1-4
        cluster.add_stripe(5, 3, [0, 5, 6, 7, 8])  # C2: helpers 5-8
        cluster.add_stripe(5, 3, [0, 5, 6, 7, 9])  # C3: helpers 5,6,7,9
        cluster.add_stripe(5, 3, [0, 5, 6, 8, 9])  # C4: helpers 5,6,8,9
        cluster.node(0).mark_soon_to_fail()
        return cluster

    def test_structure(self):
        cluster = self.build()
        # C2, C3, C4 draw helpers from {5..9} only: any two of them need
        # 6 distinct nodes out of those 5 — infeasible in one round.
        matcher = IncrementalStripeMatcher(3)
        assert matcher.try_add(1, [5, 6, 7, 8])
        assert not matcher.try_add(2, [5, 6, 7, 9])

    def test_optimized_beats_initial(self):
        cluster = self.build()
        d_ini = len(find_reconstruction_sets(cluster, 0, optimize=False))
        d_opt = len(find_reconstruction_sets(cluster, 0, optimize=True))
        assert d_opt <= d_ini
        # Every chunk is still repaired exactly once.
        assert_valid_sets(
            cluster, 0, find_reconstruction_sets(cluster, 0, optimize=True)
        )


class TestHelperAssignment:
    def test_empty(self, stf_cluster):
        cluster, stf = stf_cluster
        assert helper_assignment(cluster, stf, []) == {}

    def test_k_helpers_each(self, stf_cluster):
        cluster, stf = stf_cluster
        sets = find_reconstruction_sets(cluster, stf)
        assignment = helper_assignment(cluster, stf, sets[0])
        for chunk in sets[0]:
            assert len(assignment[chunk.stripe_id]) == 3

    def test_infeasible_set_raises(self):
        cluster = StorageCluster(6)
        cluster.add_stripe(4, 3, [0, 1, 2, 3])
        cluster.add_stripe(4, 3, [0, 1, 2, 3])
        chunks = cluster.chunks_on_node(0)
        with pytest.raises(ValueError, match="infeasible"):
            helper_assignment(cluster, 0, chunks)
