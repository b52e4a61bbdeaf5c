"""Tests for Algorithm 1 (finding reconstruction sets)."""

import hashlib
import json
from typing import List, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster import StorageCluster
from repro.cluster.chunk import ChunkLocation
from repro.core.matching import IncrementalStripeMatcher
from repro.core.planner import FastPRPlanner
from repro.core.reconstruction_sets import (
    ReconstructionSetFinder,
    helper_assignment,
)
from repro.ec import make_codec


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


class ReferenceFinder(ReconstructionSetFinder):
    """Algorithm 1 without the exact skips, kept verbatim as it stood
    before them: every FIND offers every chunk to the matcher, and every
    (Ci, Cj) pair re-matches the whole residual."""

    def _find(
        self, chunks: List[ChunkLocation], pool: Optional[int] = None
    ) -> tuple[List[ChunkLocation], List[ChunkLocation]]:
        """FIND(C): one reconstruction set plus the residual chunks."""
        matcher = IncrementalStripeMatcher(self._k)
        in_set: List[ChunkLocation] = []
        residual: List[ChunkLocation] = []
        for chunk in chunks:
            self.stats.match_calls += 1
            if matcher.try_add(chunk.stripe_id, self._helpers(chunk)):
                in_set.append(chunk)
            else:
                residual.append(chunk)
        self.stats.initial_sets_sizes.append(len(in_set))
        if not self.optimize:
            return in_set, residual
        # Swap-optimization phase (Lines 18-38).
        while True:
            best_gain: List[ChunkLocation] = []
            best_swap = None  # (Ci in R, Cj in C)
            for ci in in_set:
                base = self._matcher_without(in_set, ci)
                if base is None:
                    continue
                for cj in residual:
                    gained = self._swap_gain(base, cj, residual)
                    if len(gained) > len(best_gain):
                        best_gain = gained
                        best_swap = (ci, cj)
            if not best_swap or not best_gain:
                break
            ci, cj = best_swap
            self.stats.swaps_applied += 1
            in_set = [c for c in in_set if c is not ci] + [cj] + best_gain
            gained_ids = {id(c) for c in best_gain}
            residual = [
                c
                for c in residual
                if c is not cj and id(c) not in gained_ids
            ] + [ci]
        return in_set, residual

    def _matcher_without(
        self, in_set: List[ChunkLocation], ci: ChunkLocation
    ) -> Optional[IncrementalStripeMatcher]:
        """Matcher for R − {Ci}; shared base for every Cj candidate."""
        matcher = IncrementalStripeMatcher(self._k)
        for member in in_set:
            if member is ci:
                continue
            self.stats.match_calls += 1
            if not matcher.try_add(member.stripe_id, self._helpers(member)):
                return None  # cannot happen for a feasible R; be safe
        return matcher

    def _swap_gain(
        self,
        base: IncrementalStripeMatcher,
        cj: ChunkLocation,
        residual: List[ChunkLocation],
    ) -> List[ChunkLocation]:
        """Compute A_{i,j}: chunks addable to R ∪ {Cj} − {Ci}."""
        matcher = base.clone()
        self.stats.match_calls += 1
        if not matcher.try_add(cj.stripe_id, self._helpers(cj)):
            return []
        gained: List[ChunkLocation] = []
        for cl in residual:
            if cl is cj:
                continue
            self.stats.match_calls += 1
            if matcher.try_add(cl.stripe_id, self._helpers(cl)):
                gained.append(cl)
        return gained


def assert_same_sets(cluster, stf, chunks=None, codec=None, **options):
    """The finder and the reference return the same sets in order."""
    found = ReconstructionSetFinder(
        cluster, stf, codec=codec, **options
    ).find_all(chunks)
    expected = ReferenceFinder(
        cluster, stf, codec=codec, **options
    ).find_all(chunks)
    assert [[(c.stripe_id, c.chunk_index) for c in s] for s in found] == [
        [(c.stripe_id, c.chunk_index) for c in s] for s in expected
    ]


finder_options = st.fixed_dictionaries(
    {
        "optimize": st.booleans(),
        "group_size": st.one_of(st.none(), st.integers(2, 6)),
        "seed": st.one_of(st.none(), st.integers(0, 2**16)),
    }
)


WHOLE_NODE = {"optimize": True, "group_size": None, "seed": None}


class TestExactSkips:
    """The count exits, the F_i pruning and the matcher's reachability
    pre-check change no set Algorithm 1 returns."""

    # Two clusters where stopping the (Ci, Cj) search one chunk short
    # of cap − |R| picks a different swap.
    @example(22, 6, 1, 47, WHOLE_NODE)
    @example(26, 4, 3, 214, WHOLE_NODE)
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(8, 30),
        st.integers(2, 6),
        st.integers(1, 3),
        st.integers(0, 2**16),
        finder_options,
    )
    def test_rs_sets_match_the_reference(self, m, k, parity, seed, options):
        n = min(k + parity, m)
        # About 24 STF chunks on the most-loaded node keeps the
        # reference's swap phase cheap.
        cluster = StorageCluster.random(m, 24 * m // n, n, k, seed=seed)
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        assert_same_sets(cluster, stf, **options)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(10, 24), st.integers(0, 2**16), finder_options)
    def test_lrc_sets_match_the_reference(self, m, seed, options):
        codec = make_codec("lrc(6,2,2)")
        cluster = StorageCluster.random(
            m, 3 * m, codec.n, codec.k, seed=seed
        )
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        classes = {}
        for chunk in cluster.chunks_on_node(stf):
            fanin = codec.repair_recipe(chunk.chunk_index).fanin
            classes.setdefault(fanin, []).append(chunk)
        for chunks in classes.values():
            assert_same_sets(cluster, stf, chunks, codec=codec, **options)


class TestScale:
    def test_479_chunk_plan_is_unchanged_and_bounded(self):
        """The most-loaded node of a 20-node, 1,000-stripe RS(9,6)
        cluster holds 479 chunks.  Its FastPR plan is pinned, and
        Algorithm 1's matcher work is bounded by a count rather than a
        wall-clock time: without the exact skips the augmenting DFSs
        alone visited 125,091,760 helper nodes on this plan (about 89 s
        on a 2-core x86-64 host)."""
        cluster = StorageCluster.random(20, 1000, 9, 6, seed=1)
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        assert len(cluster.chunks_on_node(stf)) == 479
        planner = FastPRPlanner(seed=1)
        document = planner.plan(cluster, stf).to_dict()
        digest = hashlib.sha256(
            json.dumps(document, sort_keys=True).encode()
        ).hexdigest()[:16]
        assert digest == "22821d9f48b0bd59"
        assert planner.last_stats.matcher_steps < 1_000_000
