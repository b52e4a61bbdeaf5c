"""Tests for bipartite matching and max-flow solvers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.matching import (
    DinicMaxFlow,
    IncrementalStripeMatcher,
    hopcroft_karp,
    match_one_per_target,
    stripe_helper_flow,
)


class TestHopcroftKarp:
    def test_perfect_matching(self):
        # 3x3 complete bipartite graph.
        adjacency = [[0, 1, 2]] * 3
        size, match_left, match_right = hopcroft_karp(adjacency, 3)
        assert size == 3
        assert sorted(match_left) == [0, 1, 2]
        assert sorted(match_right) == [0, 1, 2]

    def test_no_edges(self):
        size, match_left, _ = hopcroft_karp([[], []], 2)
        assert size == 0
        assert match_left == [-1, -1]

    def test_bottleneck(self):
        # Both left vertices only reach right vertex 0.
        adjacency = [[0], [0]]
        size, _, _ = hopcroft_karp(adjacency, 1)
        assert size == 1

    def test_augmenting_path_needed(self):
        # Greedy would match 0-0 and leave 1 unmatched; HK must reroute.
        adjacency = [[0, 1], [0]]
        size, match_left, _ = hopcroft_karp(adjacency, 2)
        assert size == 2
        assert match_left[1] == 0
        assert match_left[0] == 1

    def test_consistency_of_matches(self):
        adjacency = [[0, 1], [1, 2], [2, 3], [0, 3]]
        size, match_left, match_right = hopcroft_karp(adjacency, 4)
        assert size == 4
        for u, v in enumerate(match_left):
            assert match_right[v] == u


class TestDinic:
    def test_simple_path(self):
        flow = DinicMaxFlow(3)
        flow.add_edge(0, 1, 5)
        flow.add_edge(1, 2, 3)
        assert flow.max_flow(0, 2) == 3

    def test_parallel_paths(self):
        flow = DinicMaxFlow(4)
        flow.add_edge(0, 1, 2)
        flow.add_edge(0, 2, 2)
        flow.add_edge(1, 3, 2)
        flow.add_edge(2, 3, 2)
        assert flow.max_flow(0, 3) == 4

    def test_edge_flow_readback(self):
        flow = DinicMaxFlow(3)
        e1 = flow.add_edge(0, 1, 4)
        e2 = flow.add_edge(1, 2, 2)
        flow.max_flow(0, 2)
        assert flow.edge_flow(e1) == 2
        assert flow.edge_flow(e2) == 2

    def test_disconnected(self):
        flow = DinicMaxFlow(4)
        flow.add_edge(0, 1, 1)
        flow.add_edge(2, 3, 1)
        assert flow.max_flow(0, 3) == 0

    def test_classic_flow_network(self):
        # CLRS-style example.
        flow = DinicMaxFlow(6)
        flow.add_edge(0, 1, 16)
        flow.add_edge(0, 2, 13)
        flow.add_edge(1, 3, 12)
        flow.add_edge(2, 1, 4)
        flow.add_edge(2, 4, 14)
        flow.add_edge(3, 2, 9)
        flow.add_edge(3, 5, 20)
        flow.add_edge(4, 3, 7)
        flow.add_edge(4, 5, 4)
        assert flow.max_flow(0, 5) == 23


class TestStripeHelperFlow:
    def test_feasible(self):
        assignment = stripe_helper_flow(
            {"s1": ["a", "b", "c"], "s2": ["c", "d", "e"]}, k=2
        )
        assert assignment is not None
        used = [n for nodes in assignment.values() for n in nodes]
        assert len(used) == len(set(used)) == 4
        assert set(assignment["s1"]) <= {"a", "b", "c"}

    def test_infeasible(self):
        assert (
            stripe_helper_flow({"s1": ["a", "b"], "s2": ["a", "b"]}, k=2)
            is None
        )

    def test_exact_fit(self):
        assignment = stripe_helper_flow(
            {"s1": ["a", "b"], "s2": ["c", "d"]}, k=2
        )
        assert assignment == {"s1": ["a", "b"], "s2": ["c", "d"]}


class TestIncrementalMatcher:
    def test_add_and_assignment(self):
        matcher = IncrementalStripeMatcher(2)
        assert matcher.try_add("s1", ["a", "b", "c"])
        assert matcher.try_add("s2", ["c", "d", "e"])
        assignment = matcher.assignment()
        used = [n for nodes in assignment.values() for n in nodes]
        assert len(set(used)) == 4

    def test_rejects_infeasible_and_rolls_back(self):
        matcher = IncrementalStripeMatcher(2)
        assert matcher.try_add("s1", ["a", "b"])
        before = matcher.assignment()
        assert not matcher.try_add("s2", ["a", "b"])
        assert matcher.assignment() == before
        assert matcher.stripes == ["s1"]

    def test_rerouting_on_add(self):
        matcher = IncrementalStripeMatcher(1)
        assert matcher.try_add("s1", ["a", "b"])
        # s2 only reaches 'a'; the matcher must reroute s1 if needed.
        assert matcher.try_add("s2", ["a"])
        assignment = matcher.assignment()
        assert assignment["s2"] == ["a"]
        assert assignment["s1"] == ["b"]

    def test_too_few_candidates(self):
        matcher = IncrementalStripeMatcher(3)
        assert not matcher.try_add("s1", ["a", "b"])

    def test_duplicate_candidates_deduped(self):
        matcher = IncrementalStripeMatcher(2)
        assert not matcher.try_add("s1", ["a", "a"])
        assert matcher.try_add("s2", ["a", "a", "b"])

    def test_duplicate_stripe_rejected(self):
        matcher = IncrementalStripeMatcher(1)
        matcher.try_add("s1", ["a"])
        with pytest.raises(ValueError):
            matcher.try_add("s1", ["b"])

    def test_would_fit_does_not_mutate(self):
        matcher = IncrementalStripeMatcher(2)
        matcher.try_add("s1", ["a", "b", "c"])
        assert matcher.would_fit("s2", ["c", "d"])
        assert matcher.stripes == ["s1"]
        assert len(matcher) == 1

    def test_would_fit_undoes_a_rerouted_matching(self):
        matcher = IncrementalStripeMatcher(1)
        matcher.try_add("s1", ["a", "b"])
        before = matcher.assignment()
        # s2 only reaches 'a', so the probe must move s1 to 'b' first.
        assert matcher.would_fit("s2", ["a"])
        assert matcher.assignment() == before == {"s1": ["a"]}
        assert matcher.try_add("s2", ["a"])
        assert matcher.assignment() == {"s1": ["b"], "s2": ["a"]}

    def test_clone_is_independent(self):
        matcher = IncrementalStripeMatcher(1)
        matcher.try_add("s1", ["a", "b"])
        twin = matcher.clone()
        twin.try_add("s2", ["b", "c"])
        assert matcher.stripes == ["s1"]
        assert twin.stripes == ["s1", "s2"]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_failed_add_restores_state_exactly(self, seed):
        """The undo trail must leave no trace of a failed probe."""
        import random

        rng = random.Random(seed)
        k = rng.randint(1, 3)
        nodes = list(range(rng.randint(k, 8)))
        matcher = IncrementalStripeMatcher(k)
        for i in range(12):
            helpers = rng.sample(nodes, rng.randint(1, len(nodes)))
            before_assignment = matcher.assignment()
            before_stripes = matcher.stripes
            ok = matcher.try_add(f"s{i}", helpers)
            if not ok:
                assert matcher.assignment() == before_assignment
                assert matcher.stripes == before_stripes
            else:
                chosen = matcher.assignment()[f"s{i}"]
                assert len(chosen) == k
                assert set(chosen) <= set(helpers)
        # Global invariant: every node serves at most one slot.
        used = [n for nodes_ in matcher.assignment().values() for n in nodes_]
        assert len(used) == len(set(used))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_would_fit_agrees_with_try_add_and_leaves_no_trace(self, seed):
        import random

        rng = random.Random(seed)
        k = rng.randint(1, 3)
        nodes = list(range(rng.randint(k, 10)))
        matcher = IncrementalStripeMatcher(k)
        for i in range(10):
            helpers = rng.sample(nodes, rng.randint(1, len(nodes)))
            before = (
                dict(matcher._match_of_node),
                list(matcher._match_of_slot),
                matcher.assignment(),
            )
            fits = matcher.would_fit(f"s{i}", helpers)
            assert (
                dict(matcher._match_of_node),
                list(matcher._match_of_slot),
                matcher.assignment(),
            ) == before
            assert matcher.try_add(f"s{i}", helpers) == fits

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_reachability_rejects_only_doomed_adds(self, seed):
        """Whenever the free-node count rejects a stripe, the augmenting
        DFSs alone reject it too, and so does max-flow."""
        import random

        rng = random.Random(seed)
        k = rng.randint(1, 3)
        nodes = list(range(rng.randint(k, 9)))
        stripes = {}
        matcher = IncrementalStripeMatcher(k)
        for i in range(12):
            helpers = rng.sample(nodes, rng.randint(k, len(nodes)))
            if not matcher._reaches_free(helpers):
                plain = matcher.clone()
                plain._reaches_free = lambda helpers: True
                assert not plain.try_add(f"s{i}", helpers)
                assert stripe_helper_flow({**stripes, f"s{i}": helpers}, k) is None
            if matcher.try_add(f"s{i}", helpers):
                stripes[f"s{i}"] = helpers

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_agrees_with_flow_solver(self, seed):
        """The incremental matcher and max-flow agree on feasibility."""
        import random

        rng = random.Random(seed)
        k = rng.randint(1, 3)
        nodes = list(range(rng.randint(k, 10)))
        stripes = {
            f"s{i}": rng.sample(nodes, rng.randint(k, len(nodes)))
            for i in range(rng.randint(1, 4))
        }
        flow_result = stripe_helper_flow(stripes, k)
        matcher = IncrementalStripeMatcher(k)
        incremental_ok = all(
            matcher.try_add(s, helpers) for s, helpers in stripes.items()
        )
        assert (flow_result is not None) == incremental_ok


class TestMatchOnePerTarget:
    def test_basic(self):
        result = match_one_per_target({"x": [1, 2], "y": [2, 3]})
        assert result is not None
        assert len(set(result.values())) == 2

    def test_infeasible(self):
        assert match_one_per_target({"x": [1], "y": [1]}) is None

    def test_forced_assignment(self):
        result = match_one_per_target({"x": [1, 2], "y": [1]})
        assert result == {"x": 2, "y": 1}

    def test_empty(self):
        assert match_one_per_target({}) == {}
