"""Stripe sharding and the shared helper budget.

Covers the pieces concurrent coordinators stand on: the consistent
shard map (stable, total, disjoint), plan splitting that preserves
per-round coupling, the deadline-priority :class:`HelperBudget`, and
the two-STF guarantee that a shared budget never double-books a helper
in the same round.
"""

import threading
import time

import pytest

from repro.cluster import StorageCluster
from repro.core.plan import ShardMap, split_plan
from repro.core.planner import FastPRPlanner
from repro.core.scheduling import BudgetTimeout, HelperBudget


def make_cluster(seed=5):
    cluster = StorageCluster.random(
        num_nodes=14,
        num_stripes=40,
        n=5,
        k=3,
        num_hot_standby=3,
        seed=seed,
        chunk_size=16 * 1024,
    )
    return cluster


# ----------------------------------------------------------------------
# shard map
# ----------------------------------------------------------------------


class TestShardMap:
    def test_assignment_is_stable_and_total(self):
        shard_map = ShardMap(3)
        first = {s: shard_map.shard_of(s) for s in range(500)}
        second = {s: shard_map.shard_of(s) for s in range(500)}
        assert first == second
        assert set(first.values()) <= {0, 1, 2}

    def test_every_shard_gets_stripes(self):
        shard_map = ShardMap(4)
        owners = {shard_map.shard_of(s) for s in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_coordinator_ids(self):
        shard_map = ShardMap(3)
        assert [shard_map.coordinator_id(s) for s in shard_map.shards()] == [
            -1,
            -2,
            -3,
        ]
        with pytest.raises(ValueError):
            shard_map.coordinator_id(3)

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardMap(0)


class TestSplitPlan:
    def plan(self):
        cluster = make_cluster()
        cluster.node(0).mark_soon_to_fail()
        plan = FastPRPlanner(seed=2).plan(cluster, 0)
        plan.validate(cluster)
        return plan

    def test_partition_is_disjoint_and_complete(self):
        plan = self.plan()
        shard_map = ShardMap(3)
        sub_plans = split_plan(plan, shard_map)
        assert len(sub_plans) == 3
        seen = {}
        for shard, sub in enumerate(sub_plans):
            for action in sub.actions():
                key = (action.stripe_id, action.chunk_index)
                assert key not in seen, f"{key} owned by two shards"
                seen[key] = shard
                assert shard_map.shard_of(action.stripe_id) == shard
        assert len(seen) == plan.total_chunks

    def test_round_coupling_preserved(self):
        """Two same-shard actions from one full-plan round stay together."""
        plan = self.plan()
        shard_map = ShardMap(2)
        sub_plans = split_plan(plan, shard_map)
        # Map each action to its original round and its sub-plan round.
        original = {}
        for round_ in plan.rounds:
            for action in round_.actions():
                original[(action.stripe_id, action.chunk_index)] = round_.index
        for sub in sub_plans:
            for round_ in sub.rounds:
                origins = {
                    original[(a.stripe_id, a.chunk_index)]
                    for a in round_.actions()
                }
                assert len(origins) == 1, (
                    "a sub-plan round mixes actions from different "
                    "full-plan rounds"
                )

    def test_rounds_are_dense(self):
        plan = self.plan()
        for sub in split_plan(plan, ShardMap(3)):
            assert [r.index for r in sub.rounds] == list(
                range(len(sub.rounds))
            )


# ----------------------------------------------------------------------
# helper budget
# ----------------------------------------------------------------------


class TestHelperBudget:
    def test_grants_when_free(self):
        budget = HelperBudget(per_node=1)
        budget.acquire([1, 2, 3])
        assert budget.held(1) == 1
        budget.release([1, 2, 3])
        assert budget.held(1) == 0

    def test_per_node_cap_blocks(self):
        budget = HelperBudget(per_node=1, poll_interval=0.01)
        budget.acquire([7])
        with pytest.raises(BudgetTimeout):
            budget.acquire([7], timeout=0.05)
        budget.release([7])
        budget.acquire([7], timeout=0.5)  # free again
        budget.release([7])

    def test_total_streams_cap(self):
        budget = HelperBudget(per_node=2, total_streams=2, poll_interval=0.01)
        budget.acquire([1, 2])
        with pytest.raises(BudgetTimeout):
            budget.acquire([3], timeout=0.05)
        budget.release([1, 2])

    def test_deadline_priority_order(self):
        """Queued waiters are admitted smallest-priority first."""
        budget = HelperBudget(per_node=1, poll_interval=0.005)
        budget.acquire([5])
        order = []
        barrier = threading.Barrier(3)

        def waiter(priority):
            barrier.wait()
            # Deterministic queue order: low priority enqueues first so
            # a pure-FIFO budget would pick it; the high-priority (small
            # number) waiter must overtake it.
            if priority == 1.0:
                time.sleep(0.05)
            budget.acquire([5], priority=priority)
            order.append(priority)
            time.sleep(0.02)
            budget.release([5])

        threads = [
            threading.Thread(target=waiter, args=(p,)) for p in (9.0, 1.0)
        ]
        for t in threads:
            t.start()
        barrier.wait()
        time.sleep(0.2)  # both are queued behind the holder now
        budget.release([5])
        for t in threads:
            t.join(timeout=5)
        assert order == [1.0, 9.0]
        assert budget.waits >= 2
        assert budget.max_queue >= 2

    def test_renew_callback_fires_while_queued(self):
        budget = HelperBudget(per_node=1, poll_interval=0.01)
        budget.acquire([4])
        beats = []
        with pytest.raises(BudgetTimeout):
            budget.acquire(
                [4], timeout=0.1, renew=lambda: beats.append(1)
            )
        assert beats, "queued acquire never renewed its lease"
        budget.release([4])

    def test_round_context_releases_on_error(self):
        budget = HelperBudget(per_node=1)
        with pytest.raises(RuntimeError):
            with budget.round([8, 9]):
                assert budget.held(8) == 1
                raise RuntimeError("round blew up")
        assert budget.held(8) == 0
        assert budget.held(9) == 0

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            HelperBudget(per_node=0)
        with pytest.raises(ValueError):
            HelperBudget(total_streams=0)


# ----------------------------------------------------------------------
# two concurrent STF repairs never double-book a helper (satellite)
# ----------------------------------------------------------------------


class TestConcurrentStfRepairs:
    def test_budget_serializes_contending_rounds(self):
        """Two STF plans' rounds never overlap on a helper once both
        coordinators route through one budget."""
        cluster = make_cluster()
        cluster.node(0).mark_soon_to_fail()
        cluster.node(1).mark_soon_to_fail()
        plans = [
            FastPRPlanner(seed=2).plan(cluster, 0),
            FastPRPlanner(seed=2).plan(cluster, 1),
        ]
        budget = HelperBudget(per_node=1, poll_interval=0.002)
        in_use = {}
        overlap = []
        lock = threading.Lock()

        def run_plan(plan):
            for round_ in plan.rounds:
                nodes = set()
                for action in round_.actions():
                    nodes.update(action.sources)
                    nodes.add(action.destination)
                if not nodes:
                    continue
                with budget.round(nodes, timeout=30.0):
                    with lock:
                        for node in nodes:
                            if in_use.get(node, 0) >= budget.per_node:
                                overlap.append(node)
                            in_use[node] = in_use.get(node, 0) + 1
                    time.sleep(0.002)
                    with lock:
                        for node in nodes:
                            in_use[node] -= 1

        threads = [
            threading.Thread(target=run_plan, args=(p,)) for p in plans
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), "budgeted repair deadlocked"
        assert not overlap, f"helpers double-booked: {sorted(set(overlap))}"
