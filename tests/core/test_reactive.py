"""Tests for reactive repair of one failed node."""

import pytest

from repro.cluster import StorageCluster
from repro.core.reactive import plan_failed_node_repair
from repro.core.planner import apply_plan
from repro.sim.cost_model import evaluate_plan


def make_cluster(seed=1, num_nodes=16, stripes=50):
    return StorageCluster.random(
        num_nodes, stripes, 5, 3, num_hot_standby=2, seed=seed
    )


class TestSingleFailedNode:
    def test_requires_failed_state(self):
        cluster = make_cluster()
        with pytest.raises(ValueError, match="not failed"):
            plan_failed_node_repair(cluster, 0)

    def test_plan_is_pure_reconstruction(self):
        cluster = make_cluster()
        cluster.node(0).mark_failed()
        plan = plan_failed_node_repair(cluster, 0, seed=0)
        plan.validate(cluster)
        assert plan.migrated_chunks == 0
        assert plan.reconstructed_chunks == cluster.load_of(0)
        for action in plan.actions():
            assert 0 not in action.sources

    def test_simulatable_and_applicable(self):
        cluster = make_cluster(seed=2)
        cluster.node(3).mark_failed()
        plan = plan_failed_node_repair(cluster, 3, seed=0)
        result = evaluate_plan(cluster, plan)
        assert result.total_time > 0
        apply_plan(cluster, plan)
        assert cluster.load_of(3) == 0
