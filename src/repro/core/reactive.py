"""Conventional reactive repair of an actually-failed node.

FastPR assumes a *soon-to-fail* node that is still readable.  When a
node dies without warning (a missed prediction), the paper falls back
to conventional reactive repair: pure reconstruction from the
surviving chunks (Section II-B, assumptions).
:func:`plan_failed_node_repair` plans that fallback for one failed
node, which can neither migrate nor serve as a helper.  Several dead
nodes are rebuilt one plan each (the repair daemon queues one task per
node).  The result is an ordinary :class:`~repro.core.plan.RepairPlan`,
so :func:`repro.sim.evaluate_plan` times it and the runtime executes it
unchanged.
"""

from __future__ import annotations

from typing import Optional

from ..cluster.chunk import NodeId
from ..cluster.cluster import StorageCluster
from .plan import RepairPlan, RepairScenario
from .planner import ReconstructionOnlyPlanner


def plan_failed_node_repair(
    cluster: StorageCluster,
    failed_node: NodeId,
    scenario: RepairScenario = RepairScenario.SCATTERED,
    seed: Optional[int] = None,
) -> RepairPlan:
    """Reactive repair of one failed node.

    Identical to the reconstruction-only baseline (the failed node is
    excluded from helpers automatically because its state is FAILED).
    The node should be marked failed before calling, so helper and
    destination selection skip it.
    """
    if not cluster.node(failed_node).is_failed:
        raise ValueError(
            f"node {failed_node} is not failed; use a predictive planner "
            "for soon-to-fail nodes"
        )
    planner = ReconstructionOnlyPlanner(scenario=scenario, seed=seed)
    return planner.plan(cluster, failed_node)
