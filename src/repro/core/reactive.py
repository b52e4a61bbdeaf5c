"""Conventional reactive repair of actually-failed nodes.

FastPR assumes a *soon-to-fail* node that is still readable.  When a
node dies without warning (a missed prediction), or several nodes fail
inside the same stripe, the paper falls back to conventional reactive
repair: pure reconstruction from the surviving chunks (Section II-B,
assumptions).  This module implements that fallback:

* :func:`plan_failed_node_repair` — single failed node: like
  reconstruction-only FastPR, but the failed node can neither migrate
  nor serve as a helper.
* :class:`MultiFailureRepairPlanner` — several failed nodes: stripes
  may have lost up to ``n - k`` chunks each; every lost chunk is
  reconstructed from ``k`` surviving chunks, scheduled in rounds where
  each healthy node serves at most one chunk transfer.

Both produce ordinary :class:`~repro.core.plan.RepairPlan` objects, so
:func:`repro.sim.evaluate_plan` times them and the emulated testbed
executes them unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..cluster.chunk import ChunkLocation, NodeId, StripeId
from ..cluster.cluster import StorageCluster
from .matching import IncrementalStripeMatcher
from .placement import HotStandbyPlacer, assign_scattered_destinations
from .plan import (
    ChunkRepairAction,
    RepairMethod,
    RepairPlan,
    RepairRound,
    RepairScenario,
)
from .planner import ReconstructionOnlyPlanner


class UnrecoverableStripeError(RuntimeError):
    """A stripe lost more than ``n - k`` chunks; data is gone."""


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


class MultiFailureRepairPlanner:
    """Reactive repair across several simultaneously failed nodes.

    For every stripe touching a failed node, all of its lost chunks are
    reconstructed.  A stripe that lost ``f`` chunks still needs only
    ``k`` surviving helpers (one decode rebuilds all ``f``), but each
    lost chunk is written to a distinct destination.

    Scheduling greedily packs rounds: a (stripe, lost-chunk) unit joins
    the current round if its stripe's ``k`` helpers can be matched
    without reusing a node (the same matching discipline as
    Algorithm 1's MATCH).

    Args:
        scenario: where repaired chunks go.
        seed: randomizes destination tie-breaking via the cluster's
            placement machinery.
    """

    def __init__(
        self,
        scenario: RepairScenario = RepairScenario.SCATTERED,
        seed: Optional[int] = None,
    ):
        self.scenario = scenario
        self.seed = seed

    def plan(
        self, cluster: StorageCluster, failed_nodes: Sequence[NodeId]
    ) -> List[RepairPlan]:
        """Build one plan per failed node (chunks grouped by owner).

        Returns plans in ``failed_nodes`` order; executing them in any
        order is safe because helpers always come from healthy nodes.

        Raises:
            UnrecoverableStripeError: if any stripe lost > n - k chunks.
        """
        failed = list(dict.fromkeys(failed_nodes))
        for node_id in failed:
            if not cluster.node(node_id).is_failed:
                raise ValueError(f"node {node_id} is not marked failed")
        self._check_recoverable(cluster, failed)
        # Reserve destinations across the per-node plans so two plans
        # never place two chunks of one stripe on the same node.
        reservations: Dict[StripeId, Set[NodeId]] = {}
        return [
            self._plan_for_node(cluster, node, failed, reservations)
            for node in failed
        ]

    # ------------------------------------------------------------------

    def _check_recoverable(
        self, cluster: StorageCluster, failed: List[NodeId]
    ) -> None:
        failed_set = set(failed)
        for stripe in cluster.stripes():
            lost = [n for n in stripe.placement if n in failed_set]
            if len(lost) > stripe.n - stripe.k:
                raise UnrecoverableStripeError(
                    f"stripe {stripe.stripe_id} lost {len(lost)} chunks; "
                    f"only {stripe.n - stripe.k} are tolerable"
                )

    def _plan_for_node(
        self,
        cluster: StorageCluster,
        failed_node: NodeId,
        all_failed: List[NodeId],
        reservations: Dict[StripeId, Set[NodeId]],
    ) -> RepairPlan:
        chunks = cluster.chunks_on_node(failed_node)
        plan = RepairPlan(stf_node=failed_node, scenario=self.scenario)
        if not chunks:
            return plan
        ks = {cluster.stripe(c.stripe_id).k for c in chunks}
        if len(ks) != 1:
            raise ValueError("multi-failure repair requires a uniform code")
        k = ks.pop()
        standby_placer = None
        if self.scenario is RepairScenario.HOT_STANDBY:
            standby_placer = HotStandbyPlacer(cluster)
        pending: List[ChunkLocation] = list(chunks)
        index = 0
        while pending:
            round_chunks, assignments, pending = self._pack_round(
                cluster, pending, k, all_failed
            )
            plan.rounds.append(
                self._build_round(
                    cluster,
                    index,
                    round_chunks,
                    assignments,
                    standby_placer,
                    reservations,
                )
            )
            index += 1
        return plan

    def _pack_round(
        self,
        cluster: StorageCluster,
        pending: List[ChunkLocation],
        k: int,
        all_failed: List[NodeId],
    ) -> Tuple[List[ChunkLocation], Dict[StripeId, List[NodeId]], List[ChunkLocation]]:
        matcher = IncrementalStripeMatcher(k)
        taken: List[ChunkLocation] = []
        rest: List[ChunkLocation] = []
        seen_stripes: Set[StripeId] = set()
        for chunk in pending:
            # One decode per stripe per round suffices for all of that
            # stripe's losses on this node; different failed nodes get
            # their own plans.
            if chunk.stripe_id in seen_stripes:
                rest.append(chunk)
                continue
            helpers = cluster.helper_nodes(
                chunk.stripe_id, exclude=set(all_failed)
            )
            if len(helpers) < k:
                raise UnrecoverableStripeError(
                    f"stripe {chunk.stripe_id}: only {len(helpers)} healthy "
                    f"helpers, need {k}"
                )
            if matcher.try_add(chunk.stripe_id, helpers):
                taken.append(chunk)
                seen_stripes.add(chunk.stripe_id)
            else:
                rest.append(chunk)
        if not taken:
            raise AssertionError("round packing made no progress")
        return taken, matcher.assignment(), rest

    def _build_round(
        self,
        cluster: StorageCluster,
        index: int,
        round_chunks: List[ChunkLocation],
        assignments: Dict[StripeId, List[NodeId]],
        standby_placer: Optional[HotStandbyPlacer],
        reservations: Dict[StripeId, Set[NodeId]],
    ) -> RepairRound:
        if standby_placer is not None:
            destinations = standby_placer.assign(round_chunks)
        else:
            destinations = assign_scattered_destinations(
                cluster,
                round_chunks[0].node_id,
                round_chunks,
                stripe_reservations=reservations,
            )
            for (stripe_id, _), node in destinations.items():
                reservations.setdefault(stripe_id, set()).add(node)
        round_ = RepairRound(index=index)
        for chunk in round_chunks:
            round_.reconstructions.append(
                ChunkRepairAction(
                    stripe_id=chunk.stripe_id,
                    chunk_index=chunk.chunk_index,
                    method=RepairMethod.RECONSTRUCTION,
                    sources=tuple(assignments[chunk.stripe_id]),
                    destination=destinations[(chunk.stripe_id, chunk.chunk_index)],
                )
            )
        return round_


def replan_after_midrepair_failure(
    cluster: StorageCluster,
    plan: RepairPlan,
    completed_rounds: int,
    seed: Optional[int] = None,
) -> RepairPlan:
    """Re-plan when the STF node dies partway through its repair.

    The paper assumes the STF node stays readable "until it actually
    fails" — if it fails after ``completed_rounds`` rounds, the chunks
    of the remaining rounds can no longer migrate and every one of them
    must be reconstructed.  The STF node must already be marked failed
    (so helper selection skips it); the completed rounds' metadata
    updates are the caller's responsibility (apply them round by round
    as the coordinator receives ACKs).

    Returns a reconstruction-only plan covering exactly the unfinished
    chunks.
    """
    if not cluster.node(plan.stf_node).is_failed:
        raise ValueError(
            f"node {plan.stf_node} is not marked failed; nothing to replan"
        )
    if not 0 <= completed_rounds <= plan.num_rounds:
        raise ValueError(
            f"completed_rounds={completed_rounds} outside "
            f"[0, {plan.num_rounds}]"
        )
    remaining: List[ChunkLocation] = []
    for round_ in plan.rounds[completed_rounds:]:
        for action in round_.actions():
            remaining.append(
                ChunkLocation(
                    action.stripe_id, action.chunk_index, plan.stf_node
                )
            )
    planner = ReconstructionOnlyPlanner(scenario=plan.scenario, seed=seed)
    return planner.plan(cluster, plan.stf_node, chunks=remaining)


def repair_after_failures(
    cluster: StorageCluster,
    failed_nodes: Iterable[NodeId],
    scenario: RepairScenario = RepairScenario.SCATTERED,
    seed: Optional[int] = None,
) -> List[RepairPlan]:
    """Mark nodes failed and plan their reactive repair in one call."""
    failed = list(failed_nodes)
    for node_id in failed:
        cluster.node(node_id).mark_failed()
    if len(failed) == 1:
        return [
            plan_failed_node_repair(
                cluster, failed[0], scenario=scenario, seed=seed
            )
        ]
    planner = MultiFailureRepairPlanner(scenario=scenario, seed=seed)
    return planner.plan(cluster, failed)
