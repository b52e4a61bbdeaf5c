"""Repair planners: FastPR and the paper's two baselines.

* :class:`FastPRPlanner` — Algorithm 1 + Algorithm 2: couples
  migration and reconstruction per round.
* :class:`ReconstructionOnlyPlanner` — the conventional reactive
  repair: Algorithm 1's sets, one per round, no migration.
* :class:`MigrationOnlyPlanner` — relocate every chunk off the STF
  node, serialized by its bandwidth.

All planners emit a :class:`~repro.core.plan.RepairPlan` that the
simulator (:mod:`repro.sim`) or the emulated testbed runtime
(:mod:`repro.runtime`) can execute.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..cluster.chunk import ChunkLocation, NodeId
from ..cluster.cluster import StorageCluster
from .analysis import AnalyticalModel, BandwidthProfile
from .placement import (
    HotStandbyPlacer,
    assign_scattered_destinations,
)
from .plan import (
    ChunkRepairAction,
    RepairMethod,
    RepairPlan,
    RepairRound,
    RepairScenario,
)
from .reconstruction_sets import (
    ReconstructionSetFinder,
    helper_assignment,
)
from .scheduling import (
    RoundComposition,
    schedule_migration_only,
    schedule_reconstruction_only,
    schedule_repair_rounds,
)


def profile_from_cluster(cluster: StorageCluster) -> BandwidthProfile:
    """Build a :class:`BandwidthProfile` from a cluster's defaults."""
    return BandwidthProfile(
        chunk_size=cluster.chunk_size,
        disk_bandwidth=cluster.disk_bandwidth,
        network_bandwidth=cluster.network_bandwidth,
    )


def model_for(
    cluster: StorageCluster,
    scenario: RepairScenario,
    k: int,
    profile: Optional[BandwidthProfile] = None,
    k_prime: Optional[int] = None,
) -> AnalyticalModel:
    """Analytical model matching a cluster + scenario configuration."""
    if profile is None:
        profile = profile_from_cluster(cluster)
    hot_standby = None
    if scenario is RepairScenario.HOT_STANDBY:
        hot_standby = cluster.num_hot_standby
        if hot_standby < 1:
            raise ValueError(
                "hot-standby repair requires at least one standby node"
            )
    return AnalyticalModel(
        num_nodes=cluster.num_storage_nodes,
        k=k,
        profile=profile,
        hot_standby=hot_standby,
        k_prime=k_prime,
    )


class RepairPlanner(ABC):
    """Common interface: produce a :class:`RepairPlan` for an STF node."""

    #: short name used in experiment tables
    name: str = "base"

    def __init__(
        self,
        scenario: RepairScenario = RepairScenario.SCATTERED,
        profile: Optional[BandwidthProfile] = None,
        seed: Optional[int] = None,
    ):
        self.scenario = scenario
        self.profile = profile
        self.seed = seed

    @abstractmethod
    def compose_rounds(
        self,
        cluster: StorageCluster,
        stf_node: NodeId,
        chunks: List[ChunkLocation],
    ) -> List[RoundComposition]:
        """Return the per-round chunk partition for this strategy."""

    def plan(
        self,
        cluster: StorageCluster,
        stf_node: NodeId,
        chunks: Optional[Sequence[ChunkLocation]] = None,
    ) -> RepairPlan:
        """Build the full repair plan (rounds, helpers, destinations)."""
        if chunks is None:
            chunks = cluster.chunks_on_node(stf_node)
        chunks = list(chunks)
        plan = RepairPlan(stf_node=stf_node, scenario=self.scenario)
        if not chunks:
            return plan
        compositions = self.compose_rounds(cluster, stf_node, chunks)
        standby_placer = None
        if self.scenario is RepairScenario.HOT_STANDBY:
            standby_placer = HotStandbyPlacer(cluster)
        for index, comp in enumerate(compositions):
            plan.rounds.append(
                self._build_round(
                    cluster, stf_node, index, comp, standby_placer
                )
            )
        return plan

    def _build_round(
        self,
        cluster: StorageCluster,
        stf_node: NodeId,
        index: int,
        comp: RoundComposition,
        standby_placer: Optional[HotStandbyPlacer],
    ) -> RepairRound:
        all_chunks = comp.reconstruction + comp.migration
        if standby_placer is not None:
            destinations = standby_placer.assign(all_chunks)
        else:
            destinations = assign_scattered_destinations(
                cluster, stf_node, all_chunks
            )
        helpers: Dict[int, List[NodeId]] = {}
        if comp.reconstruction:
            helpers = helper_assignment(cluster, stf_node, comp.reconstruction)
        round_ = RepairRound(index=index)
        for chunk in comp.reconstruction:
            round_.reconstructions.append(
                ChunkRepairAction(
                    stripe_id=chunk.stripe_id,
                    chunk_index=chunk.chunk_index,
                    method=RepairMethod.RECONSTRUCTION,
                    sources=tuple(helpers[chunk.stripe_id]),
                    destination=destinations[(chunk.stripe_id, chunk.chunk_index)],
                )
            )
        for chunk in comp.migration:
            round_.migrations.append(
                ChunkRepairAction(
                    stripe_id=chunk.stripe_id,
                    chunk_index=chunk.chunk_index,
                    method=RepairMethod.MIGRATION,
                    sources=(stf_node,),
                    destination=destinations[(chunk.stripe_id, chunk.chunk_index)],
                )
            )
        return round_

    # Shared helpers -----------------------------------------------------

    def _uniform_k(
        self, cluster: StorageCluster, chunks: Sequence[ChunkLocation]
    ) -> int:
        ks = {cluster.stripe(c.stripe_id).k for c in chunks}
        if len(ks) != 1:
            raise ValueError(
                f"planner requires a uniform code over the STF chunks; "
                f"found k values {sorted(ks)}"
            )
        return ks.pop()


class FastPRPlanner(RepairPlanner):
    """The paper's contribution: coupled migration + reconstruction.

    Args:
        scenario: scattered or hot-standby repair.
        profile: bandwidth profile for the c_m computation; defaults to
            the cluster's configured bandwidths.
        optimize: enable Algorithm 1's swap optimization.
        group_size: run Algorithm 1 per chunk group (Section IV-D).
        seed: randomization for Algorithm 1 ordering and the R'_x split.
        k_prime: repair fan-in override for repair-efficient codes.
        rounding: integerization of c_m ("nearest" or "floor"); see
            :func:`repro.core.scheduling.migration_quota`.
    """

    name = "fastpr"

    def __init__(
        self,
        scenario: RepairScenario = RepairScenario.SCATTERED,
        profile: Optional[BandwidthProfile] = None,
        optimize: bool = True,
        group_size: Optional[int] = None,
        seed: Optional[int] = None,
        k_prime: Optional[int] = None,
        rounding: str = "nearest",
    ):
        super().__init__(scenario, profile, seed)
        self.optimize = optimize
        self.group_size = group_size
        self.k_prime = k_prime
        self.rounding = rounding
        #: stats of the last Algorithm 1 run (Experiment B.5)
        self.last_stats = None

    def compose_rounds(self, cluster, stf_node, chunks):
        finder = ReconstructionSetFinder(
            cluster,
            stf_node,
            optimize=self.optimize,
            group_size=self.group_size,
            seed=self.seed,
        )
        sets = finder.find_all(chunks)
        self.last_stats = finder.stats
        k = self._uniform_k(cluster, chunks)
        model = model_for(
            cluster, self.scenario, k, profile=self.profile, k_prime=self.k_prime
        )
        return schedule_repair_rounds(
            sets, model, seed=self.seed, rounding=self.rounding
        )


class ReconstructionOnlyPlanner(RepairPlanner):
    """Conventional reactive repair: reconstruction sets, no migration."""

    name = "reconstruction"

    def __init__(
        self,
        scenario: RepairScenario = RepairScenario.SCATTERED,
        profile: Optional[BandwidthProfile] = None,
        optimize: bool = True,
        group_size: Optional[int] = None,
        seed: Optional[int] = None,
    ):
        super().__init__(scenario, profile, seed)
        self.optimize = optimize
        self.group_size = group_size

    def compose_rounds(self, cluster, stf_node, chunks):
        finder = ReconstructionSetFinder(
            cluster,
            stf_node,
            optimize=self.optimize,
            group_size=self.group_size,
            seed=self.seed,
        )
        return schedule_reconstruction_only(finder.find_all(chunks))


class MigrationOnlyPlanner(RepairPlanner):
    """Relocate every chunk off the STF node (no decoding)."""

    name = "migration"

    def compose_rounds(self, cluster, stf_node, chunks):
        return schedule_migration_only(chunks)


def stagger_concurrent_plans(plans: List[RepairPlan]) -> List[RepairPlan]:
    """Align concurrent plans so no helper is double-booked per round.

    Each plan was built assuming it owns its helpers, but concurrent
    STF repairs share the surviving fleet: if plan A's round 2 and plan
    B's round 2 both read helper 7, the two streams halve each other's
    bandwidth and both rounds blow their cost-model deadline.  This
    pass greedily re-slots rounds onto a shared timeline — a round
    moves to the earliest slot (not before its predecessor within its
    own plan) whose already-booked source nodes it does not intersect —
    and pads the gaps with empty rounds, so executing the returned
    plans in lockstep (round index r together) never co-schedules two
    reads of one helper.  Single-plan input comes back unchanged.
    """
    slot_sources: List[Set[NodeId]] = []
    staggered: List[RepairPlan] = []
    for plan in plans:
        placements: Dict[int, RepairRound] = {}
        cursor = 0
        for round_ in plan.rounds:
            sources: Set[NodeId] = set()
            for action in round_.actions():
                sources.update(action.sources)
            slot = cursor
            while True:
                while slot >= len(slot_sources):
                    slot_sources.append(set())
                if not (slot_sources[slot] & sources):
                    break
                slot += 1
            slot_sources[slot].update(sources)
            placements[slot] = round_
            cursor = slot + 1
        rounds: List[RepairRound] = []
        for slot in range(max(placements) + 1 if placements else 0):
            placed = placements.get(slot)
            rounds.append(
                RepairRound(
                    index=slot,
                    reconstructions=(
                        list(placed.reconstructions) if placed else []
                    ),
                    migrations=list(placed.migrations) if placed else [],
                )
            )
        staggered.append(
            RepairPlan(
                stf_node=plan.stf_node, scenario=plan.scenario, rounds=rounds
            )
        )
    return staggered


def plan_predictive_repair(
    cluster: StorageCluster,
    scenario: RepairScenario = RepairScenario.SCATTERED,
    **planner_kwargs,
) -> List[RepairPlan]:
    """Plan repair for the cluster's currently flagged STF nodes.

    Implements the paper's single-STF assumption: with exactly one STF
    node, FastPR runs; with several (rare; the paper cites 98%
    single-node events), each node falls back to the conventional
    reconstruction-only reactive repair.  Concurrent plans are
    staggered (:func:`stagger_concurrent_plans`) so no two of them
    read the same helper in the same round.
    """
    stf_nodes = cluster.stf_nodes()
    if not stf_nodes:
        return []
    if len(stf_nodes) == 1:
        planner = FastPRPlanner(scenario=scenario, **planner_kwargs)
        return [planner.plan(cluster, stf_nodes[0])]
    fallback = ReconstructionOnlyPlanner(scenario=scenario)
    return stagger_concurrent_plans(
        [fallback.plan(cluster, node) for node in stf_nodes]
    )


class UnrecoverableChunkError(ValueError):
    """A chunk cannot be repaired with the surviving nodes."""


def heal_action(
    cluster: StorageCluster,
    stf_node: NodeId,
    action: ChunkRepairAction,
    dead: Iterable[NodeId],
    scenario: RepairScenario = RepairScenario.SCATTERED,
) -> ChunkRepairAction:
    """Rewrite a repair action so it avoids permanently dead nodes.

    The paper's mid-repair failure handling (Section V): if the STF
    node dies, its unmigrated chunks fall back to pure reconstruction
    from the stripe's surviving chunks; if a helper dies, the
    reconstruction is re-solved with surviving sources; if a
    destination dies, a fresh destination is chosen.  Degraded mode
    favors completing the repair over round-level parallelism
    invariants (a healed action may reuse a helper another action in
    the round also reads from).

    Args:
        cluster: metadata as of plan time (healed helpers must actually
            store a chunk of the stripe).
        stf_node: the plan's STF node.
        action: the action to heal.
        dead: nodes known to be permanently gone.
        scenario: governs replacement-destination choice.

    Returns:
        The action unchanged if no dead node is involved, else a healed
        copy (``pipelined`` is cleared — degraded repairs use plain
        fan-in, whose coefficients any helper subset supports).

    Raises:
        UnrecoverableChunkError: not enough surviving helpers or no
            eligible destination remains.
    """
    dead_set: Set[NodeId] = set(dead)
    involved = set(action.sources) | {action.destination}
    if not involved & dead_set:
        return action
    stripe = cluster.stripe(action.stripe_id)
    destination = action.destination
    if destination in dead_set:
        destination = _replacement_destination(
            cluster, stripe, dead_set, stf_node, scenario
        )
    sources = action.sources
    method = action.method
    pipelined = action.pipelined
    if dead_set & set(action.sources):
        exclude = dead_set | {stf_node, destination}
        if method is RepairMethod.MIGRATION:
            # The STF node itself died: hybrid -> pure reconstruction.
            method = RepairMethod.RECONSTRUCTION
            k = stripe.k
            candidates = cluster.helper_nodes(action.stripe_id, exclude=exclude)
            if len(candidates) < k:
                raise UnrecoverableChunkError(
                    f"chunk ({action.stripe_id}, {action.chunk_index}): only "
                    f"{len(candidates)} surviving helpers, need {k}"
                )
            sources = tuple(candidates[:k])
        else:
            survivors = [s for s in action.sources if s not in dead_set]
            candidates = [
                h
                for h in cluster.helper_nodes(action.stripe_id, exclude=exclude)
                if h not in survivors
            ]
            need = len(action.sources) - len(survivors)
            if len(candidates) < need:
                raise UnrecoverableChunkError(
                    f"chunk ({action.stripe_id}, {action.chunk_index}): "
                    f"cannot replace {need} dead helpers "
                    f"({len(candidates)} candidates)"
                )
            sources = tuple(survivors + candidates[:need])
        pipelined = False
    return replace(
        action,
        method=method,
        sources=sources,
        destination=destination,
        pipelined=pipelined,
    )


def _replacement_destination(
    cluster: StorageCluster,
    stripe,
    dead: Set[NodeId],
    stf_node: NodeId,
    scenario: RepairScenario,
) -> NodeId:
    """First eligible surviving destination for a healed action."""
    from ..cluster.node import NodeRole

    for node_id in sorted(cluster.nodes):
        if node_id in dead or node_id == stf_node:
            continue
        node = cluster.node(node_id)
        if scenario is RepairScenario.HOT_STANDBY:
            if node.is_standby:
                return node_id
            continue
        if (
            node.role is NodeRole.STORAGE
            and not node.is_stf
            and not stripe.stores_on(node_id)
        ):
            return node_id
    raise UnrecoverableChunkError(
        f"no surviving destination for a chunk of stripe {stripe.stripe_id}"
    )


def apply_plan(cluster: StorageCluster, plan: RepairPlan) -> None:
    """Commit a plan's placements to the cluster metadata.

    After this, the STF node stores no chunks and can be decommissioned
    (the runtime counterpart is the DataNodes' heartbeat reports that
    update the NameNode, Section V).
    """
    for action in plan.actions():
        cluster.relocate_chunk(
            action.stripe_id, action.chunk_index, action.destination
        )
