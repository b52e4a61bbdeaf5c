"""Repair planners: FastPR and the paper's two baselines.

* :class:`FastPRPlanner` — Algorithm 1 + Algorithm 2: couples
  migration and reconstruction per round.
* :class:`ReconstructionOnlyPlanner` — the conventional reactive
  repair: Algorithm 1's sets, one per round, no migration.
* :class:`MigrationOnlyPlanner` — relocate every chunk off the STF
  node, serialized by its bandwidth.

The planners carry over to repair-efficient codes as the paper's
Section III does.  The stripes' codec answers, per lost chunk, which
chunks its repair may read, how many it reads and how much each helper
sends (:meth:`~repro.ec.codec.ErasureCodec.repair_recipe`; with no
codec, the stripes' ``rs(n, k)``), and the STF chunks are grouped by
that fan-in.  FastPR runs Algorithms 1+2 on the chunks of the cheapest
fan-in, with Eqs. (4)-(6) priced by that recipe, and migrates the
costlier ones (an LRC's global parities) in round 0;
reconstruction-only runs one Algorithm 1 pass per fan-in, cheapest
first.

All planners emit a :class:`~repro.core.plan.RepairPlan` that
:func:`repro.sim.evaluate_plan` times and the emulated testbed runtime
(:mod:`repro.runtime`) executes.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..cluster.chunk import ChunkLocation, NodeId
from ..cluster.cluster import StorageCluster
from ..ec.codec import DecodeError, ErasureCodec, RepairRecipe
from ..ec.reed_solomon import ReedSolomonCodec
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
    stripes_codec,
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
    recipe: RepairRecipe,
    profile: Optional[BandwidthProfile] = None,
) -> AnalyticalModel:
    """Analytical model matching a cluster + scenario configuration.

    ``recipe`` is the repair being modelled: its fan-in is Eqs. (5)-(6)'s
    ``k`` (a repair-efficient code's ``k'``), and each helper sends
    ``recipe.traffic`` of a chunk.
    """
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
        k=recipe.fanin,
        profile=profile,
        hot_standby=hot_standby,
        traffic_fraction=recipe.traffic,
    )


class RepairPlanner(ABC):
    """Common interface: produce a :class:`RepairPlan` for an STF node."""

    #: short name used in experiment tables
    name: str = "base"
    #: the stripes' erasure code; ``None`` is their ``rs(n, k)``
    codec: Optional[ErasureCodec] = None

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
        codec: ErasureCodec,
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
        codec = stripes_codec(cluster, chunks, self.codec)
        compositions = self.compose_rounds(cluster, stf_node, chunks, codec)
        standby_placer = None
        if self.scenario is RepairScenario.HOT_STANDBY:
            standby_placer = HotStandbyPlacer(cluster)
        for index, comp in enumerate(compositions):
            plan.rounds.append(
                self._build_round(
                    cluster, stf_node, index, comp, standby_placer, codec
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
        codec: ErasureCodec,
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
            helpers = helper_assignment(
                cluster, stf_node, comp.reconstruction, codec
            )
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


class _SetPlanner(RepairPlanner):
    """A planner that reconstructs Algorithm 1's sets.

    Args:
        scenario: scattered or hot-standby repair.
        profile: bandwidth profile for the c_m computation; defaults to
            the cluster's configured bandwidths.
        optimize: enable Algorithm 1's swap optimization.
        group_size: run Algorithm 1 per chunk group (Section IV-D).
        seed: randomization for Algorithm 1 ordering and the R'_x split;
            ``None`` keeps catalog order and R_x's order, so the plan is
            reproducible.
        codec: the stripes' erasure code, whose repair recipe names the
            chunks each repair reads; ``None`` is the stripes'
            ``rs(n, k)``.
    """

    def __init__(
        self,
        scenario: RepairScenario = RepairScenario.SCATTERED,
        profile: Optional[BandwidthProfile] = None,
        optimize: bool = True,
        group_size: Optional[int] = None,
        seed: Optional[int] = None,
        codec: Optional[ErasureCodec] = None,
    ):
        super().__init__(scenario, profile, seed)
        self.codec = codec
        self.optimize = optimize
        self.group_size = group_size

    def _fanin_classes(
        self, chunks: Sequence[ChunkLocation], codec: ErasureCodec
    ) -> Dict[int, List[ChunkLocation]]:
        """The STF chunks grouped by repair fan-in, cheapest first."""
        classes: Dict[int, List[ChunkLocation]] = {}
        for chunk in chunks:
            fanin = codec.repair_recipe(chunk.chunk_index).fanin
            classes.setdefault(fanin, []).append(chunk)
        return dict(sorted(classes.items()))

    def _finder(
        self, cluster: StorageCluster, stf_node: NodeId, codec: ErasureCodec
    ) -> ReconstructionSetFinder:
        return ReconstructionSetFinder(
            cluster,
            stf_node,
            optimize=self.optimize,
            group_size=self.group_size,
            seed=self.seed,
            codec=codec,
        )


class FastPRPlanner(_SetPlanner):
    """The paper's contribution: coupled migration + reconstruction.

    Takes :class:`_SetPlanner`'s arguments plus ``rounding``, the
    integerization of c_m ("nearest" or "floor"; see
    :func:`repro.core.scheduling.migration_quota`).
    """

    name = "fastpr"

    def __init__(self, *args, rounding: str = "nearest", **kwargs):
        super().__init__(*args, **kwargs)
        self.rounding = rounding
        #: stats of the last Algorithm 1 run (Experiment B.5)
        self.last_stats = None

    def compose_rounds(self, cluster, stf_node, chunks, codec):
        classes = self._fanin_classes(chunks, codec)
        recipe = min(
            map(codec.repair_recipe, range(codec.n)), key=lambda r: r.fanin
        )
        model = model_for(cluster, self.scenario, recipe, profile=self.profile)
        cheapest = classes.pop(recipe.fanin, [])
        compositions: List[RoundComposition] = []
        if cheapest:
            finder = self._finder(cluster, stf_node, codec)
            sets = finder.find_all(cheapest)
            self.last_stats = finder.stats
            compositions = schedule_repair_rounds(
                sets, model, seed=self.seed, rounding=self.rounding
            )
        # A costlier repair (an LRC global parity's k-helper decode)
        # reads more than migration's one chunk: migrate those.
        costlier = [c for group in classes.values() for c in group]
        if costlier:
            if not compositions:
                compositions = [RoundComposition()]
            compositions[0].migration.extend(costlier)
        return compositions


class ReconstructionOnlyPlanner(_SetPlanner):
    """Conventional reactive repair: reconstruction sets, no migration."""

    name = "reconstruction"

    def compose_rounds(self, cluster, stf_node, chunks, codec):
        compositions: List[RoundComposition] = []
        for group in self._fanin_classes(chunks, codec).values():
            sets = self._finder(cluster, stf_node, codec).find_all(group)
            compositions.extend(schedule_reconstruction_only(sets))
        return compositions


class MigrationOnlyPlanner(RepairPlanner):
    """Relocate every chunk off the STF node (no decoding)."""

    name = "migration"

    def compose_rounds(self, cluster, stf_node, chunks, codec):
        return schedule_migration_only(chunks)


class UnrecoverableChunkError(ValueError):
    """A chunk cannot be repaired with the surviving nodes."""


def heal_action(
    cluster: StorageCluster,
    stf_node: NodeId,
    action: ChunkRepairAction,
    dead: Iterable[NodeId],
    scenario: RepairScenario = RepairScenario.SCATTERED,
    codec: Optional[ErasureCodec] = None,
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
        codec: the stripes' erasure code (default: their ``rs(n, k)``);
            healed helpers follow its repair recipe, and any healed
            helper set is one whose recovery coefficients solve.

    Returns:
        The action unchanged if no dead node is involved, else a healed
        copy (``pipelined`` is cleared — degraded repairs use plain
        fan-in, whose coefficients any helper subset supports).

    Raises:
        UnrecoverableChunkError: no surviving helper set rebuilds the
            chunk, or no eligible destination remains.
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
        if method is RepairMethod.MIGRATION:
            # The STF node itself died: hybrid -> pure reconstruction.
            method = RepairMethod.RECONSTRUCTION
        sources = _healed_helpers(
            cluster,
            codec or ReedSolomonCodec(stripe.n, stripe.k),
            action,
            keep=[s for s in action.sources if s not in dead_set],
            exclude=dead_set | {stf_node, destination},
        )
        pipelined = False
    return replace(
        action,
        method=method,
        sources=sources,
        destination=destination,
        pipelined=pipelined,
    )


def _healed_helpers(
    cluster: StorageCluster,
    codec: ErasureCodec,
    action: ChunkRepairAction,
    keep: Sequence[NodeId],
    exclude: Set[NodeId],
) -> Tuple[NodeId, ...]:
    """Surviving helpers for a reconstruction of ``action``'s chunk.

    The codec's recipe first: the surviving ``keep`` sources that are
    recipe candidates, topped up to its fan-in with other live holders
    of recipe candidates in holder order (for RS: any ``k`` of the
    ``n - 1``, as always).  When the dead took too many of those, or
    the set does not solve, any ``k`` live holders whose recovery
    coefficients solve.
    """
    stripe = cluster.stripe(action.stripe_id)
    lost = action.chunk_index
    holders = cluster.helper_nodes(action.stripe_id, exclude=exclude)
    recipe = codec.repair_recipe(lost)
    allowed = [
        h for h in holders if stripe.chunk_index_on(h) in recipe.candidates
    ]
    preferred = [h for h in keep if h in allowed]
    preferred += [h for h in allowed if h not in preferred]
    tries = itertools.chain(
        [preferred[: recipe.fanin]] if len(preferred) >= recipe.fanin else [],
        itertools.combinations(holders, min(codec.k, len(holders))),
    )
    for helpers in tries:
        try:
            codec.recovery_coefficients(
                lost, [stripe.chunk_index_on(h) for h in helpers]
            )
        except DecodeError:
            continue
        return tuple(helpers)
    raise UnrecoverableChunkError(
        f"chunk ({action.stripe_id}, {lost}): no set of the "
        f"{len(holders)} surviving helpers {holders} rebuilds it with "
        f"{codec!r}"
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


def apply_plan(
    cluster: StorageCluster,
    plan: RepairPlan,
    executed: Optional[Sequence[ChunkRepairAction]] = None,
) -> None:
    """Commit a plan's placements to the cluster metadata.

    After this, the STF node stores no chunks and can be decommissioned
    (the runtime counterpart is the DataNodes' heartbeat reports that
    update the NameNode, Section V).

    Pass the actions a run carried out (a runtime result's
    ``executed_actions``) when faults may have healed actions onto
    substitute destinations, so each chunk is committed where its
    bytes were written.
    """
    for action in executed or plan.actions():
        cluster.relocate_chunk(
            action.stripe_id, action.chunk_index, action.destination
        )
