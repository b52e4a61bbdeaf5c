"""Repair-plan data structures.

A :class:`RepairPlan` is the output of a planner (FastPR or a
baseline): an ordered list of :class:`RepairRound`\\ s, each holding the
chunk-level migration and reconstruction actions to execute in parallel
— exactly the per-round command batches the paper's coordinator sends
to its agents (Section V).
"""

from __future__ import annotations

import dataclasses
import enum
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Tuple

from ..cluster.chunk import NodeId, StripeId
from .serde import Schema, SerdeError

#: shared serde protocol; plans embedded in pre-versioning journals
#: load as implicit version 1
REPAIR_PLAN_SCHEMA = Schema(
    kind="RepairPlan",
    version=1,
    fields=("stf_node", "scenario", "rounds"),
    required=("stf_node", "scenario", "rounds"),
    error=SerdeError,
    implicit_version=1,
)


class RepairScenario(enum.Enum):
    """Where repaired chunks are stored (Section II-C)."""

    SCATTERED = "scattered"
    HOT_STANDBY = "hot_standby"


class RepairMethod(enum.Enum):
    """How a chunk is restored."""

    MIGRATION = "migration"
    RECONSTRUCTION = "reconstruction"


@dataclass(frozen=True)
class ChunkRepairAction:
    """Repair of one chunk of the STF node.

    Attributes:
        stripe_id: stripe the chunk belongs to.
        chunk_index: the chunk's index within the stripe.
        method: migration or reconstruction.
        sources: nodes read from — the STF node itself for migration,
            or the ``k`` helper nodes for reconstruction.
        destination: node that stores the repaired chunk.
        pipelined: reconstruct via a helper chain (repair pipelining,
            Li et al. ATC'17 — the paper's related work [20]): helpers
            forward partial sums ``sources[0] -> ... -> sources[-1] ->
            destination`` instead of all sending to the destination.
            The destination then ingests one chunk instead of ``k``.
    """

    stripe_id: StripeId
    chunk_index: int
    method: RepairMethod
    sources: Tuple[NodeId, ...]
    destination: NodeId
    pipelined: bool = False

    def __post_init__(self):
        if self.method is RepairMethod.MIGRATION and len(self.sources) != 1:
            raise ValueError("migration reads from exactly one source (the STF node)")
        if self.method is RepairMethod.RECONSTRUCTION and len(self.sources) < 1:
            raise ValueError("reconstruction needs at least one helper")

    def to_dict(self) -> Dict:
        """JSON-serializable form (repair journal, snapshots)."""
        return {
            "stripe_id": self.stripe_id,
            "chunk_index": self.chunk_index,
            "method": self.method.value,
            "sources": list(self.sources),
            "destination": self.destination,
            "pipelined": self.pipelined,
        }

    @classmethod
    def from_dict(cls, document: Dict) -> "ChunkRepairAction":
        return cls(
            stripe_id=document["stripe_id"],
            chunk_index=document["chunk_index"],
            method=RepairMethod(document["method"]),
            sources=tuple(document["sources"]),
            destination=document["destination"],
            pipelined=document.get("pipelined", False),
        )


@dataclass
class RepairRound:
    """One parallel batch of repairs (a repair round, Section IV)."""

    index: int
    reconstructions: List[ChunkRepairAction] = field(default_factory=list)
    migrations: List[ChunkRepairAction] = field(default_factory=list)

    @property
    def cr(self) -> int:
        """Chunks reconstructed this round (the paper's c_r)."""
        return len(self.reconstructions)

    @property
    def cm(self) -> int:
        """Chunks migrated this round (the paper's c_m)."""
        return len(self.migrations)

    def actions(self) -> Iterator[ChunkRepairAction]:
        yield from self.reconstructions
        yield from self.migrations

    def helper_nodes(self) -> List[NodeId]:
        """All distinct helper nodes read by reconstructions this round."""
        nodes = set()
        for action in self.reconstructions:
            nodes.update(action.sources)
        return sorted(nodes)

    def to_dict(self) -> Dict:
        return {
            "index": self.index,
            "reconstructions": [a.to_dict() for a in self.reconstructions],
            "migrations": [a.to_dict() for a in self.migrations],
        }

    @classmethod
    def from_dict(cls, document: Dict) -> "RepairRound":
        return cls(
            index=document["index"],
            reconstructions=[
                ChunkRepairAction.from_dict(a)
                for a in document["reconstructions"]
            ],
            migrations=[
                ChunkRepairAction.from_dict(a) for a in document["migrations"]
            ],
        )


@dataclass
class RepairPlan:
    """A complete schedule for repairing one STF node."""

    stf_node: NodeId
    scenario: RepairScenario
    rounds: List[RepairRound] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_chunks(self) -> int:
        return sum(r.cr + r.cm for r in self.rounds)

    @property
    def migrated_chunks(self) -> int:
        return sum(r.cm for r in self.rounds)

    @property
    def reconstructed_chunks(self) -> int:
        return sum(r.cr for r in self.rounds)

    def actions(self) -> Iterator[ChunkRepairAction]:
        for round_ in self.rounds:
            yield from round_.actions()

    def validate(self, cluster, stf_chunks=None) -> None:
        """Check plan invariants against a cluster's metadata.

        * every STF chunk repaired exactly once;
        * reconstruction helpers hold chunks of the stripe and exclude
          the STF node; each helper serves at most one chunk per round;
        * migrations read from the STF node;
        * scattered destinations hold no chunk of the stripe and
          receive at most one repaired chunk per round (write path);
        * hot-standby destinations are standby nodes.

        Raises:
            ValueError: on the first violated invariant.
        """
        from ..cluster.node import NodeRole

        if stf_chunks is None:
            stf_chunks = cluster.chunks_on_node(self.stf_node)
        expected = {(c.stripe_id, c.chunk_index) for c in stf_chunks}
        seen: Dict[Tuple[StripeId, int], int] = {}
        for round_ in self.rounds:
            helpers_this_round: Dict[NodeId, int] = {}
            for action in round_.actions():
                key = (action.stripe_id, action.chunk_index)
                seen[key] = seen.get(key, 0) + 1
                stripe = cluster.stripe(action.stripe_id)
                if action.method is RepairMethod.MIGRATION:
                    if action.sources != (self.stf_node,):
                        raise ValueError(
                            f"migration of {key} reads from {action.sources}, "
                            f"not the STF node {self.stf_node}"
                        )
                else:
                    for helper in action.sources:
                        if helper == self.stf_node:
                            raise ValueError(
                                f"reconstruction of {key} uses the STF node"
                            )
                        if not stripe.stores_on(helper):
                            raise ValueError(
                                f"helper {helper} holds no chunk of stripe "
                                f"{action.stripe_id}"
                            )
                        helpers_this_round[helper] = (
                            helpers_this_round.get(helper, 0) + 1
                        )
                if self.scenario is RepairScenario.SCATTERED:
                    if stripe.stores_on(action.destination):
                        raise ValueError(
                            f"destination {action.destination} already stores a "
                            f"chunk of stripe {action.stripe_id}"
                        )
                    if cluster.node(action.destination).role is not NodeRole.STORAGE:
                        raise ValueError(
                            f"scattered repair must target storage nodes, got "
                            f"{action.destination}"
                        )
                else:
                    if not cluster.node(action.destination).is_standby:
                        raise ValueError(
                            f"hot-standby repair must target standby nodes, got "
                            f"{action.destination}"
                        )
            over = [n for n, cnt in helpers_this_round.items() if cnt > 1]
            if over:
                raise ValueError(
                    f"round {round_.index}: helper nodes {over} serve more "
                    "than one reconstruction"
                )
        if set(seen) != expected:
            missing = expected - set(seen)
            extra = set(seen) - expected
            raise ValueError(
                f"plan covers wrong chunk set; missing={sorted(missing)[:5]} "
                f"extra={sorted(extra)[:5]}"
            )
        repeated = [key for key, cnt in seen.items() if cnt > 1]
        if repeated:
            raise ValueError(f"chunks repaired more than once: {repeated[:5]}")

    def to_dict(self) -> Dict:
        """JSON-serializable form, exact enough to resume a repair from."""
        return REPAIR_PLAN_SCHEMA.dump(
            {
                "stf_node": self.stf_node,
                "scenario": self.scenario.value,
                "rounds": [r.to_dict() for r in self.rounds],
            }
        )

    @classmethod
    def from_dict(cls, document: Dict) -> "RepairPlan":
        body = REPAIR_PLAN_SCHEMA.load(document)
        return cls(
            stf_node=body["stf_node"],
            scenario=RepairScenario(body["scenario"]),
            rounds=[RepairRound.from_dict(r) for r in body["rounds"]],
        )

    def summary(self) -> str:
        """Human-readable one-liner for logs and examples."""
        return (
            f"RepairPlan(stf={self.stf_node}, {self.scenario.value}, "
            f"rounds={self.num_rounds}, reconstructed={self.reconstructed_chunks}, "
            f"migrated={self.migrated_chunks})"
        )


#: how a plan's reconstructions move data (see :func:`apply_pipelining`)
PIPELINING_MODES = ("off", "chain")


def apply_pipelining(plan: RepairPlan, pipelining: str) -> RepairPlan:
    """Return ``plan`` with every reconstruction's strategy rewritten.

    ``"chain"`` marks each reconstruction ``pipelined=True`` (chained
    partial-sum streaming); ``"off"`` clears the flag.  Migrations are
    untouched — they are single-source copies with nothing to chain.
    The input plan is never mutated (actions are frozen dataclasses).
    """
    if pipelining not in PIPELINING_MODES:
        raise ValueError(
            f"pipelining must be one of {PIPELINING_MODES}, "
            f"got {pipelining!r}"
        )
    chained = pipelining == "chain"
    rounds = [
        RepairRound(
            index=r.index,
            reconstructions=[
                replace(a, pipelined=chained) for a in r.reconstructions
            ],
            migrations=list(r.migrations),
        )
        for r in plan.rounds
    ]
    return dataclasses.replace(plan, rounds=rounds)


@dataclass(frozen=True)
class ShardMap:
    """Consistent hash of the stripe space over ``num_shards`` owners.

    Shard assignment is ``crc32("stripe:<id>") % num_shards`` — stable
    across processes and Python versions (unlike ``hash()``), the same
    idiom the fault injector's link RNG uses.  Every coordinator and
    agent-side tool derives an identical mapping from
    just the shard count, so there is no shard-map metadata to
    replicate or recover: a takeover only moves *ownership*, never the
    mapping.
    """

    num_shards: int

    def __post_init__(self):
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")

    def shard_of(self, stripe_id: StripeId) -> int:
        """Owning shard of one stripe."""
        return zlib.crc32(f"stripe:{stripe_id}".encode()) % self.num_shards

    def coordinator_id(self, shard: int) -> NodeId:
        """Transport endpoint of the shard's coordinator: ``-(shard+1)``."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
        return -(shard + 1)

    def shards(self) -> range:
        return range(self.num_shards)


def split_plan(plan: RepairPlan, shard_map: ShardMap) -> List[RepairPlan]:
    """Partition a validated plan into one sub-plan per shard.

    Each action lands in the shard owning its stripe; round structure
    is preserved per shard (an action in the full plan's round ``r``
    stays coupled with its shard-mates from round ``r``), then empty
    rounds are squeezed out and the rest re-indexed so each shard
    executes a dense round sequence.  Only the *full* plan satisfies
    the global validation invariants (complete STF chunk coverage) —
    validate before splitting, not after.
    """
    rounds_per_shard: List[List[RepairRound]] = [
        [] for _ in shard_map.shards()
    ]
    for round_ in plan.rounds:
        buckets: Dict[int, RepairRound] = {}
        for action in round_.reconstructions:
            shard = shard_map.shard_of(action.stripe_id)
            bucket = buckets.setdefault(shard, RepairRound(index=0))
            bucket.reconstructions.append(action)
        for action in round_.migrations:
            shard = shard_map.shard_of(action.stripe_id)
            bucket = buckets.setdefault(shard, RepairRound(index=0))
            bucket.migrations.append(action)
        for shard, bucket in buckets.items():
            bucket.index = len(rounds_per_shard[shard])
            rounds_per_shard[shard].append(bucket)
    return [
        RepairPlan(
            stf_node=plan.stf_node,
            scenario=plan.scenario,
            rounds=rounds,
        )
        for rounds in rounds_per_shard
    ]
