"""Rack/machine topology and rack-aware stripe placement.

Production erasure-coded stores spread each stripe across failure
domains (racks) so that a rack outage costs at most a bounded number of
chunks per stripe.  The paper's evaluation uses flat clusters, but a
reproduction meant for reuse needs the fault-domain machinery: a
:class:`RackTopology` mapping nodes to racks (and, optionally, to
machines nested inside racks — the Sector/Disk/Machine/Rack hierarchy
of correlated-failure models), a placement policy that enforces a
per-rack chunk bound, and a verifier for the invariant.  Failure
domains feed fault injection: one
:class:`~repro.runtime.faults.DomainCrashFault` resolves through
:meth:`RackTopology.nodes_in_domain` into a correlated batch of node
crashes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .chunk import NodeId
from .cluster import StorageCluster


class RackViolationError(ValueError):
    """A stripe exceeds its per-rack chunk bound."""


#: failure-domain kinds a fault can target (coarse to fine)
DOMAIN_KINDS = ("rack", "machine")


@dataclass(frozen=True)
class RackTopology:
    """Immutable node -> rack (and optional node -> machine) assignment.

    ``machine_of`` is the finer failure domain: several nodes (disks /
    VMs) co-located on one physical machine die together when it does.
    Machines are expected to nest inside racks — every node of a
    machine sits in one rack — which :meth:`uniform` guarantees by
    construction.
    """

    rack_of: Dict[NodeId, int]
    machine_of: Optional[Dict[NodeId, int]] = None

    @classmethod
    def uniform(
        cls,
        node_ids: Sequence[NodeId],
        num_racks: int,
        nodes_per_machine: Optional[int] = None,
    ) -> "RackTopology":
        """Spread nodes over ``num_racks`` racks round-robin.

        With ``nodes_per_machine`` set, nodes are first grouped into
        machines of that size and whole machines are dealt round-robin
        onto racks, so a machine never straddles racks.
        """
        if num_racks < 1:
            raise ValueError("need at least one rack")
        if nodes_per_machine is None:
            return cls(
                rack_of={
                    node_id: i % num_racks
                    for i, node_id in enumerate(node_ids)
                }
            )
        if nodes_per_machine < 1:
            raise ValueError("nodes_per_machine must be >= 1")
        machine_of = {
            node_id: i // nodes_per_machine
            for i, node_id in enumerate(node_ids)
        }
        rack_of = {
            node_id: machine % num_racks
            for node_id, machine in machine_of.items()
        }
        return cls(rack_of=rack_of, machine_of=machine_of)

    @property
    def num_racks(self) -> int:
        return len(set(self.rack_of.values()))

    def nodes_in_rack(self, rack: int) -> List[NodeId]:
        return sorted(n for n, r in self.rack_of.items() if r == rack)

    def racks(self) -> List[int]:
        return sorted(set(self.rack_of.values()))

    def machines(self) -> List[int]:
        if self.machine_of is None:
            return []
        return sorted(set(self.machine_of.values()))

    def nodes_in_machine(self, machine: int) -> List[NodeId]:
        if self.machine_of is None:
            return []
        return sorted(
            n for n, m in self.machine_of.items() if m == machine
        )

    def nodes_in_domain(self, kind: str, index: int) -> List[NodeId]:
        """Nodes a failure of domain ``kind``/``index`` takes down.

        Raises:
            ValueError: unknown kind, or a machine domain on a
                topology without a machine map.
        """
        if kind == "rack":
            return self.nodes_in_rack(index)
        if kind == "machine":
            if self.machine_of is None:
                raise ValueError(
                    "topology has no machine map; build it with "
                    "RackTopology.uniform(..., nodes_per_machine=...)"
                )
            return self.nodes_in_machine(index)
        raise ValueError(
            f"unknown failure domain kind {kind!r}; expected one of "
            f"{DOMAIN_KINDS}"
        )

    def rack_counts(self, nodes: Sequence[NodeId]) -> Dict[int, int]:
        """How many of ``nodes`` sit in each rack."""
        counts: Dict[int, int] = {}
        for node in nodes:
            rack = self.rack_of[node]
            counts[rack] = counts.get(rack, 0) + 1
        return counts


class RackAwarePlacement:
    """Places each stripe with at most ``max_per_rack`` chunks per rack.

    With ``max_per_rack <= n - k`` a whole-rack failure never destroys
    more chunks of a stripe than the code tolerates.

    Args:
        topology: node -> rack map covering all storage nodes.
        max_per_rack: per-stripe, per-rack chunk bound.
        seed: randomizes node choice within racks.
    """

    def __init__(
        self,
        topology: RackTopology,
        max_per_rack: int = 1,
        seed: Optional[int] = None,
    ):
        if max_per_rack < 1:
            raise ValueError("max_per_rack must be >= 1")
        self.topology = topology
        self.max_per_rack = max_per_rack
        self._rng = random.Random(seed)

    def choose(self, cluster: StorageCluster, n: int) -> List[NodeId]:
        candidates = [
            node
            for node in cluster.storage_node_ids()
            if node in self.topology.rack_of
        ]
        if n > len(candidates):
            raise ValueError(f"n={n} exceeds {len(candidates)} mapped nodes")
        capacity = self.topology.num_racks * self.max_per_rack
        if n > capacity:
            raise ValueError(
                f"stripe width {n} exceeds rack capacity "
                f"{self.topology.num_racks} racks x {self.max_per_rack}"
            )
        # Group candidates by rack, least-loaded first within each.
        by_rack: Dict[int, List[NodeId]] = {}
        for node in candidates:
            by_rack.setdefault(self.topology.rack_of[node], []).append(node)
        for nodes in by_rack.values():
            self._rng.shuffle(nodes)
            nodes.sort(key=cluster.load_of)
        chosen: List[NodeId] = []
        used_per_rack: Dict[int, int] = {}
        # Round-robin across racks ordered by aggregate load.
        while len(chosen) < n:
            progress = False
            racks = sorted(
                by_rack,
                key=lambda r: sum(cluster.load_of(x) for x in by_rack[r]),
            )
            for rack in racks:
                if len(chosen) == n:
                    break
                if used_per_rack.get(rack, 0) >= self.max_per_rack:
                    continue
                if not by_rack[rack]:
                    continue
                chosen.append(by_rack[rack].pop(0))
                used_per_rack[rack] = used_per_rack.get(rack, 0) + 1
                progress = True
            if not progress:
                raise ValueError(
                    f"cannot place {n} chunks with max_per_rack="
                    f"{self.max_per_rack}"
                )
        return chosen


def verify_rack_tolerance(
    cluster: StorageCluster,
    topology: RackTopology,
    max_per_rack: Optional[int] = None,
) -> None:
    """Check every stripe's per-rack chunk bound.

    Args:
        max_per_rack: bound to enforce; defaults to each stripe's
            ``n - k`` (rack failure never exceeds the code's tolerance).

    Raises:
        RackViolationError: on the first violating stripe.
    """
    for stripe in cluster.stripes():
        bound = max_per_rack if max_per_rack is not None else stripe.n - stripe.k
        counts = topology.rack_counts(list(stripe.placement))
        for rack, count in counts.items():
            if count > bound:
                raise RackViolationError(
                    f"stripe {stripe.stripe_id} has {count} chunks in rack "
                    f"{rack} (bound {bound})"
                )
