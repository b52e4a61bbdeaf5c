"""The storage-cluster metadata model.

:class:`StorageCluster` is the coordinator's view of the cluster: the
set of nodes (storage and hot-standby), every stripe's placement, and
the queries the FastPR algorithms need — which chunks an STF node
stores, which healthy nodes can serve as reconstruction helpers for a
stripe, and which nodes may receive a repaired chunk without breaking
node-level fault tolerance.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .chunk import ChunkLocation, NodeId, Stripe, StripeCatalog, StripeId
from .node import Node, NodeRole, NodeState


class ClusterError(RuntimeError):
    """Raised on invalid cluster mutations or queries."""


class StorageCluster:
    """Metadata for a cluster of ``M`` storage nodes plus optional
    hot-standby nodes, storing erasure-coded stripes.

    Args:
        num_nodes: number of regular storage nodes (the paper's ``M``).
        num_hot_standby: dedicated hot-standby nodes (the paper's ``h``).
        disk_bandwidth: default per-node disk bandwidth, bytes/s (``bd``).
        network_bandwidth: default per-node NIC bandwidth, bytes/s (``bn``).
        chunk_size: chunk size in bytes (``c``).
    """

    def __init__(
        self,
        num_nodes: int,
        num_hot_standby: int = 0,
        disk_bandwidth: float = 100e6,
        network_bandwidth: float = 125e6,
        chunk_size: int = 64 * 1024 * 1024,
    ):
        if num_nodes < 2:
            raise ValueError(f"need at least 2 storage nodes, got {num_nodes}")
        if num_hot_standby < 0:
            raise ValueError("num_hot_standby must be non-negative")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.disk_bandwidth = float(disk_bandwidth)
        self.network_bandwidth = float(network_bandwidth)
        self.chunk_size = int(chunk_size)
        self.nodes: Dict[NodeId, Node] = {}
        for node_id in range(num_nodes):
            self.nodes[node_id] = Node(node_id)
        for offset in range(num_hot_standby):
            node_id = num_nodes + offset
            self.nodes[node_id] = Node(node_id, role=NodeRole.HOT_STANDBY)
        self.catalog = StripeCatalog()
        self._next_stripe_id = 0
        #: bumped on every placement mutation; lets caches keyed to the
        #: placement invalidate
        self.metadata_version = 0
        # node id -> set of stripe ids with a chunk there (storage index)
        self._node_index: Dict[NodeId, Set[StripeId]] = {
            node_id: set() for node_id in self.nodes
        }

    # ------------------------------------------------------------------
    # Node queries
    # ------------------------------------------------------------------

    @property
    def num_storage_nodes(self) -> int:
        """The paper's ``M``: storage nodes regardless of health."""
        return sum(1 for n in self.nodes.values() if n.role is NodeRole.STORAGE)

    @property
    def num_hot_standby(self) -> int:
        return sum(1 for n in self.nodes.values() if n.is_standby)

    def storage_node_ids(self) -> List[NodeId]:
        return sorted(
            n.node_id for n in self.nodes.values() if n.role is NodeRole.STORAGE
        )

    def hot_standby_ids(self) -> List[NodeId]:
        return sorted(n.node_id for n in self.nodes.values() if n.is_standby)

    def healthy_storage_nodes(
        self, exclude: Iterable[NodeId] = ()
    ) -> List[NodeId]:
        """Healthy storage nodes, minus ``exclude`` (e.g. the STF node)."""
        excluded = set(exclude)
        return sorted(
            n.node_id
            for n in self.nodes.values()
            if n.role is NodeRole.STORAGE
            and n.state is NodeState.HEALTHY
            and n.node_id not in excluded
        )

    def node(self, node_id: NodeId) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ClusterError(f"unknown node {node_id}") from None

    def stf_nodes(self) -> List[NodeId]:
        """Nodes currently flagged soon-to-fail."""
        return sorted(n.node_id for n in self.nodes.values() if n.is_stf)

    # ------------------------------------------------------------------
    # Stripe management
    # ------------------------------------------------------------------

    def add_stripe(
        self, n: int, k: int, placement: Sequence[NodeId]
    ) -> Stripe:
        """Register a stripe with an explicit placement."""
        for node_id in placement:
            if node_id not in self.nodes:
                raise ClusterError(f"placement references unknown node {node_id}")
            if self.nodes[node_id].is_standby:
                raise ClusterError(
                    f"cannot place stripe chunk on hot-standby node {node_id}"
                )
        stripe = Stripe(self._next_stripe_id, n, k, placement)
        self.catalog.add(stripe)
        self._next_stripe_id += 1
        for node_id in placement:
            self._node_index[node_id].add(stripe.stripe_id)
        self.metadata_version += 1
        return stripe

    def stripe(self, stripe_id: StripeId) -> Stripe:
        try:
            return self.catalog[stripe_id]
        except KeyError:
            raise ClusterError(f"unknown stripe {stripe_id}") from None

    @property
    def num_stripes(self) -> int:
        return len(self.catalog)

    def stripes(self) -> Iterable[Stripe]:
        return iter(self.catalog)

    # ------------------------------------------------------------------
    # Queries used by the repair algorithms
    # ------------------------------------------------------------------

    def chunks_on_node(self, node_id: NodeId) -> List[ChunkLocation]:
        """Chunk locations currently stored on ``node_id``.

        This is the paper's set :math:`C` when ``node_id`` is the STF
        node (the chunks that predictive repair must restore).
        """
        if node_id not in self.nodes:
            raise ClusterError(f"unknown node {node_id}")
        locations = []
        for stripe_id in sorted(self._node_index[node_id]):
            stripe = self.catalog[stripe_id]
            locations.append(
                ChunkLocation(stripe_id, stripe.chunk_index_on(node_id), node_id)
            )
        return locations

    def load_of(self, node_id: NodeId) -> int:
        """Number of chunks stored on a node."""
        return len(self._node_index[node_id])

    def helper_nodes(
        self, stripe_id: StripeId, exclude: Iterable[NodeId] = ()
    ) -> List[NodeId]:
        """Healthy nodes storing a chunk of the stripe, minus ``exclude``.

        These are the candidate reconstruction helpers for a chunk of
        this stripe (the ``n - 1`` surviving chunk holders).
        """
        excluded = set(exclude)
        stripe = self.stripe(stripe_id)
        return sorted(
            node_id
            for node_id in stripe.nodes
            if node_id not in excluded
            and self.nodes[node_id].state is not NodeState.FAILED
        )

    def eligible_destinations(
        self, stripe_id: StripeId, exclude: Iterable[NodeId] = ()
    ) -> List[NodeId]:
        """Healthy storage nodes that store *no* chunk of the stripe.

        Placing the repaired chunk on any of them preserves the
        node-level fault tolerance (Fig. 4(c) of the paper).
        """
        excluded = set(exclude)
        stripe = self.stripe(stripe_id)
        return [
            node_id
            for node_id in self.healthy_storage_nodes(exclude=excluded)
            if not stripe.stores_on(node_id)
        ]

    def verify_fault_tolerance(self) -> None:
        """Assert every stripe occupies distinct, known nodes.

        Raises:
            ClusterError: on any violation (duplicated node within a
                stripe, or chunk on a failed node).
        """
        for stripe in self.catalog:
            seen: Set[NodeId] = set()
            for node_id in stripe.placement:
                if node_id in seen:
                    raise ClusterError(
                        f"stripe {stripe.stripe_id} stores two chunks on "
                        f"node {node_id}"
                    )
                seen.add(node_id)
                if node_id not in self.nodes:
                    raise ClusterError(
                        f"stripe {stripe.stripe_id} references unknown node "
                        f"{node_id}"
                    )

    # ------------------------------------------------------------------
    # Mutations performed by repair
    # ------------------------------------------------------------------

    def relocate_chunk(
        self, stripe_id: StripeId, chunk_index: int, new_node: NodeId
    ) -> None:
        """Record that a chunk now lives on ``new_node``.

        Used both by migration (chunk copied off the STF node) and by
        reconstruction (chunk decoded onto the destination).
        """
        stripe = self.stripe(stripe_id)
        old_node = stripe.node_of(chunk_index)
        if new_node == old_node:
            return
        if new_node not in self.nodes:
            raise ClusterError(f"unknown destination node {new_node}")
        stripe.relocate(chunk_index, new_node)
        self._node_index[old_node].discard(stripe_id)
        self._node_index[new_node].add(stripe_id)
        self.metadata_version += 1

    def decommission(self, node_id: NodeId) -> None:
        """Remove a (repaired, now chunk-free) node from service."""
        if self._node_index[node_id]:
            raise ClusterError(
                f"node {node_id} still stores {len(self._node_index[node_id])} "
                "stripes; repair it first"
            )
        self.nodes[node_id].mark_failed()

    def promote_standby(self, node_id: NodeId) -> None:
        """Turn a hot-standby node into a regular storage node.

        Hot-standby repair ends with the standby nodes taking over the
        STF node's service (Section II-C).
        """
        node = self.node(node_id)
        if not node.is_standby:
            raise ClusterError(f"node {node_id} is not a hot standby")
        node.role = NodeRole.STORAGE

    def add_hot_standby(self, count: int = 1) -> List[NodeId]:
        """Provision ``count`` fresh hot-standby nodes.

        Operators replace consumed standbys after a hot-standby repair
        promotes them into service; ids continue after the current
        maximum.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        added = []
        next_id = max(self.nodes) + 1
        for offset in range(count):
            node_id = next_id + offset
            self.nodes[node_id] = Node(node_id, role=NodeRole.HOT_STANDBY)
            self._node_index[node_id] = set()
            added.append(node_id)
        return added

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def random(
        cls,
        num_nodes: int,
        num_stripes: int,
        n: int,
        k: int,
        num_hot_standby: int = 0,
        seed: Optional[int] = None,
        disk_bandwidth: float = 100e6,
        network_bandwidth: float = 125e6,
        chunk_size: int = 64 * 1024 * 1024,
    ) -> "StorageCluster":
        """Build a cluster with ``num_stripes`` randomly placed stripes.

        Mirrors the paper's simulation setup: "randomly distribute
        1,000 stripes of chunks across the storage cluster".
        """
        if n > num_nodes:
            raise ValueError(
                f"stripe width n={n} exceeds cluster size M={num_nodes}"
            )
        rng = random.Random(seed)
        cluster = cls(
            num_nodes,
            num_hot_standby=num_hot_standby,
            disk_bandwidth=disk_bandwidth,
            network_bandwidth=network_bandwidth,
            chunk_size=chunk_size,
        )
        node_ids = cluster.storage_node_ids()
        for _ in range(num_stripes):
            placement = rng.sample(node_ids, n)
            cluster.add_stripe(n, k, placement)
        return cluster

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StorageCluster(M={self.num_storage_nodes}, "
            f"h={self.num_hot_standby}, stripes={self.num_stripes})"
        )
