"""Destination selection for repaired chunks (Fig. 4(c)).

Scattered repair must place each repaired chunk on a healthy node that
stores no chunk of the same stripe, and — within a round — every
repaired chunk on a distinct node, so writes parallelize.  The paper
solves this as a bipartite maximum matching (stripes x nodes) and notes
that with ``M - n >= c_m + c_r`` Hall's theorem guarantees a perfect
matching.

Hot-standby repair spreads repaired chunks evenly over the ``h``
standby nodes, skipping a standby that already stores a chunk of the
stripe.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..cluster.chunk import ChunkLocation, NodeId
from ..cluster.cluster import StorageCluster
from .matching import match_one_per_target

ChunkKey = Tuple[int, int]  # (stripe_id, chunk_index)


class PlacementError(RuntimeError):
    """Raised when no valid destination assignment exists."""


def assign_scattered_destinations(
    cluster: StorageCluster,
    stf_node: NodeId,
    chunks: Sequence[ChunkLocation],
    allow_reuse_fallback: bool = True,
) -> Dict[ChunkKey, NodeId]:
    """Choose one destination node per repaired chunk of a round.

    Args:
        cluster: cluster metadata.
        stf_node: the STF node (never a destination).
        chunks: the round's repaired chunks (migrations + reconstructions).
        allow_reuse_fallback: if the strict one-node-per-chunk matching
            is infeasible (small clusters violating ``M - n >= c_m+c_r``),
            fall back to least-loaded placement that may reuse a
            destination within the round.

    Returns:
        (stripe_id, chunk_index) -> destination node id.

    Raises:
        PlacementError: if some stripe has no eligible destination at
            all (fault tolerance could not be preserved).
    """
    candidates: Dict[ChunkKey, List[NodeId]] = {}
    for chunk in chunks:
        eligible = cluster.eligible_destinations(
            chunk.stripe_id, exclude={stf_node}
        )
        if not eligible:
            raise PlacementError(
                f"no eligible destination for stripe {chunk.stripe_id}: "
                "every healthy node already stores one of its chunks"
            )
        candidates[(chunk.stripe_id, chunk.chunk_index)] = eligible
    matched = match_one_per_target(candidates)
    if matched is not None:
        return dict(matched)
    if not allow_reuse_fallback:
        raise PlacementError(
            f"cannot place {len(chunks)} repaired chunks on distinct nodes; "
            f"cluster too small (Hall condition violated)"
        )
    # Fallback: greedy least-loaded, allowing intra-round reuse.
    assignment: Dict[ChunkKey, NodeId] = {}
    extra_load: Dict[NodeId, int] = {}
    for key, eligible in candidates.items():
        best = min(
            eligible,
            key=lambda nid: (cluster.load_of(nid) + extra_load.get(nid, 0), nid),
        )
        assignment[key] = best
        extra_load[best] = extra_load.get(best, 0) + 1
    return assignment


class HotStandbyPlacer:
    """Round-robin spreader over the hot-standby nodes.

    Keeps a cursor across rounds so the total distribution stays even
    (the paper: "we simply evenly distribute the repaired chunks to all
    h hot-standby nodes").  A standby that already stores a chunk of the
    stripe (placed there by an earlier hot-standby repair) is skipped:
    two chunks of one stripe on one node would cost the stripe its
    fault tolerance, and the second write would replace the first.
    """

    def __init__(self, cluster: StorageCluster, standby_ids: Optional[Iterable[NodeId]] = None):
        ids = list(standby_ids) if standby_ids is not None else cluster.hot_standby_ids()
        if not ids:
            raise PlacementError("hot-standby repair requires standby nodes")
        self._cluster = cluster
        self._ids = sorted(ids)
        self._cursor = 0

    def assign(self, chunks: Sequence[ChunkLocation]) -> Dict[ChunkKey, NodeId]:
        """Next standby in round-robin order that holds no chunk of the
        stripe, per chunk.

        Raises:
            PlacementError: every standby already stores a chunk of
                some chunk's stripe.
        """
        assignment: Dict[ChunkKey, NodeId] = {}
        for chunk in chunks:
            stripe = self._cluster.stripe(chunk.stripe_id)
            for step in range(len(self._ids)):
                node = self._ids[(self._cursor + step) % len(self._ids)]
                if not stripe.stores_on(node):
                    break
            else:
                raise PlacementError(
                    f"no hot-standby destination for stripe "
                    f"{chunk.stripe_id}: every standby already stores one "
                    "of its chunks"
                )
            self._cursor += step + 1
            assignment[(chunk.stripe_id, chunk.chunk_index)] = node
        return assignment
