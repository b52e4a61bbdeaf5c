"""Algorithm 1: finding reconstruction sets.

A *reconstruction set* is a group of STF-node chunks that can all be
reconstructed in the same repair round: their stripes can be assigned
the helpers each repair reads, with every healthy node serving at most
one chunk in the round (Section IV-B).  A repair reads any ``k``
healthy holders of its stripe, unless the stripes' codec names a
smaller repair group (an LRC's ``k' = k/l`` local-group members, the
paper's Section III extension); :func:`helper_candidates` asks the
codec.  One finder runs on chunks of one repair fan-in.

The implementation follows the paper's pseudocode:

* MATCH(R, Ci) — can ``R ∪ {Ci}`` still be fully matched?  Realized by
  :class:`~repro.core.matching.IncrementalStripeMatcher.try_add`.
* FIND(C) — grow an initial set greedily, then *optimize* it by
  swapping one member ``Ci`` with an outside chunk ``Cj`` whenever that
  lets additional chunks ``A_{i,j}`` join (Lines 18-38).
* MAIN(C) — call FIND until every chunk is covered, yielding sets
  ``R_1 … R_d``.

``optimize=False`` reproduces the paper's ``d_ini`` baseline for the
Experiment B.5 microbenchmark, and ``group_size`` implements the
Section IV-D mitigation of running Algorithm 1 per chunk group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..cluster.chunk import ChunkLocation, NodeId
from ..cluster.cluster import StorageCluster
from ..ec.codec import ErasureCodec
from .matching import IncrementalStripeMatcher


@dataclass
class Algorithm1Stats:
    """Bookkeeping for the Experiment B.5 microbenchmarks."""

    match_calls: int = 0
    swaps_applied: int = 0
    initial_sets_sizes: List[int] = field(default_factory=list)


class ReconstructionSetFinder:
    """Runs Algorithm 1 for one STF node on a cluster.

    Args:
        cluster: the cluster metadata.
        stf_node: the soon-to-fail node whose chunks are repaired.
        optimize: run the swap-optimization phase (Lines 18-38).
        group_size: if set, partition the chunks into groups of this
            size and run Algorithm 1 per group (Section IV-D).
        seed: ordering randomization for tie-breaking; ``None`` keeps
            catalog order (deterministic).
        codec: the stripes' erasure code.  It names the chunks each
            repair reads (:meth:`~repro.ec.codec.ErasureCodec.\
repair_group`), per the paper's Section III extension to
            repair-efficient codes.  ``None`` means any ``k`` healthy
            holders of the stripe.
    """

    def __init__(
        self,
        cluster: StorageCluster,
        stf_node: NodeId,
        optimize: bool = True,
        group_size: Optional[int] = None,
        seed: Optional[int] = None,
        codec: Optional[ErasureCodec] = None,
    ):
        self.cluster = cluster
        self.stf_node = stf_node
        self.optimize = optimize
        self.group_size = group_size
        self.codec = codec
        self._rng = random.Random(seed) if seed is not None else None
        self.stats = Algorithm1Stats()
        self._helpers_cache: Dict[tuple, List[NodeId]] = {}

    # ------------------------------------------------------------------

    def find_all(
        self, chunks: Optional[Sequence[ChunkLocation]] = None
    ) -> List[List[ChunkLocation]]:
        """MAIN(C): return reconstruction sets covering every chunk."""
        if chunks is None:
            chunks = self.cluster.chunks_on_node(self.stf_node)
        chunks = list(chunks)
        if not chunks:
            return []
        self._k = self._uniform_k(chunks)
        if self._rng is not None:
            self._rng.shuffle(chunks)
        if self.group_size is not None and self.group_size > 0:
            sets: List[List[ChunkLocation]] = []
            for start in range(0, len(chunks), self.group_size):
                sets.extend(self._main(chunks[start : start + self.group_size]))
            return sets
        return self._main(chunks)

    def _main(self, chunks: List[ChunkLocation]) -> List[List[ChunkLocation]]:
        remaining = list(chunks)
        sets: List[List[ChunkLocation]] = []
        while remaining:
            found, remaining = self._find(remaining)
            if not found:
                # Unrepairable chunk (fewer than k healthy helpers):
                # surface it rather than looping forever.
                bad = remaining[0]
                raise ValueError(
                    f"chunk {bad} cannot be reconstructed: fewer than "
                    f"k={self._k} healthy helpers"
                )
            sets.append(found)
        return sets

    # ------------------------------------------------------------------

    def _find(
        self, chunks: List[ChunkLocation]
    ) -> tuple[List[ChunkLocation], List[ChunkLocation]]:
        """FIND(C): one reconstruction set plus the residual chunks."""
        matcher = IncrementalStripeMatcher(self._k)
        in_set: List[ChunkLocation] = []
        residual: List[ChunkLocation] = []
        for chunk in chunks:
            self.stats.match_calls += 1
            if matcher.try_add(chunk.stripe_id, self._helpers(chunk)):
                in_set.append(chunk)
            else:
                residual.append(chunk)
        self.stats.initial_sets_sizes.append(len(in_set))
        if not self.optimize:
            return in_set, residual
        # Swap-optimization phase (Lines 18-38).
        while True:
            best_gain: List[ChunkLocation] = []
            best_swap = None  # (Ci in R, Cj in C)
            for ci in in_set:
                base = self._matcher_without(in_set, ci)
                if base is None:
                    continue
                for cj in residual:
                    gained = self._swap_gain(base, cj, residual)
                    if len(gained) > len(best_gain):
                        best_gain = gained
                        best_swap = (ci, cj)
            if not best_swap or not best_gain:
                break
            ci, cj = best_swap
            self.stats.swaps_applied += 1
            in_set = [c for c in in_set if c is not ci] + [cj] + best_gain
            gained_ids = {id(c) for c in best_gain}
            residual = [
                c
                for c in residual
                if c is not cj and id(c) not in gained_ids
            ] + [ci]
        return in_set, residual

    def _matcher_without(
        self, in_set: List[ChunkLocation], ci: ChunkLocation
    ) -> Optional[IncrementalStripeMatcher]:
        """Matcher for R − {Ci}; shared base for every Cj candidate."""
        matcher = IncrementalStripeMatcher(self._k)
        for member in in_set:
            if member is ci:
                continue
            self.stats.match_calls += 1
            if not matcher.try_add(member.stripe_id, self._helpers(member)):
                return None  # cannot happen for a feasible R; be safe
        return matcher

    def _swap_gain(
        self,
        base: IncrementalStripeMatcher,
        cj: ChunkLocation,
        residual: List[ChunkLocation],
    ) -> List[ChunkLocation]:
        """Compute A_{i,j}: chunks addable to R ∪ {Cj} − {Ci}."""
        matcher = base.clone()
        self.stats.match_calls += 1
        if not matcher.try_add(cj.stripe_id, self._helpers(cj)):
            return []
        gained: List[ChunkLocation] = []
        for cl in residual:
            if cl is cj:
                continue
            self.stats.match_calls += 1
            if matcher.try_add(cl.stripe_id, self._helpers(cl)):
                gained.append(cl)
        return gained

    # ------------------------------------------------------------------

    def _helpers(self, chunk: ChunkLocation) -> List[NodeId]:
        """Healthy candidate helper nodes for a chunk."""
        key = (chunk.stripe_id, chunk.chunk_index)
        cached = self._helpers_cache.get(key)
        if cached is None:
            cached = helper_candidates(
                self.cluster, self.stf_node, chunk, self.codec
            )
            self._helpers_cache[key] = cached
        return cached

    def _uniform_k(self, chunks: Sequence[ChunkLocation]) -> int:
        ks = {repair_fanin(self.cluster, c, self.codec) for c in chunks}
        if len(ks) != 1:
            raise ValueError(
                f"Algorithm 1 requires a uniform code across the STF "
                f"chunks; found k values {sorted(ks)}"
            )
        return ks.pop()


def repair_fanin(
    cluster: StorageCluster,
    chunk: ChunkLocation,
    codec: Optional[ErasureCodec] = None,
) -> int:
    """Helpers a repair of ``chunk`` reads: the size of its codec repair
    group, else its stripe's ``k``."""
    group = None if codec is None else codec.repair_group(chunk.chunk_index)
    if group is None:
        return cluster.stripe(chunk.stripe_id).k
    return len(group)


def helper_candidates(
    cluster: StorageCluster,
    stf_node: NodeId,
    chunk: ChunkLocation,
    codec: Optional[ErasureCodec] = None,
) -> List[NodeId]:
    """Healthy nodes a repair of ``chunk`` may read from.

    The holders of the chunk's codec repair group, in the codec's
    order; with no group, every healthy holder of the stripe.
    """
    healthy = cluster.helper_nodes(chunk.stripe_id, exclude={stf_node})
    group = None if codec is None else codec.repair_group(chunk.chunk_index)
    if group is None:
        return healthy
    stripe = cluster.stripe(chunk.stripe_id)
    return [
        node for node in map(stripe.node_of, group) if node in healthy
    ]


def helper_assignment(
    cluster: StorageCluster,
    stf_node: NodeId,
    reconstruction_set: Sequence[ChunkLocation],
    codec: Optional[ErasureCodec] = None,
) -> Dict[int, List[NodeId]]:
    """Assign each stripe of a (feasible) set the helpers its repair
    reads (``k``, or the codec's repair group).

    Returns stripe_id -> helper node list; raises if the set is not
    actually reconstructable in parallel (which would indicate a bug in
    Algorithm 1 or a cluster mutation since it ran).
    """
    if not reconstruction_set:
        return {}
    matcher = IncrementalStripeMatcher(
        repair_fanin(cluster, reconstruction_set[0], codec)
    )
    for chunk in reconstruction_set:
        helpers = helper_candidates(cluster, stf_node, chunk, codec)
        if not matcher.try_add(chunk.stripe_id, helpers):
            raise ValueError(
                f"reconstruction set infeasible at chunk {chunk}; was the "
                "cluster mutated after Algorithm 1 ran?"
            )
    return matcher.assignment()
