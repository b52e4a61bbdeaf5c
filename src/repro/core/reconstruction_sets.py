"""Algorithm 1: finding reconstruction sets.

A *reconstruction set* is a group of STF-node chunks that can all be
reconstructed in the same repair round: their stripes can be assigned
the helpers each repair reads, with every healthy node serving at most
one chunk in the round (Section IV-B).  Which chunks a repair may read
and how many of them it reads is the stripes' codec's answer,
:meth:`~repro.ec.codec.ErasureCodec.repair_recipe`: any ``k`` healthy
holders for RS, an LRC's ``k' = k/l`` local-group members (the paper's
Section III extension), any ``d`` holders for MSR.
:func:`repair_reads` is the one place that maps a recipe onto nodes;
with no codec the stripes' ``rs(n, k)`` answers (:func:`stripes_codec`).
One finder runs on chunks of one repair fan-in.

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

Three skips answer MATCH calls whose answer is already known, so FIND
returns exactly the paper's sets, in the same order, at a fraction of
the cost (a whole 10^4-chunk node in seconds):

* Count exits.  A set uses ``k`` distinct helpers per chunk out of the
  ``pool`` distinct candidate helpers of FIND's chunks, so it holds at
  most ``cap = pool // k`` chunks.  The initial scan stops at ``cap``;
  the swap phase is skipped when ``|R| = cap`` or the residual is
  empty; a gain scan stops at ``cap``; and the (Ci, Cj) search stops
  once the best gain reaches ``cap − |R|``, since only a strictly
  larger gain replaces it.
* Monotonicity.  Every residual chunk is infeasible with R, and a
  chunk that does not fit ``R − {Ci}`` fits no superset of it.  So Cj
  and every member of ``A_{i,j}`` come from ``F_i``, the residual
  chunks that fit ``R − {Ci}`` alone, scanned in residual order; a Ci
  whose ``|F_i| − 1`` cannot beat the best gain is skipped.
* The matcher rejects a stripe before its augmenting DFSs when fewer
  than ``k`` unmatched nodes are reachable by alternating paths
  (:meth:`~repro.core.matching.IncrementalStripeMatcher.try_add`).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.chunk import ChunkLocation, NodeId
from ..cluster.cluster import StorageCluster
from ..ec.codec import ErasureCodec
from ..ec.reed_solomon import ReedSolomonCodec
from .matching import IncrementalStripeMatcher


@dataclass
class Algorithm1Stats:
    """Bookkeeping for the Experiment B.5 microbenchmarks."""

    #: MATCH probes that actually ran a matcher (``try_add`` or
    #: ``would_fit``).  The probes the count exits and the swap-phase
    #: pruning answer without a matcher are not counted.
    match_calls: int = 0
    #: helper nodes visited by those probes' searches
    #: (:attr:`IncrementalStripeMatcher.steps`): Algorithm 1's matcher
    #: work, a count that does not depend on the host's speed.
    matcher_steps: int = 0
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
        codec: the stripes' erasure code, whose repair recipe names
            the chunks each repair reads, per the paper's Section III
            extension to repair-efficient codes.  ``None`` reads the
            stripes' ``rs(n, k)`` recipe: any ``k`` healthy holders.
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
        self._reads: Dict[tuple, Tuple[int, List[NodeId]]] = {}

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
        self._codec = stripes_codec(self.cluster, chunks, self.codec)
        self._k = self._uniform_fanin(chunks)
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
        # How many remaining chunks name each node as a candidate
        # helper: FIND's pool is the number of nodes named at all.
        named = Counter(n for chunk in chunks for n in self._helpers(chunk))
        sets: List[List[ChunkLocation]] = []
        while remaining:
            found, remaining = self._find(remaining, len(named))
            if not found:
                # Unrepairable chunk (fewer than k healthy helpers):
                # surface it rather than looping forever.
                bad = remaining[0]
                raise ValueError(
                    f"chunk {bad} cannot be reconstructed: fewer than "
                    f"k={self._k} healthy helpers"
                )
            named.subtract(n for chunk in found for n in self._helpers(chunk))
            named = +named
            sets.append(found)
        return sets

    # ------------------------------------------------------------------

    def _find(
        self, chunks: List[ChunkLocation], pool: int
    ) -> tuple[List[ChunkLocation], List[ChunkLocation]]:
        """FIND(C): one reconstruction set plus the residual chunks.

        ``pool`` is the number of distinct candidate helpers of
        ``chunks``; no set can hold more than ``pool // k`` of them.
        """
        cap = pool // self._k
        matcher = IncrementalStripeMatcher(self._k)
        in_set: List[ChunkLocation] = []
        residual: List[ChunkLocation] = []
        for index, chunk in enumerate(chunks):
            if len(in_set) == cap:
                # Fewer than k helpers are unmatched: nothing else fits.
                residual.extend(chunks[index:])
                break
            if self._probe(matcher, chunk, keep=True):
                in_set.append(chunk)
            else:
                residual.append(chunk)
        self.stats.initial_sets_sizes.append(len(in_set))
        if not self.optimize:
            return in_set, residual
        # Swap-optimization phase (Lines 18-38).  Every residual chunk
        # is infeasible with R, and a chunk that does not fit R − {Ci}
        # fits no superset of it, so Cj and A_{i,j} come from F_i, the
        # residual chunks that fit R − {Ci} alone.  A swap gains at
        # most cap − |R| chunks, and only a strictly larger gain
        # replaces the best one, so the search stops once it is reached.
        while residual and len(in_set) < cap:
            limit = cap - len(in_set)
            best_gain: List[ChunkLocation] = []
            best_swap = None  # (Ci in R, Cj in C)
            for ci in in_set:
                base = self._matcher_without(in_set, ci)
                if base is None:
                    continue
                fits = [c for c in residual if self._probe(base, c)]
                if len(fits) - 1 <= len(best_gain):
                    continue
                for cj in fits:
                    gained = self._swap_gain(base, cj, fits, cap)
                    if len(gained) > len(best_gain):
                        best_gain = gained
                        best_swap = (ci, cj)
                        if len(best_gain) == limit:
                            break
                if len(best_gain) == limit:
                    break
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

    def _probe(
        self,
        matcher: IncrementalStripeMatcher,
        chunk: ChunkLocation,
        keep: bool = False,
    ) -> bool:
        """MATCH(R, chunk) on ``matcher``; the chunk stays only if
        ``keep`` and it fits."""
        self.stats.match_calls += 1
        steps = matcher.steps
        helpers = self._helpers(chunk)
        if keep:
            fits = matcher.try_add(chunk.stripe_id, helpers)
        else:
            fits = matcher.would_fit(chunk.stripe_id, helpers)
        self.stats.matcher_steps += matcher.steps - steps
        return fits

    def _matcher_without(
        self, in_set: List[ChunkLocation], ci: ChunkLocation
    ) -> Optional[IncrementalStripeMatcher]:
        """Matcher for R − {Ci}; shared base for every Cj candidate."""
        matcher = IncrementalStripeMatcher(self._k)
        for member in in_set:
            if member is not ci and not self._probe(matcher, member, keep=True):
                return None  # cannot happen for a feasible R; be safe
        return matcher

    def _swap_gain(
        self,
        base: IncrementalStripeMatcher,
        cj: ChunkLocation,
        fits: List[ChunkLocation],
        cap: int,
    ) -> List[ChunkLocation]:
        """Compute A_{i,j}: chunks addable to R ∪ {Cj} − {Ci}.

        ``fits`` is F_i, which holds ``cj``; the scan stops once the
        set has ``cap`` members.
        """
        matcher = base.clone()
        gained: List[ChunkLocation] = []
        if self._probe(matcher, cj, keep=True):
            for cl in fits:
                if len(matcher) == cap:
                    break
                if cl is not cj and self._probe(matcher, cl, keep=True):
                    gained.append(cl)
        return gained

    # ------------------------------------------------------------------

    def _read(self, chunk: ChunkLocation) -> Tuple[int, List[NodeId]]:
        key = (chunk.stripe_id, chunk.chunk_index)
        read = self._reads.get(key)
        if read is None:
            read = self._reads[key] = repair_reads(
                self.cluster, self.stf_node, chunk, self._codec
            )
        return read

    def _helpers(self, chunk: ChunkLocation) -> List[NodeId]:
        """Healthy candidate helper nodes for a chunk."""
        return self._read(chunk)[1]

    def _uniform_fanin(self, chunks: Sequence[ChunkLocation]) -> int:
        fanins = {self._read(c)[0] for c in chunks}
        if len(fanins) != 1:
            raise ValueError(
                f"Algorithm 1 runs on chunks of one repair fan-in; found "
                f"{sorted(fanins)}"
            )
        return fanins.pop()


def stripes_codec(
    cluster: StorageCluster,
    chunks: Sequence[ChunkLocation],
    codec: Optional[ErasureCodec] = None,
) -> ErasureCodec:
    """The erasure code of the chunks' stripes: ``codec``, else their
    ``rs(n, k)``.

    Raises:
        ValueError: the stripes differ in ``(n, k)``, or are not the
            codec's ``(n, k)``.
    """
    codes = sorted(
        {(cluster.stripe(c.stripe_id).n, cluster.stripe(c.stripe_id).k)
         for c in chunks}
    )
    if len(codes) != 1:
        raise ValueError(
            f"planning requires a uniform code over the STF chunks; "
            f"found (n, k) values {codes}"
        )
    codec = codec or ReedSolomonCodec(*codes[0])
    if codes != [(codec.n, codec.k)]:
        raise ValueError(
            f"the STF chunks' stripes are (n, k) {codes} but the codec is "
            f"({codec.n}, {codec.k})"
        )
    return codec


def repair_reads(
    cluster: StorageCluster,
    stf_node: NodeId,
    chunk: ChunkLocation,
    codec: ErasureCodec,
) -> Tuple[int, List[NodeId]]:
    """How many helpers a repair of ``chunk`` reads, and the healthy
    nodes it may read them from.

    One read of the codec's repair recipe.  A repair that reads every
    candidate lists their holders in the codec's order; one that picks
    ``fanin`` of them lists the holders in node order, the order
    Algorithm 1 has always scanned a stripe's helpers in.
    """
    recipe = codec.repair_recipe(chunk.chunk_index)
    healthy = set(cluster.helper_nodes(chunk.stripe_id, exclude={stf_node}))
    stripe = cluster.stripe(chunk.stripe_id)
    nodes = [n for n in map(stripe.node_of, recipe.candidates) if n in healthy]
    if recipe.fanin < len(recipe.candidates):
        nodes.sort()
    return recipe.fanin, nodes


def helper_assignment(
    cluster: StorageCluster,
    stf_node: NodeId,
    reconstruction_set: Sequence[ChunkLocation],
    codec: Optional[ErasureCodec] = None,
) -> Dict[int, List[NodeId]]:
    """Assign each stripe of a (feasible) set the helpers its repair
    reads (the codec's recipe; ``rs(n, k)``'s with no codec).

    Returns stripe_id -> helper node list; raises if the set is not
    actually reconstructable in parallel (which would indicate a bug in
    Algorithm 1 or a cluster mutation since it ran).
    """
    if not reconstruction_set:
        return {}
    codec = stripes_codec(cluster, reconstruction_set, codec)
    reads = [
        repair_reads(cluster, stf_node, chunk, codec)
        for chunk in reconstruction_set
    ]
    matcher = IncrementalStripeMatcher(reads[0][0])
    for chunk, (_, helpers) in zip(reconstruction_set, reads):
        if not matcher.try_add(chunk.stripe_id, helpers):
            raise ValueError(
                f"reconstruction set infeasible at chunk {chunk}; was the "
                "cluster mutated after Algorithm 1 ran?"
            )
    return matcher.assignment()
