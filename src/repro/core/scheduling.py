"""Algorithm 2: repair scheduling.

Given the reconstruction sets from Algorithm 1, decide per repair round
which chunks reconstruct and which migrate (Section IV-C):

* sort the sets by size, descending;
* each round reconstructs the largest unconsumed set ``R_l`` (so
  ``c_r = |R_l|``) and, in parallel, migrates ``c_m = t_r / t_m``
  chunks taken from the *smallest* sets — small sets have little
  parallelism and are better served by migration;
* when the remaining small sets fit within ``c_m``, the schedule ends.

The paper defines ``c_m = t_r / t_m``, which is fractional; an integer
chunk count needs a rounding rule (the design-choice ablation in
DESIGN.md §6.2).  ``"floor"`` guarantees migration never straggles
(``c_m * t_m <= t_r``) but degenerates to ``c_m = 0`` — i.e. pure
reconstruction — whenever ``t_r < t_m``, which happens in small
clusters where reconstruction sets shrink to one or two chunks.
``"nearest"`` (the default) lets migration overshoot a round by at most
``t_m / 2`` and keeps the methods coupled in that regime.

This split is static: ``t_r`` and ``t_m`` come from the cluster's
bandwidths.  At run time the coordinator re-solves it over the rounds
not yet executed, from the costs it measured, turning trailing
reconstructions into migrations when that is predicted to finish
sooner (``repro.runtime.coordinator._resplit``; DESIGN.md §6 item 2).
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..cluster.chunk import ChunkLocation, NodeId
from .analysis import AnalyticalModel
from .plan import ChunkRepairAction, RepairMethod


@dataclass
class RoundComposition:
    """Which chunks reconstruct and which migrate in one round."""

    reconstruction: List[ChunkLocation] = field(default_factory=list)
    migration: List[ChunkLocation] = field(default_factory=list)

    @property
    def cr(self) -> int:
        return len(self.reconstruction)

    @property
    def cm(self) -> int:
        return len(self.migration)


def migration_quota(
    model: AnalyticalModel, cr: int, rounding: str = "nearest"
) -> int:
    """The paper's c_m: migrated chunks per round, given c_r.

    ``c_m = t_r / t_m`` where ``t_r`` is the round's reconstruction
    time (with ``G = c_r`` for hot-standby repair) and ``t_m`` the
    per-chunk migration time.  ``rounding`` is ``"nearest"`` or
    ``"floor"``; see the module docstring for the trade-off.
    """
    if cr <= 0:
        return 0
    t_r = model.reconstruction_time(groups=cr)
    t_m = model.migration_time()
    ratio = t_r / t_m
    if rounding == "floor":
        return int(ratio)
    if rounding == "nearest":
        return int(ratio + 0.5)
    raise ValueError(f"unknown rounding mode {rounding!r}")


def schedule_repair_rounds(
    reconstruction_sets: Sequence[Sequence[ChunkLocation]],
    model: AnalyticalModel,
    seed: Optional[int] = None,
    rounding: str = "nearest",
) -> List[RoundComposition]:
    """Algorithm 2 proper.

    Args:
        reconstruction_sets: the sets ``R_1 … R_d`` from Algorithm 1
            (any order; this function sorts them).
        model: analytical model supplying ``t_m``/``t_r`` — it must be
            configured for the same scenario (scattered / hot-standby)
            the plan targets.
        seed: randomizes which chunks of the split set ``R_x`` migrate
            (the paper picks ``R'_x ⊂ R_x`` randomly); ``None`` takes
            them in ``R_x``'s own order, so the rounds are reproducible.
        rounding: integerization of c_m; see :func:`migration_quota`.

    Returns:
        Round compositions in execution order.  Every input chunk
        appears in exactly one round, exactly once.
    """
    rng = random.Random(seed) if seed is not None else None
    sets: List[List[ChunkLocation]] = [
        list(s) for s in reconstruction_sets if len(s) > 0
    ]
    if not sets:
        return []
    sets.sort(key=len, reverse=True)
    rounds: List[RoundComposition] = []
    l = 0
    u = len(sets) - 1
    while True:
        current = sets[l]
        quota = migration_quota(model, len(current), rounding=rounding)
        tail_sizes = [len(sets[i]) for i in range(l + 1, u + 1)]
        tail_total = sum(tail_sizes)
        if tail_total <= quota:
            migration = [c for i in range(l + 1, u + 1) for c in sets[i]]
            rounds.append(
                RoundComposition(reconstruction=list(current), migration=migration)
            )
            break
        # Find the largest x with sum_{i=x}^{u} |R_i| > quota.
        suffix = 0
        x = u
        for i in range(u, l, -1):
            suffix += len(sets[i])
            if suffix > quota:
                x = i
                break
        # Split R_x: migrate a random subset R'_x so the round's
        # migration volume is exactly the quota.
        after_x = sum(len(sets[i]) for i in range(x + 1, u + 1))
        need = quota - after_x
        split_set = sets[x]
        if rng is not None:
            rng.shuffle(split_set)
        migrated_part = split_set[:need]
        sets[x] = split_set[need:]
        migration = migrated_part + [
            c for i in range(x + 1, u + 1) for c in sets[i]
        ]
        rounds.append(
            RoundComposition(reconstruction=list(current), migration=migration)
        )
        l += 1
        u = x
        if l > u:  # defensive; cannot happen (x >= l+1 by construction)
            break
    # Any sets strictly between the final l and u were consumed; assert
    # full coverage in debug builds (tests cover this invariant too).
    return rounds


def schedule_reconstruction_only(
    reconstruction_sets: Sequence[Sequence[ChunkLocation]],
) -> List[RoundComposition]:
    """The reconstruction-only baseline: one round per set, no migration.

    This corresponds to the paper's conventional reactive repair — it
    still uses Algorithm 1's sets for parallelism, but never migrates.
    """
    return [
        RoundComposition(reconstruction=list(s))
        for s in sorted(
            (s for s in reconstruction_sets if len(s) > 0), key=len, reverse=True
        )
    ]


def schedule_migration_only(
    chunks: Sequence[ChunkLocation],
) -> List[RoundComposition]:
    """The migration-only baseline: everything migrates in one batch.

    Migration is serialized by the STF node's bandwidth regardless of
    round structure, so a single round suffices.
    """
    if not chunks:
        return []
    return [RoundComposition(migration=list(chunks))]


def _is_chain(action: ChunkRepairAction) -> bool:
    return action.method is RepairMethod.RECONSTRUCTION and action.pipelined


def ingress_duties(
    actions: Iterable[ChunkRepairAction],
) -> Dict[NodeId, int]:
    """Ingress streams each node would carry in a round, heads included.

    One chunk-sized stream enters a node's NIC per duty: a migration or
    chained reconstruction it is the destination of (one stream), a
    star reconstruction it is the destination of (one per helper), and
    every chain it is a helper of.  The last is the count *before* any
    chain spares its head — the one position that receives nothing —
    so for a chain's own helpers it reads "streams this node ingests
    unless this chain makes it the head", which is exactly what
    :func:`order_chain` needs to pick that head.
    :func:`ingress_streams` gives the count that remains afterwards.
    """
    duties: Dict[NodeId, int] = {}
    for action in actions:
        chained = _is_chain(action)
        fan_in = 1 if chained else len(action.sources)
        duties[action.destination] = duties.get(action.destination, 0) + fan_in
        if chained:
            for node in action.sources:
                duties[node] = duties.get(node, 0) + 1
    return duties


def order_chain(
    helpers: Sequence[NodeId],
    weights: Optional[Dict[NodeId, float]] = None,
    duties: Optional[Dict[NodeId, int]] = None,
) -> List[NodeId]:
    """Order a repair chain's helpers by what their ingress is worth.

    A sliced chain streams at the rate of its slowest hop wherever that
    hop sits, and a hop's ingress rate is its NIC's link scale divided
    by the streams sharing that NIC.  The head is the one position with
    no ingress at all, so the helper whose ingress is worth least —
    ``scale / streams``, lowest first — goes there: a node that also
    receives a repaired chunk or a sibling chain's partial sums this
    round stops splitting its NIC, and a degraded link uploads from the
    start of the pipeline, which shortens its fill latency (position
    does not change a slow link's steady-state rate).

    ``weights`` maps node -> link scale in (0, 1]; ``duties`` is the
    round's :func:`ingress_duties`.  Missing nodes run at full scale
    with the chain itself as their only stream.  The sort is stable, so
    with no slowdowns and no shared ingress the chain comes back in
    plan order.
    """
    weights = weights or {}
    duties = duties or {}
    return sorted(
        helpers,
        key=lambda node: weights.get(node, 1.0) / (duties.get(node) or 1),
    )


def ingress_streams(
    actions: Iterable[ChunkRepairAction],
    weights: Optional[Dict[NodeId, float]] = None,
) -> Dict[NodeId, int]:
    """Per-node ingress streams of a round once every chain has a head.

    :func:`ingress_duties` minus the stream each chain's
    :func:`order_chain` head is spared.  The largest value is the
    factor by which the busiest NIC is shared: 1 when no node ingests
    two streams, 2 when some chain has two destinations among its
    helpers (only one can be its head), ``k`` for a star destination.
    """
    actions = list(actions)
    duties = ingress_duties(actions)
    streams = dict(duties)
    for action in actions:
        if _is_chain(action):
            streams[order_chain(action.sources, weights, duties)[0]] -= 1
    return streams


class BudgetTimeout(RuntimeError):
    """A budget acquisition did not complete within its timeout."""


class HelperBudget:
    """Global arbiter for helper-node and NIC stream budgets.

    Concurrent repairs (shard coordinators, or several STF repairs)
    would otherwise stampede the same helper nodes: two rounds reading
    from one helper halve each other's effective bandwidth and blow
    both deadlines.  The budget grants each round its helper and
    destination *node slots* before any command is issued:

    * at most ``per_node`` concurrent repair streams may hold any one
      node (1 = a helper serves one round at a time, the paper's
      free-node assumption);
    * at most ``total_streams`` node slots may be held cluster-wide
      (the aggregate NIC budget; ``None`` = unbounded).

    Oversubscription degrades gracefully: requests queue and are
    admitted in **deadline-priority order** (smallest ``priority``
    first, FIFO within ties) instead of failing.  A strict queue —
    nobody overtakes a higher-priority waiter even if its own nodes are
    free — keeps the tightest-deadline round from starving.

    Thread-safe; acquisition blocks on a condition variable and may
    invoke a ``renew`` callback each wait tick so a queued coordinator
    keeps renewing its lease.
    """

    def __init__(
        self,
        per_node: int = 1,
        total_streams: Optional[int] = None,
        poll_interval: float = 0.05,
    ):
        if per_node < 1:
            raise ValueError("per_node must be >= 1")
        if total_streams is not None and total_streams < 1:
            raise ValueError("total_streams must be >= 1 (or None)")
        self.per_node = per_node
        self.total_streams = total_streams
        self.poll_interval = poll_interval
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._holds: Dict[NodeId, int] = {}
        self._held_total = 0
        self._waiters: List[tuple] = []  # (priority, seq) entries
        self._seq = itertools.count()
        #: telemetry: grants, waits (grants that had to queue), peak queue
        self.grants = 0
        self.waits = 0
        self.max_queue = 0

    def _fits(self, nodes: Iterable[NodeId]) -> bool:
        nodes = list(nodes)
        if self.total_streams is not None:
            if self._held_total + len(nodes) > self.total_streams:
                return False
        return all(self._holds.get(n, 0) < self.per_node for n in nodes)

    def acquire(
        self,
        nodes: Iterable[NodeId],
        priority: float = 0.0,
        timeout: Optional[float] = None,
        renew: Optional[Callable[[], None]] = None,
    ) -> None:
        """Block until every node slot is granted.

        Args:
            nodes: helper + destination nodes the round touches.
            priority: deadline-style priority; *smaller is served
                first* when the budget is oversubscribed.
            timeout: optional bound; :class:`BudgetTimeout` on expiry
                (the request leaves the queue — nothing is held).
            renew: optional liveness callback invoked on every wait
                tick (lease renewal for queued shard coordinators).
        """
        want = sorted(set(nodes))
        ticket = (priority, next(self._seq))
        expires = None if timeout is None else time.monotonic() + timeout
        with self._available:
            queued = False
            self._waiters.append(ticket)
            self._waiters.sort()
            self.max_queue = max(self.max_queue, len(self._waiters))
            try:
                while not (
                    self._waiters[0] == ticket and self._fits(want)
                ):
                    queued = True
                    if renew is not None:
                        renew()
                    wait = self.poll_interval
                    if expires is not None:
                        remaining = expires - time.monotonic()
                        if remaining <= 0:
                            raise BudgetTimeout(
                                f"budget not granted within {timeout}s "
                                f"for nodes {want}"
                            )
                        wait = min(wait, remaining)
                    self._available.wait(timeout=wait)
                for node in want:
                    self._holds[node] = self._holds.get(node, 0) + 1
                self._held_total += len(want)
                self.grants += 1
                if queued:
                    self.waits += 1
            finally:
                self._waiters.remove(ticket)
                self._available.notify_all()

    def release(self, nodes: Iterable[NodeId]) -> None:
        """Return previously acquired node slots."""
        want = sorted(set(nodes))
        with self._available:
            for node in want:
                held = self._holds.get(node, 0)
                if held <= 1:
                    self._holds.pop(node, None)
                else:
                    self._holds[node] = held - 1
                self._held_total -= 1 if held else 0
            self._available.notify_all()

    @contextmanager
    def round(
        self,
        nodes: Iterable[NodeId],
        priority: float = 0.0,
        timeout: Optional[float] = None,
        renew: Optional[Callable[[], None]] = None,
    ):
        """Context manager: hold the round's node slots for its body."""
        want = sorted(set(nodes))
        self.acquire(want, priority=priority, timeout=timeout, renew=renew)
        try:
            yield
        finally:
            self.release(want)

    def held(self, node: NodeId) -> int:
        """Streams currently holding ``node`` (introspection/tests)."""
        with self._lock:
            return self._holds.get(node, 0)
