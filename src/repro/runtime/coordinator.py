"""The FastPR coordinator (Section V): a pure state machine and its shell.

Deployed alongside the NameNode in the paper; here it drives the
emulated testbed.  Per repair round it sends every destination a
:class:`ReceiveCommand` (with GF recovery coefficients) and every
source a :class:`SendCommand`, then supervises the round to completion:

* **deadlines** per round are derived from the Section III cost model
  (``deadline_margin`` x the estimated round time, floored at
  ``min_deadline``) instead of a magic constant;
* on a missed deadline or a NACK the coordinator **probes** the
  involved nodes (Ping/Pong, backed by passive heartbeats) to separate
  the slow from the dead;
* **transient** stalls (lost or corrupted packets, spurious NACKs) get
  bounded retries with exponential backoff — every reissue bumps the
  action's ``attempt`` so stale traffic cannot contaminate the fresh
  assembly;
* **permanent** failures are replanned via
  :func:`repro.core.planner.heal_action`: if the STF node dies
  mid-repair its unmigrated chunks fall back to pure reconstruction
  (the paper's hybrid -> reconstruction fallback), a dead helper is
  replaced by a surviving stripe peer, a dead destination is re-chosen;
* Algorithm 2's split is **re-solved at run time**: every finished
  round folds its measured reconstruction and migration costs into
  estimates the coordinator keeps, and before each round the trailing
  reconstructions whose migration from the STF node is predicted to
  finish the unexecuted rounds sooner are turned into migrations
  (:func:`_resplit`; DESIGN.md §6 item 2).

The run fails loudly — :class:`RepairTimeoutError` names the pending
action keys, :class:`RepairFailedError` the unrecoverable one — rather
than hanging on a bare ``inbox.get``.

What the coordinator decides is :func:`step`, ``step(state, event,
now) -> (commands, records)`` over one :class:`CoordinatorState`: agent
messages, :class:`Tick` (a deadline the state holds is due) and
journal records are its events, and it reads no clock, never sleeps
and does no I/O.  How it waits is :class:`Coordinator`, the shell: it
alone owns the inbox, the network, the journal, the helper budget,
lease renewal and the clock, and appends the records of each step
before it sends the step's commands (write-ahead).  Crash recovery is
the same fold: :meth:`Coordinator.recover` feeds a crashed run's
journal through :func:`step`, and :meth:`Coordinator.resume` runs an
inventory exchange (which fences the old epoch) and then the loop
:meth:`Coordinator.execute` runs, re-issuing only unfinished actions.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
    get_args,
)

from ..cluster.chunk import NodeId, StripeId
from ..cluster.cluster import StorageCluster
from ..core.plan import (
    ChunkRepairAction,
    RepairMethod,
    RepairPlan,
    RepairRound,
    RepairScenario,
)
from ..core.planner import UnrecoverableChunkError, heal_action, restored_by
from ..core.scheduling import (
    HelperBudget,
    ingress_duties,
    ingress_streams,
    order_chain,
)
from ..ec.codec import ErasureCodec
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Span, Tracer
from .config import DEFAULT_CONFIG, RuntimeConfig
from .journal import (
    ActionCompleted,
    JournalError,
    JournalRecord,
    PlanCommitted,
    RepairFinished,
    RepairJournal,
    RoundCompleted,
    RoundStarted,
)
from .messages import (
    ActionKey,
    Heartbeat,
    InventoryQuery,
    InventoryReply,
    Ping,
    Pong,
    ReceiveCommand,
    RepairAck,
    SendCommand,
)
from .transport import Network

#: conventional coordinator node id (never a storage node)
COORDINATOR_ID: NodeId = -1


def shard_coordinator_id(shard: int) -> NodeId:
    """Endpoint id of shard ``shard``'s coordinator: ``-(shard + 1)``.

    Shard 0 keeps :data:`COORDINATOR_ID`, so a single-coordinator run
    is exactly the one-shard case.  The id is the shard's stable
    identity: a takeover re-attaches at the *same* endpoint under a
    bumped epoch, and the existing fencing does the rest.
    """
    return -(shard + 1)


class RepairTimeoutError(RuntimeError):
    """Retries exhausted with actions still pending; names them."""

    def __init__(self, pending: Sequence[ActionKey], detail: str = ""):
        self.pending = sorted(pending)
        shown = ", ".join(map(str, self.pending[:8]))
        if len(self.pending) > 8:
            shown += f", ... ({len(self.pending)} total)"
        message = f"repair timed out with pending actions: {shown}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class RepairFailedError(RuntimeError):
    """A chunk became unrepairable (e.g. too many nodes died)."""


@dataclass
class RuntimeResult:
    """Wall-clock outcome of executing a plan on the emulated testbed."""

    total_time: float
    round_times: List[float] = field(default_factory=list)
    chunks_repaired: int = 0
    bytes_transferred: int = 0
    #: bounded reissues after transient stalls or NACKs
    retries: int = 0
    #: healing waves after a node was declared dead
    replans: int = 0
    #: NACKs received from agents
    nacks: int = 0
    #: migrations converted to reconstructions (STF died mid-repair)
    converted_migrations: int = 0
    #: planned reconstructions run as migrations by the run-time
    #: re-split; not fault handling, so not part of :attr:`degraded`
    resplit_chunks: int = 0
    #: nodes declared permanently dead during the run
    dead_nodes: List[NodeId] = field(default_factory=list)
    #: final (possibly healed) version of every executed action —
    #: includes actions recovered as already-complete on a resumed run
    executed_actions: List[ChunkRepairAction] = field(default_factory=list)
    #: actions found already durably complete when resuming (journal
    #: or agent inventory); ``chunks_repaired`` counts only this run's
    recovered_chunks: int = 0

    @property
    def time_per_chunk(self) -> float:
        if self.chunks_repaired == 0:
            return 0.0
        return self.total_time / self.chunks_repaired

    @property
    def degraded(self) -> bool:
        """True if the repair needed any fault handling to finish."""
        return bool(self.retries or self.replans or self.dead_nodes or self.nacks)


# ----------------------------------------------------------------------
# the state machine
# ----------------------------------------------------------------------

#: one message for one endpoint: ``(node id, message)``
Command = Tuple[NodeId, object]
#: one step's output: send the commands after appending the records
Out = Tuple[List[Command], List[JournalRecord]]
#: weight of a finished round's measurement in the cost estimates
COST_WEIGHT = 0.5


@dataclass(frozen=True)
class Tick:
    """``now`` reached :meth:`CoordinatorState.wake_at`."""


@dataclass(frozen=True)
class Start:
    """Commit the plan; a state folded from a journal first asks
    ``nodes`` (every attached agent) for their inventories."""

    nodes: Tuple[NodeId, ...] = ()


@dataclass(frozen=True)
class NextRound:
    """Issue the next round; the shell holds its helper budget."""


@dataclass(frozen=True)
class Probe:
    """Ping ``nodes`` outside any round; whoever stays silent is dead."""

    nodes: Tuple[NodeId, ...]


@dataclass
class Window:
    """An outstanding ping or inventory query of ``nodes``."""

    nonce: int
    expires: float
    reason: str = ""
    nodes: Set[NodeId] = field(default_factory=set)
    #: the stalled actions a ping decides on
    keys: Set[ActionKey] = field(default_factory=set)
    #: node -> its reply (the stripes of an inventory reply)
    replies: Dict[NodeId, Tuple[StripeId, ...]] = field(default_factory=dict)


@dataclass
class CoordinatorState:
    """Everything :func:`step` decides on; one per run, mutated in place."""

    plan: Optional[RepairPlan]
    packet_size: int
    epoch: int
    cluster: StorageCluster
    codec: ErasureCodec
    config: RuntimeConfig = DEFAULT_CONFIG
    #: endpoint every command names as ``reply_to``
    coordinator_id: NodeId = COORDINATOR_ID
    #: the fault plan's slow-NIC scales (node -> scale in (0, 1])
    link_scales: Dict[NodeId, float] = field(default_factory=dict)
    nonces: Iterator[int] = field(default_factory=lambda: itertools.count(1))
    #: folded from a journal: Start reconciles with agent inventories
    recovering: bool = False
    committed: bool = False
    finished: bool = False
    #: durably complete actions: key -> executed (possibly healed) action
    done: Dict[ActionKey, ChunkRepairAction] = field(default_factory=dict)
    #: index into ``plan.rounds``: the round in flight, else the next
    round: int = 0
    in_round: bool = False
    #: the round's remaining actions: key -> current (healed) action
    actions: Dict[ActionKey, ChunkRepairAction] = field(default_factory=dict)
    pending: Set[ActionKey] = field(default_factory=set)
    attempts: Dict[ActionKey, int] = field(default_factory=dict)
    retries: Dict[ActionKey, int] = field(default_factory=dict)
    #: when each action waiting out its retry backoff is reissued
    reissue_at: Dict[ActionKey, float] = field(default_factory=dict)
    deadline: float = float("inf")
    dead: Set[NodeId] = field(default_factory=set)
    #: link scales halved each time a node survives a stall's probe, so
    #: chain ordering demotes flaky-but-alive helpers to chain heads
    #: (the shell hands every run its coordinator's one dict)
    observed_scales: Dict[NodeId, float] = field(default_factory=dict)
    probe: Optional[Window] = None
    inventory: Optional[Window] = None
    #: the rounds as they run: the plan's, until :func:`_resplit`
    #: moves reconstructions into earlier rounds as migrations
    schedule: List[RepairRound] = field(default_factory=list)
    #: seconds per chunk byte by method: the slowest reconstruction of
    #: a round, and the STF node's time per migration (the shell hands
    #: every run its coordinator's one dict)
    costs: Dict[RepairMethod, float] = field(default_factory=dict)
    #: whether this run may re-split (shard coordinators may not)
    resplit: bool = True
    #: when the round in flight was issued, and each of its ACKs
    issued_at: float = 0.0
    acked_at: Dict[ActionKey, float] = field(default_factory=dict)
    #: ingress streams of the round's busiest NIC
    busiest: int = 0
    #: chains issued with a node still ingesting more than one stream
    shared_chains: int = 0
    #: what the run did so far; the shell adds the timings
    result: RuntimeResult = field(default_factory=lambda: RuntimeResult(0.0))

    def upcoming(self) -> List[ChunkRepairAction]:
        """The next round's actions not yet complete (as scheduled)."""
        return _undone(self, self.schedule[self.round].actions())

    def deadline_armed(self) -> bool:
        """The round's ACK deadline is suspended while a probe or a
        backoff is outstanding; the reissue that ends either re-arms it."""
        return self.in_round and self.probe is None and not self.reissue_at

    def wake_at(self) -> float:
        """When :func:`step` next needs a :class:`Tick`."""
        times = [w.expires for w in (self.probe, self.inventory) if w]
        times.extend(self.reissue_at.values())
        if self.deadline_armed():
            times.append(self.deadline)
        return min(times, default=float("inf"))

    def estimate(self, actions: Iterable[ChunkRepairAction]) -> float:
        """Cost-model-derived ACK deadline for a batch of actions.

        Sums the Eq. (4)/(5) per-chunk estimates (reads + transfers +
        write) — a deliberate over-approximation of the round's
        critical path — then applies the configured margin and floor.
        A node is only declared *suspect* after this budget elapses,
        so the estimate errs long, never short.
        """
        cfg = self.config
        chunk = self.cluster.chunk_size
        disk_time = chunk / (self.cluster.disk_bandwidth or float("inf"))
        net_time = chunk / (self.cluster.network_bandwidth or float("inf"))
        estimate = 0.0
        for action in actions:
            if action.method is RepairMethod.MIGRATION:
                estimate += 2 * disk_time + net_time
            else:
                estimate += 2 * disk_time + len(action.sources) * net_time
        return max(cfg.min_deadline, cfg.deadline_margin * estimate)

    def chain_weights(self) -> Dict[NodeId, float]:
        """Effective link scale per node, for :func:`order_chain`: the
        fault plan's slow-NIC scales (the numbers the injector applies
        and the cost model prices) times the observed degradation.
        Nodes absent from the result run at full speed."""
        weights = dict(self.link_scales)
        for node, scale in self.observed_scales.items():
            weights[node] = weights.get(node, 1.0) * scale
        return weights


def step(state: CoordinatorState, event: object, now: float) -> Out:
    """Apply one event to ``state``; returns ``(commands, records)``.

    The caller appends ``records`` to the journal before it sends
    ``commands``.  ``now`` is the caller's clock; nothing here reads
    one, sleeps or does I/O.

    Raises:
        RepairTimeoutError: an action exhausted ``max_retries``.
        RepairFailedError: a dead node left an action unrepairable.
    """
    out: Out = ([], [])
    if isinstance(event, RepairAck):
        _on_ack(state, event, now, out)
    elif isinstance(event, (Pong, Heartbeat, InventoryReply)):
        _on_reply(state, event, now, out)
    elif isinstance(event, Tick):
        _on_tick(state, now, out)
    elif isinstance(event, NextRound):
        _start_round(state, now, out)
    elif isinstance(event, Start) and state.recovering:
        expires = now + state.config.inventory_timeout
        window = Window(next(state.nonces), expires, nodes=set(event.nodes))
        state.inventory = window
        for node in sorted(window.nodes):
            query = InventoryQuery(
                state.epoch, window.nonce, reply_to=state.coordinator_id
            )
            out[0].append((node, query))
        if not window.nodes:
            _reconcile(state, out)
    elif isinstance(event, Start):
        _commit(state, out)
    elif isinstance(event, Probe):
        _ping(state, set(event.nodes), set(), "probe", now, out)
    elif isinstance(event, get_args(JournalRecord)):
        _replay(state, event)
    else:
        raise RuntimeError(f"coordinator got unexpected {event!r}")
    return out


def _replay(state: CoordinatorState, record: JournalRecord) -> None:
    """Fold one journal record of a crashed run into ``state``."""
    state.epoch = max(state.epoch, record.epoch)
    if isinstance(record, PlanCommitted):
        state.plan = RepairPlan.from_dict(record.plan)
        state.packet_size = record.packet_size
        state.recovering = True
    elif isinstance(record, ActionCompleted):
        action = ChunkRepairAction.from_dict(record.action)
        state.done[(action.stripe_id, action.chunk_index)] = action
    elif isinstance(record, RepairFinished):
        state.finished = True


def _on_reply(state: CoordinatorState, reply, now: float, out: Out) -> None:
    """Pongs and heartbeats count inside a probe, inventory replies
    inside the inventory window; anything else arrived late."""
    inventory = isinstance(reply, InventoryReply)
    window = state.inventory if inventory else state.probe
    if (
        window is None
        or reply.node_id not in window.nodes
        or getattr(reply, "nonce", window.nonce) != window.nonce
    ):
        return
    window.replies[reply.node_id] = getattr(reply, "stripes", ())
    if window.replies.keys() < window.nodes:
        return
    if inventory:
        _reconcile(state, out)
    else:
        _conclude_probe(state, now, out)


def _reconcile(state: CoordinatorState, out: Out) -> None:
    """Inventory in (or timed out: crashed nodes are absent): an action
    is complete iff journaled or its destination stores the chunk."""
    replies, state.inventory = state.inventory.replies, None
    for action in state.plan.actions():
        key = (action.stripe_id, action.chunk_index)
        if action.stripe_id in replies.get(action.destination, ()):
            # Destinations never previously store a chunk of the stripe
            # (plan invariant) and promotion is atomic, so presence
            # proves the action completed durably.
            state.done.setdefault(key, action)
    _commit(state, out)


def _commit(state: CoordinatorState, out: Out) -> None:
    state.committed = True
    _count_recovered(state)
    state.result.chunks_repaired = state.plan.total_chunks - len(state.done)
    plan = state.plan.to_dict()
    out[1].append(PlanCommitted(state.epoch, plan, state.packet_size))
    # The journal keeps the plan; the split is re-derived, never logged.
    state.schedule = [
        RepairRound(r.index, list(r.reconstructions), list(r.migrations))
        for r in state.plan.rounds
    ]
    _resplit(state)
    _finish_if_done(state, out)


def _count_recovered(state: CoordinatorState) -> None:
    result = state.result
    result.recovered_chunks = len(state.done)
    result.executed_actions = [state.done[key] for key in sorted(state.done)]


def _finish_if_done(state: CoordinatorState, out: Out) -> None:
    if state.round >= len(state.plan.rounds):
        out[1].append(RepairFinished(state.epoch))
        state.finished = True


def _start_round(state: CoordinatorState, now: float, out: Out) -> None:
    # Write-ahead: the round marker lands before any command.
    out[1].append(RoundStarted(state.epoch, state.schedule[state.round].index))
    state.in_round = True
    state.actions = {
        (a.stripe_id, a.chunk_index): _heal(state, a) for a in state.upcoming()
    }
    state.pending = set(state.actions)
    state.attempts = dict.fromkeys(state.actions, 0)
    state.retries = dict.fromkeys(state.actions, 0)
    state.reissue_at = {}
    state.issued_at = now
    state.acked_at = {}
    if not state.pending:
        _end_round(state, out)
        return
    # Issued only once the whole round is healed: chain order depends
    # on every action's final destination and helpers.
    state.busiest = _issue(state, list(state.actions), out)
    state.deadline = now + state.estimate(state.actions.values())


def _end_round(state: CoordinatorState, out: Out) -> None:
    state.in_round = False
    state.probe = None
    state.result.executed_actions.extend(state.actions.values())
    out[1].append(RoundCompleted(state.epoch, state.schedule[state.round].index))
    _fold_costs(state)
    state.round += 1
    _resplit(state)
    _finish_if_done(state, out)


# ----------------------------------------------------------------------
# Algorithm 2 at run time
# ----------------------------------------------------------------------


def _undone(
    state: CoordinatorState, actions: Iterable[ChunkRepairAction]
) -> List[ChunkRepairAction]:
    return [a for a in actions if (a.stripe_id, a.chunk_index) not in state.done]


def _splittable(state: CoordinatorState) -> bool:
    """Only a single coordinator's scattered plan that both reconstructs
    and migrates is measured and re-split; every other plan (and every
    shard coordinator) runs as planned."""
    plan = state.plan
    return (
        state.resplit
        and plan.scenario is RepairScenario.SCATTERED
        and plan.reconstructed_chunks > 0
        and plan.migrated_chunks > 0
    )


def _fold_costs(state: CoordinatorState) -> None:
    """Fold the finished round's measured costs into ``state.costs``.

    t_r is the round's slowest reconstruction, issue to ACK; t_m is the
    STF node's last migration's ACK time over the round's migration
    count, since its migrations queue at its one NIC.  Both are kept
    per chunk byte.  A round that reissued an action or ran with a node
    dead measured a fault, not the split, and is skipped.
    """
    if (
        not _splittable(state)
        or not state.acked_at
        or state.dead
        or any(state.attempts.values())
    ):
        return
    elapsed: Dict[RepairMethod, List[float]] = {m: [] for m in RepairMethod}
    for key, action in state.actions.items():
        elapsed[action.method].append(state.acked_at[key] - state.issued_at)
    recs = elapsed[RepairMethod.RECONSTRUCTION]
    migs = elapsed[RepairMethod.MIGRATION]
    measured = {}
    if recs:
        measured[RepairMethod.RECONSTRUCTION] = max(recs)
    if migs:
        measured[RepairMethod.MIGRATION] = max(migs) / len(migs)
    for method, seconds in measured.items():
        per_byte = seconds / state.cluster.chunk_size
        old = state.costs.get(method, per_byte)
        state.costs[method] = old + COST_WEIGHT * (per_byte - old)


def _spread(
    recs: List[List[ChunkRepairAction]],
    migs: List[List[ChunkRepairAction]],
    emptied: int,
) -> Tuple[List[Tuple[ChunkRepairAction, bool]], List[int], List[int], List[bool]]:
    """Where the chunks go when the last ``emptied`` rounds of ``recs``
    (each round's undone reconstructions) and ``migs`` (its undone
    migrations) stop reconstructing.

    Their reconstructions, flagged ``True``, and the migrations of
    every round that no longer reconstructs move, in round order, to
    the rounds that remain — always at least the first — each to the
    one with the fewest migrations among those still reconstructing,
    else the fewest overall, the earliest on a tie.  Returns the moves,
    each move's target round, and every remaining round's migration
    count and whether it still reconstructs.
    """
    kept = max(1, len(recs) - emptied)
    moves: List[Tuple[ChunkRepairAction, bool]] = []
    for i in range(len(recs) - emptied, len(recs)):
        moves.extend((action, True) for action in recs[i])
        if i >= kept:
            moves.extend((action, False) for action in migs[i])
    counts = [len(m) for m in migs[:kept]]
    reconstructs = [bool(r) for r in recs[:kept]]
    if emptied == len(recs):
        reconstructs[0] = False
    heap = [(not reconstructs[i], counts[i], i) for i in range(kept)]
    heapq.heapify(heap)
    targets = []
    for _ in moves:
        idle, count, i = heapq.heappop(heap)
        targets.append(i)
        counts[i] += 1
        heapq.heappush(heap, (idle, count + 1, i))
    return moves, targets, counts, reconstructs


def _resplit(state: CoordinatorState) -> None:
    """Re-solve Algorithm 2's split over the rounds not yet executed.

    Eq. (1) with measured costs: the predicted remaining time of a
    split is the sum over its rounds of ``max(t_r * [the round still
    reconstructs], migrations * t_m)``.  The candidates turn the
    trailing ``j >= 0`` reconstructions into migrations from the STF
    node, each keeping its planned destination, spread by
    :func:`_spread` over the rounds that remain; rounds left with
    nothing still run, empty.  Only whole trailing rounds are tried: a
    round that keeps one reconstruction still costs ``t_r``, so
    converting part of it only adds migrations elsewhere; rounds an
    earlier re-split emptied are passed over, so each round start can
    convert more as the estimates settle.  The least
    predicted time wins and a tie keeps the schedule, so when the
    measured costs agree with the plan nothing moves.  Chunks only move
    from reconstruction to migration and only into earlier rounds;
    nothing runs without both estimates or with the STF node dead or
    suspect (:func:`_conclude_probe` halved its observed scale).
    """
    t_r = state.costs.get(RepairMethod.RECONSTRUCTION)
    t_m = state.costs.get(RepairMethod.MIGRATION)
    stf = state.plan.stf_node
    if (
        t_r is None
        or t_m is None
        or not _splittable(state)
        or stf in state.dead
        or stf in state.observed_scales
    ):
        return
    rest = state.schedule[state.round:]
    if not rest:
        return
    recs = [_undone(state, r.reconstructions) for r in rest]
    migs = [_undone(state, r.migrations) for r in rest]

    def predicted(emptied: int) -> float:
        _, _, counts, reconstructs = _spread(recs, migs, emptied)
        return sum(
            max(t_r if busy else 0.0, count * t_m)
            for count, busy in zip(counts, reconstructs)
        )

    best, least = 0, predicted(0)
    for emptied in range(1, len(rest) + 1):
        if not recs[-emptied]:
            if migs[-emptied]:
                break  # a round that only migrates has nothing to convert
            continue  # emptied already, by an earlier re-split
        cost = predicted(emptied)
        if cost < least:
            best, least = emptied, cost
    if not best:
        return
    moves, targets, _, _ = _spread(recs, migs, best)
    moved = {(a.stripe_id, a.chunk_index) for a, _ in moves}
    for round_ in rest[len(rest) - best:]:
        round_.reconstructions = [
            a for a in round_.reconstructions
            if (a.stripe_id, a.chunk_index) not in moved
        ]
        round_.migrations = [
            a for a in round_.migrations
            if (a.stripe_id, a.chunk_index) not in moved
        ]
    for (action, converted), target in zip(moves, targets):
        if converted:
            action = restored_by(action, RepairMethod.MIGRATION, (stf,))
            state.result.resplit_chunks += 1
        rest[target].migrations.append(action)


def _on_ack(state: CoordinatorState, ack: RepairAck, now: float, out: Out) -> None:
    key = ack.key
    if (
        ack.epoch != state.epoch
        or key not in state.pending
        or ack.attempt != state.attempts[key]
    ):
        return  # fenced epoch, superseded attempt, or already handled
    if not ack.ok:
        if state.probe is None or key not in state.probe.keys:
            state.result.nacks += 1
            reason = f"NACK from node {ack.node_id}: {ack.detail}"
            _stall(state, {key}, reason, now, out)
        return
    executed = state.actions[key]
    index = state.schedule[state.round].index
    # Write-ahead: the completion is durable in the journal before the
    # coordinator acts on it, so a crash here never re-executes it.
    out[1].append(
        ActionCompleted(state.epoch, index, executed.to_dict(), ack.attempt)
    )
    state.done[key] = executed
    state.acked_at[key] = now
    state.pending.discard(key)
    if not state.pending:
        _end_round(state, out)


def _on_tick(state: CoordinatorState, now: float, out: Out) -> None:
    if state.inventory and now >= state.inventory.expires:
        _reconcile(state, out)
    if state.probe and now >= state.probe.expires:
        _conclude_probe(state, now, out)
    due = sorted(key for key, at in state.reissue_at.items() if at <= now)
    if due:
        for key in due:
            del state.reissue_at[key]
        _reissue(state, due, now, out)
    if state.deadline_armed() and now >= state.deadline:
        _stall(state, set(state.pending), "deadline", now, out)


def _tallies(state: CoordinatorState) -> Tuple[int, ...]:
    """The run's counts the shell mirrors as counters, in their order."""
    r = state.result
    return (
        r.retries, r.nacks, r.replans, r.converted_migrations,
        state.shared_chains, r.resplit_chunks,
    )


def _nodes(action: ChunkRepairAction) -> Tuple[NodeId, ...]:
    return (*action.sources, action.destination)


def _stall(
    state: CoordinatorState, keys: Set[ActionKey], reason: str, now: float, out: Out
) -> None:
    """Deadline missed or NACK received: probe the nodes of ``keys``."""
    nodes = {node for key in keys for node in _nodes(state.actions[key])}
    _ping(state, nodes - state.dead, keys, reason, now, out)


def _ping(
    state: CoordinatorState, nodes: Set[NodeId], keys: Set[ActionKey],
    reason: str, now: float, out: Out,
) -> None:
    """Ping ``nodes``, joining the outstanding probe if there is one.
    A probe with nobody to wait for expires at once."""
    probe = state.probe
    if probe is None:
        probe = state.probe = Window(next(state.nonces), now, reason)
    new = nodes - probe.nodes
    if new:
        probe.nodes |= new
        probe.expires = now + state.config.probe_timeout
    probe.keys |= keys
    for node in sorted(new):
        out[0].append((node, Ping(probe.nonce, reply_to=state.coordinator_id)))


def _conclude_probe(state: CoordinatorState, now: float, out: Out) -> None:
    """Every probed node answered, or the window closed: silent nodes
    are dead; replan the stalled actions around them, else retry."""
    probe, state.probe = state.probe, None
    state.dead |= probe.nodes - probe.replies.keys()
    keys = sorted(probe.keys & state.pending)
    if not keys:
        return  # a barrier probe, or every stalled action completed
    if any(not state.dead.isdisjoint(_nodes(state.actions[k])) for k in keys):
        state.result.replans += 1
        for key in keys:
            state.actions[key] = _heal(state, state.actions[key])
            state.attempts[key] += 1
        _reissue(state, keys, now, out)
        return
    # Every suspect answered: the stall is transient (lost packets,
    # wedged transfer).  They are alive but were slow enough to stall a
    # round: halve their observed link scale so reissued chains place
    # them at the head, where they only upload.
    cfg = state.config
    for node in probe.nodes:
        state.observed_scales[node] = state.observed_scales.get(node, 1.0) * 0.5
    for key in keys:
        state.retries[key] += 1
        if state.retries[key] > cfg.max_retries:
            raise RepairTimeoutError(
                keys,
                detail=f"{cfg.max_retries} retries exhausted; last "
                f"cause: {probe.reason}",
            )
    backoff = cfg.backoff(max(state.retries[key] for key in keys))
    state.result.retries += len(keys)
    for key in keys:
        state.attempts[key] += 1
        state.reissue_at[key] = now + backoff


def _reissue(
    state: CoordinatorState, keys: List[ActionKey], now: float, out: Out
) -> None:
    _issue(state, keys, out)
    remaining = (state.actions[key] for key in state.pending)
    state.deadline = max(state.deadline, now + state.estimate(remaining))


def _heal(state: CoordinatorState, action: ChunkRepairAction) -> ChunkRepairAction:
    if not state.dead:
        return action
    plan = state.plan
    try:
        healed = heal_action(
            state.cluster,
            plan.stf_node,
            action,
            state.dead,
            plan.scenario,
            codec=state.codec,
        )
    except UnrecoverableChunkError as exc:
        key = (action.stripe_id, action.chunk_index)
        raise RepairFailedError(f"action {key} cannot be healed: {exc}") from exc
    if (
        healed.method is RepairMethod.RECONSTRUCTION
        and action.method is RepairMethod.MIGRATION
    ):
        state.result.converted_migrations += 1
    return healed


def _issue(state: CoordinatorState, keys: Sequence[ActionKey], out: Out) -> int:
    """Commands for ``keys``; returns the round's busiest NIC's ingress
    stream count.

    Chain order is a round-level decision: every chain is ordered
    against the ingress duties of all the round's current actions
    (:func:`ingress_duties`), so a helper that also receives a chunk
    this round heads its chain.
    """
    weights = state.chain_weights()
    current = list(state.actions.values())
    duties = ingress_duties(current)
    streams = ingress_streams(current, weights)
    for key in keys:
        action = state.actions[key]
        chain = None
        if action.method is RepairMethod.RECONSTRUCTION and action.pipelined:
            chain = order_chain(action.sources, weights, duties)
            if any(
                streams[node] > 1 for node in (*chain[1:], action.destination)
            ):
                state.shared_chains += 1
        out[0].extend(_commands(state, action, chain, state.attempts[key]))
    return max(streams.values())


def _commands(
    state: CoordinatorState,
    action: ChunkRepairAction,
    chain: Optional[List[NodeId]],
    attempt: int,
) -> List[Command]:
    """A :class:`ReceiveCommand`, then one :class:`SendCommand` per stage.

    ``chain`` is a pipelined reconstruction's helpers in forwarding
    order, head first (repair pipelining): each stage scales its own
    chunk by its coefficient, XORs in its upstream's partial sum and
    forwards to the next stage, and the destination's one source is
    the last stage.  ``None`` is star fan-in (and migration): each
    source is a stage of its own whose next hop is the destination,
    which applies the coefficients.

    A slice is a packet, and this is the one place that sizes it:
    with ``config.pipeline_slices > 0`` every hop of a chain moves
    ``ceil(chunk_size / pipeline_slices)``-byte packets, so the
    hops overlap slice by slice (Li et al. §3).  Star and migration
    streams, and chains with ``pipeline_slices == 0``, keep the
    run's ``packet_size``.
    """
    chunk_size = state.cluster.chunk_size
    packet_size = state.packet_size
    coeffs = _source_coefficients(state.cluster, state.codec, action)
    if chain is None:
        chains = [[node] for node in action.sources]
        sources = coeffs
    else:
        chains = [chain]
        sources = {chain[-1]: 1}
        slices = state.config.pipeline_slices
        if slices > 0:
            packet_size = max(1, -(-chunk_size // slices))
    common = dict(
        stripe_id=action.stripe_id,
        chunk_index=action.chunk_index,
        chunk_size=chunk_size,
        packet_size=packet_size,
        attempt=attempt,
        epoch=state.epoch,
        reply_to=state.coordinator_id,
    )
    # The ReceiveCommand must precede any data packet; per-inbox FIFO
    # plus issuing it first guarantees that.
    commands: List[Command] = [
        (action.destination, ReceiveCommand(sources=sources, **common))
    ]
    for stages in chains:
        # Register stages downstream-first so each hop (usually) exists
        # before its upstream starts; late packets buffer regardless.
        for pos in reversed(range(len(stages))):
            node = stages[pos]
            last = pos + 1 == len(stages)
            send = SendCommand(
                destination=action.destination if last else stages[pos + 1],
                coeff=1 if chain is None else coeffs[node],
                upstream=stages[pos - 1] if pos else -1,
                chain_pos=-1 if chain is None else pos,
                **common,
            )
            commands.append((node, send))
    return commands


def _source_coefficients(
    cluster: StorageCluster, codec: ErasureCodec, action: ChunkRepairAction
) -> Dict[NodeId, int]:
    """Each source node's GF coefficient: 1 for a migration, the
    codec's solve over the helpers' chunks for a reconstruction."""
    if action.method is RepairMethod.MIGRATION:
        return {action.sources[0]: 1}
    stripe = cluster.stripe(action.stripe_id)
    helper_chunks = [stripe.chunk_index_on(node) for node in action.sources]
    coeffs = codec.recovery_coefficients(action.chunk_index, helper_chunks)
    return {node: coeffs[stripe.chunk_index_on(node)] for node in action.sources}


# ----------------------------------------------------------------------
# the shell
# ----------------------------------------------------------------------


class Coordinator:
    """Runs :func:`step` against the network, the journal and the clock.

    Args:
        network: the shared transport (the coordinator attaches itself
            under :data:`COORDINATOR_ID` with unthrottled control links).
        cluster: metadata for stripe lookups.
        codec: the erasure codec of the stripes (uniform).
        packet_size: packet granularity for all transfers.
        config: deadlines, retry policy and probe cadence.
        journal: optional write-ahead journal; when set, every state
            transition is journaled before it is acted on, making the
            run resumable via :meth:`recover`.
        epoch: this incarnation's epoch, stamped on every command so
            agents can fence out superseded coordinators.
        metrics: optional :class:`~repro.obs.MetricsRegistry` shared by
            the whole run; a private throwaway registry is used when
            omitted so instrumented code needs no branches.
        tracer: optional :class:`~repro.obs.Tracer`; a disabled tracer
            (records nothing) is used when omitted.
        coordinator_id: endpoint this coordinator attaches at (default
            :data:`COORDINATOR_ID`); shard coordinators attach at
            :func:`shard_coordinator_id` so several can share one
            transport and one agent fleet.
        shard: stripe-space shard this coordinator owns (``None`` for a
            single-coordinator run); labels metrics and trace spans.
        budget: optional shared :class:`~repro.core.scheduling.\
HelperBudget`; when set, each round's helper/destination node slots
            are acquired (deadline-priority queueing) before any
            command is issued and released when the round ends.
        lease_renew: optional callback invoked every time the shell
            wakes (at least every ``config.poll_interval``, budget
            waits included); the multi-coordinator layer hangs its
            lease table off it.
    """

    def __init__(
        self,
        network: Network,
        cluster: StorageCluster,
        codec: ErasureCodec,
        packet_size: int,
        config: Optional[RuntimeConfig] = None,
        journal: Optional[RepairJournal] = None,
        epoch: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        coordinator_id: NodeId = COORDINATOR_ID,
        shard: Optional[int] = None,
        budget: Optional[HelperBudget] = None,
        lease_renew: Optional[Callable[[], None]] = None,
    ):
        self.network = network
        self.cluster = cluster
        self.codec = codec
        self.packet_size = packet_size
        self.config = config or DEFAULT_CONFIG
        self.journal = journal
        self.epoch = epoch
        self.coordinator_id = coordinator_id
        self.shard = shard
        self.budget = budget
        self.lease_renew = lease_renew or (lambda: None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        m = self.metrics
        #: bumped as :func:`_tallies` grows, in its order
        self._tally_counters = tuple(
            m.counter(name, help_) for name, help_ in (
                ("repair_retries_total", "bounded reissues after transient stalls"),
                ("repair_nacks_total", "NACKs received from agents"),
                ("repair_replans_total", "healing waves after a node died"),
                ("repair_converted_migrations_total",
                 "migrations converted to reconstructions (STF died mid-repair)"),
                ("repair_chain_shared_ingress_total",
                 "chains issued with a node still ingesting more than one stream"),
                ("repair_resplit_chunks_total",
                 "planned reconstructions run as migrations by the run-time re-split"),
            )
        )
        self._actions_counter = m.counter(
            "repair_actions_total",
            "chunk repair actions completed, by executed method",
        )
        self._round_hist = m.histogram(
            "repair_round_seconds", "wall-clock duration of each repair round"
        )
        self._action_hist = m.histogram(
            "repair_action_seconds",
            "issue-to-ACK latency of each completed action, by method",
        )
        m.gauge(
            "coordinator_epoch", "epoch of the current coordinator incarnation"
        ).set(epoch, **({} if shard is None else {"shard": shard}))
        self._endpoint = network.attach(self.coordinator_id, None)
        self._nonces = itertools.count(1)
        #: survives across this coordinator's runs, as a flaky link does
        self._observed_scales: Dict[NodeId, float] = {}
        #: measured seconds per chunk byte by method, across runs too
        self._costs: Dict[RepairMethod, float] = {}
        #: a crashed run's journal, folded by recover() for resume()
        self._recovered: Optional[CoordinatorState] = None
        #: action spans of the round in flight, by key
        self._spans: Dict[ActionKey, Span] = {}

    def close(self) -> None:
        """Release the journal's file handle (idempotent)."""
        if self.journal is not None:
            self.journal.close()

    def execute(
        self, plan: RepairPlan, packet_size: Optional[int] = None
    ) -> RuntimeResult:
        """Run the plan to completion; returns wall-clock timings.

        Survives node deaths and packet-level faults per the module
        docstring; raises :class:`RepairTimeoutError` /
        :class:`RepairFailedError` when recovery is impossible.

        Args:
            plan: the repair plan.
            packet_size: per-run override of the transfer granularity
                (Experiment B.1 varies it without rebuilding the testbed).
        """
        packet = packet_size or self.packet_size
        if packet < 1:
            raise ValueError(f"packet_size must be >= 1, got {packet}")
        state = CoordinatorState(
            plan, packet, self.epoch, self.cluster, self.codec, self.config
        )
        if self.journal is not None:
            # A fresh run owns the file: records left by a previous,
            # finished repair must not masquerade as this run's
            # progress.  (Recovery appends instead — see resume().)
            self.journal.reset()
        return self._run(state)

    @classmethod
    def recover(
        cls,
        journal_path: Union[str, Path],
        network: Network,
        cluster: StorageCluster,
        codec: ErasureCodec,
        config: Optional[RuntimeConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        **kwargs,
    ) -> "Coordinator":
        """Build a successor coordinator from a crashed run's journal.

        Replays the journal (truncating any torn tail), folds its
        records through :func:`step`, and returns a new coordinator one
        epoch above the highest journaled one; :meth:`resume` on it
        finishes the repair at the journaled packet size.  The old
        endpoint must be detached first.  A sharded successor keeps the
        dead shard's ``coordinator_id`` and journal.  Other keywords are
        the constructor's.

        Raises:
            JournalError: if the journal holds no committed plan.
        """
        cfg = config or DEFAULT_CONFIG
        state = CoordinatorState(None, 0, 0, cluster, codec, cfg)
        for record in RepairJournal.replay(journal_path):
            step(state, record, 0.0)
        if state.plan is None:
            raise JournalError(
                f"journal {journal_path} holds no committed plan; "
                "nothing to recover"
            )
        state.epoch += 1
        journal = RepairJournal(journal_path, fsync=cfg.journal_fsync, metrics=metrics)
        coordinator = cls(
            network, cluster, codec, state.packet_size, config=cfg,
            journal=journal, epoch=state.epoch, metrics=metrics, **kwargs,
        )
        coordinator._recovered = state
        return coordinator

    def resume(self) -> RuntimeResult:
        """Finish a recovered repair, re-issuing only unfinished actions.

        Fences the old epoch (every agent adopts this coordinator's
        epoch while answering the inventory query), reconciles the
        journal against the agents' durable chunk inventories, then
        runs the plan with the completed actions skipped.  Resuming an
        already-finished journal performs no agent traffic at all.
        """
        state = self._recovered
        if state is None:
            raise RuntimeError(
                "resume() needs Coordinator.recover; this coordinator "
                "was not built from a journal"
            )
        if not state.finished:
            return self._run(state)
        _count_recovered(state)
        return state.result

    # -- the loop ------------------------------------------------------

    def _run(self, state: CoordinatorState) -> RuntimeResult:
        """Feed :func:`step` until the plan is done: execute and resume."""
        plan = state.plan
        state.coordinator_id = self.coordinator_id
        state.nonces = self._nonces
        state.observed_scales = self._observed_scales
        state.costs = self._costs
        state.resplit = self.shard is None
        fault_plan = getattr(getattr(self.network, "faults", None), "plan", None)
        if fault_plan is not None:
            state.link_scales = fault_plan.link_bandwidths()
        attrs = dict(
            stf=plan.stf_node,
            scenario=plan.scenario.value,
            rounds=plan.num_rounds,
            chunks=plan.total_chunks,
            packet_size=state.packet_size,
            epoch=self.epoch,
            resumed=state.recovering,
        )
        nodes: Tuple[NodeId, ...] = ()
        if state.recovering:
            attrs["journaled_complete"] = len(state.done)
            nodes = tuple(n for n in self.network.node_ids() if n >= 0)
        if self.shard is not None:
            attrs["shard"] = self.shard
        transferred = self.network.bytes_transferred
        start = time.monotonic()
        with self.tracer.span("repair", **attrs):
            self._act(state, self._step(state, Start(nodes), start))
            while not state.finished:
                if state.committed:
                    self._round(state)
                else:
                    self._wait(state)  # the inventory exchange
        result = state.result
        result.total_time = time.monotonic() - start
        result.bytes_transferred = self.network.bytes_transferred - transferred
        result.dead_nodes = sorted(state.dead)
        return result

    def _round(self, state: CoordinatorState) -> None:
        """Hold the next round's helper budget, issue it, wait it out.

        Oversubscribed, the budget admits the round with the soonest
        cost-model deadline first; the rest queue instead of stampeding
        the same helpers, renewing the lease (queued is not wedged).
        """
        upcoming = state.upcoming()
        nodes = {node for action in upcoming for node in _nodes(action)}
        budget = (
            self.budget.round(
                nodes,
                priority=time.monotonic() + state.estimate(upcoming),
                renew=self.lease_renew,
            )
            if self.budget is not None and nodes
            else nullcontext()
        )
        planned = state.plan.rounds[state.round]
        with budget, self.tracer.span("round", round=planned.index) as span:
            started = time.monotonic()
            commands, records = self._step(state, NextRound(), started)
            self._act(state, ([], records))
            for key, action in state.actions.items():
                # Opened between the journaled RoundStarted and the
                # commands; closed by the matching ACK (after any
                # reissue), so not lexical.
                self._spans[key] = self.tracer.start_span(
                    "action", parent=span, method=action.method.value,
                    stripe=key[0], chunk=key[1], destination=action.destination,
                )
            self._act(state, (commands, []))
            span.annotate(
                actions=len(state.actions),
                planned_migrations=planned.cm,
                migrations=sum(
                    a.method is RepairMethod.MIGRATION
                    for a in state.actions.values()
                ),
            )
            if state.actions:
                span.annotate(max_ingress_streams=state.busiest)
            while state.in_round:
                self._wait(state)
        duration = time.monotonic() - started
        state.result.round_times.append(duration)
        self._round_hist.observe(duration)

    def _wait(self, state: CoordinatorState) -> None:
        """Renew the lease, then step one inbox message — or a
        :class:`Tick` once a deadline of the state is due.  Returns
        within ``poll_interval``, so the lease never goes stale."""
        self.lease_renew()
        now = time.monotonic()
        wake = state.wake_at()
        if now < wake:
            try:
                event = self._endpoint.inbox.get(
                    timeout=max(min(wake - now, self.config.poll_interval), 0.001)
                )
            except queue.Empty:
                return
        else:
            event = Tick()
        self._act(state, self._step(state, event, time.monotonic()))

    def _step(self, state: CoordinatorState, event: object, now: float) -> Out:
        """:func:`step`, bumping the run's counters as its tallies grow,
        so a registry read mid-run sees them."""
        before = _tallies(state)
        try:
            return step(state, event, now)
        finally:
            for counter, old, new in zip(self._tally_counters, before, _tallies(state)):
                if new > old:
                    counter.inc(new - old)

    def _act(self, state: CoordinatorState, out: Out) -> None:
        """Append the step's records, then send its commands."""
        commands, records = out
        for record in records:
            if isinstance(record, ActionCompleted):
                self._close_action(state, record)
            if self.journal is not None:
                self.journal.append(record)
        for node, message in commands:
            try:
                self.network.send(self.coordinator_id, node, message)
            except KeyError:
                # A ping to an endpoint that never attached goes
                # unanswered, like one to a dead node; anything else
                # is a bug.  (Detached endpoints drop sends silently.)
                if not isinstance(message, Ping) or node in self.network.node_ids():
                    raise

    def _close_action(self, state: CoordinatorState, record: ActionCompleted) -> None:
        key = (record.action["stripe_id"], record.action["chunk_index"])
        executed = state.done[key]
        # The span closes (and metrics record) at ACK time, before the
        # completion is journaled: a crash inside the append then
        # leaves trace, metrics and journal agreeing on which actions
        # finished.
        span = self._spans.pop(key).finish(
            method=executed.method.value,
            destination=executed.destination,
            attempt=record.attempt,
            retries=state.retries[key],
        )
        self._actions_counter.inc(method=executed.method.value)
        self._action_hist.observe(span.duration, method=executed.method.value)

    def _reachable(self, nodes: Set[NodeId]) -> Set[NodeId]:
        """The subset of ``nodes`` that answers a ping in time."""
        state = CoordinatorState(
            None, 0, self.epoch, self.cluster, self.codec, self.config,
            self.coordinator_id, nonces=self._nonces,
        )
        self._act(state, self._step(state, Probe(tuple(nodes)), time.monotonic()))
        while state.probe is not None:
            self._wait(state)
        return nodes - state.dead
