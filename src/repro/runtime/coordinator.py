"""The FastPR coordinator (Section V), as a supervised state machine.

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
  replaced by a surviving stripe peer, a dead destination is re-chosen.

The run fails loudly — :class:`RepairTimeoutError` names the pending
action keys, :class:`RepairFailedError` the unrecoverable one — rather
than hanging on a bare ``inbox.get``.

Crash recovery: when constructed with a
:class:`~repro.runtime.journal.RepairJournal`, the coordinator
journals every state transition *before* acting on it (plan commit,
round start, each ACKed action, round completion, finish).  If the
coordinator process dies, :meth:`Coordinator.recover` replays the
journal, :meth:`Coordinator.resume` queries every agent's chunk
inventory (:class:`~repro.runtime.messages.InventoryQuery`),
reconciles journal against reality, and re-executes only the actions
that never durably completed.  Each incarnation runs under a fresh
``epoch``; agents fence out commands from older epochs, so a zombie
predecessor can never mutate a store behind its successor's back.
"""

from __future__ import annotations

import contextlib
import queue
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Union

from ..cluster.chunk import NodeId, StripeId
from ..cluster.cluster import StorageCluster
from ..core.plan import ChunkRepairAction, RepairMethod, RepairPlan
from ..core.planner import UnrecoverableChunkError, heal_action
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
    CoordinatorCrash,
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


#: stateless stand-in when no HelperBudget is configured
_NO_BUDGET = contextlib.nullcontext()


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


@dataclass
class RecoveredState:
    """What :meth:`Coordinator.recover` reconstructed from the journal."""

    plan: RepairPlan
    packet_size: int
    #: journaled ActionCompleted records: key -> executed action
    completed: Dict[ActionKey, ChunkRepairAction]
    #: the journal already holds a RepairFinished record
    finished: bool


class Coordinator:
    """Issues repair commands round by round and supervises the ACKs.

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
        lease_renew: optional callback invoked whenever this
            coordinator demonstrates liveness (each supervision-loop
            iteration); the multi-coordinator layer hangs its lease
            table off it.
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
        self.lease_renew = lease_renew
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        m = self.metrics
        self._retries_counter = m.counter(
            "repair_retries_total", "bounded reissues after transient stalls"
        )
        self._nacks_counter = m.counter(
            "repair_nacks_total", "NACKs received from agents"
        )
        self._replans_counter = m.counter(
            "repair_replans_total", "healing waves after a node died"
        )
        self._converted_counter = m.counter(
            "repair_converted_migrations_total",
            "migrations converted to reconstructions (STF died mid-repair)",
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
        epoch_gauge = m.gauge(
            "coordinator_epoch", "epoch of the current coordinator incarnation"
        )
        if shard is None:
            epoch_gauge.set(epoch)
        else:
            epoch_gauge.set(epoch, shard=shard)
        #: fault hook: die right after journaling RoundCompleted(n >= this)
        self.crash_after_round: Optional[int] = None
        self._endpoint = network.attach(self.coordinator_id, None)
        #: nodes declared permanently dead (persists across rounds)
        self._dead: Set[NodeId] = set()
        #: runtime-observed link degradation (node -> scale in (0, 1]);
        #: halved each time a node survives a probe that a stalled
        #: round triggered, so chain ordering demotes flaky-but-alive
        #: helpers to the head of subsequent chains
        self._observed_scales: Dict[NodeId, float] = {}
        self._shared_ingress_counter = m.counter(
            "repair_chain_shared_ingress_total",
            "chains issued with a node still ingesting more than one stream",
        )
        self._deferred: List[object] = []
        self._nonce = 0
        self._recovered: Optional[RecoveredState] = None

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
        attrs = dict(
            stf=plan.stf_node,
            scenario=plan.scenario.value,
            rounds=plan.num_rounds,
            chunks=plan.total_chunks,
            packet_size=packet,
            epoch=self.epoch,
            resumed=False,
        )
        if self.shard is not None:
            attrs["shard"] = self.shard
        with self.tracer.span("repair", **attrs):
            if self.journal is not None:
                # A fresh run owns the file: records left by a previous,
                # finished repair must not masquerade as this run's
                # progress.  (Recovery appends instead — see resume().)
                self.journal.reset()
            with self.tracer.span("plan_commit"):
                self._journal(PlanCommitted(self.epoch, plan.to_dict(), packet))
            return self._execute(plan, packet, done={})

    def _execute(
        self,
        plan: RepairPlan,
        packet: int,
        done: Dict[ActionKey, ChunkRepairAction],
    ) -> RuntimeResult:
        """Run the plan, skipping the actions already in ``done``."""
        transferred_before = self.network.bytes_transferred
        result = RuntimeResult(total_time=0.0)
        result.recovered_chunks = len(done)
        result.executed_actions.extend(done[key] for key in sorted(done))
        self._dead = set()
        start = time.monotonic()
        for round_ in plan.rounds:
            remaining = [
                action
                for action in round_.actions()
                if (action.stripe_id, action.chunk_index) not in done
            ]
            # Write-ahead: the round marker lands before any command.
            self._journal(RoundStarted(self.epoch, round_.index))
            round_span = self.tracer.start_span("round", round=round_.index)
            round_start = time.monotonic()
            try:
                if remaining:
                    slots = self._round_nodes(remaining)
                    deadline = self._round_deadline(remaining)
                    with self._budget_slots(slots, deadline):
                        self._run_round(
                            plan, round_.index, remaining, packet, result,
                            round_span,
                        )
            except BaseException:
                # Close the span at the failure point: action spans
                # completed before a coordinator crash stay reachable
                # under their round in the trace tree.
                round_span.finish(actions=len(remaining), aborted=True)
                raise
            duration = time.monotonic() - round_start
            result.round_times.append(duration)
            round_span.finish(actions=len(remaining))
            self._round_hist.observe(duration)
            self._journal(RoundCompleted(self.epoch, round_.index))
            self._maybe_crash_after_round(round_.index)
        self._journal(RepairFinished(self.epoch))
        result.total_time = time.monotonic() - start
        result.chunks_repaired = plan.total_chunks - len(done)
        result.bytes_transferred = (
            self.network.bytes_transferred - transferred_before
        )
        result.dead_nodes = sorted(self._dead)
        return result

    def _journal(self, record: JournalRecord) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _renew_lease(self) -> None:
        if self.lease_renew is not None:
            self.lease_renew()

    def _round_nodes(self, actions) -> Set[NodeId]:
        """Helper + destination node slots a round needs concurrently."""
        nodes: Set[NodeId] = set()
        for action in actions:
            nodes.update(action.sources)
            nodes.add(action.destination)
        return nodes

    def _budget_slots(self, nodes: Set[NodeId], deadline: float):
        """Acquire the shared helper budget for a round (if configured).

        Priority is the round's cost-model deadline: when shards
        oversubscribe the budget, the round that must finish soonest is
        admitted first and the rest queue instead of stampeding the
        same helpers.  Waiting still renews the shard's lease — a
        queued coordinator is alive, not wedged.
        """
        if self.budget is None:
            return _NO_BUDGET
        return self.budget.round(
            nodes,
            priority=time.monotonic() + deadline,
            renew=self._renew_lease,
        )

    def _maybe_crash_after_round(self, round_index: int) -> None:
        if (
            self.crash_after_round is not None
            and round_index >= self.crash_after_round
        ):
            records = self.journal.records_written if self.journal else 0
            self.close()
            raise CoordinatorCrash(records)

    # -- crash recovery ------------------------------------------------

    @classmethod
    def recover(
        cls,
        journal_path: Union[str, Path],
        network: Network,
        cluster: StorageCluster,
        codec: ErasureCodec,
        config: Optional[RuntimeConfig] = None,
        packet_size: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        coordinator_id: NodeId = COORDINATOR_ID,
        shard: Optional[int] = None,
        budget: Optional[HelperBudget] = None,
        lease_renew: Optional[Callable[[], None]] = None,
    ) -> "Coordinator":
        """Build a successor coordinator from a crashed run's journal.

        Replays the journal (truncating any torn tail), folds the
        records into a :class:`RecoveredState`, and returns a new
        coordinator one epoch above the highest journaled one.  Call
        :meth:`resume` on the result to finish the repair.  The old
        coordinator's endpoint must be detached first (the driver's
        ``build(resume=True)`` does both).  In a sharded run the
        successor assumes the dead shard's identity: same
        ``coordinator_id``, same journal, bumped epoch.

        Raises:
            JournalError: if the journal holds no committed plan.
        """
        cfg = config or DEFAULT_CONFIG
        records = RepairJournal.replay(journal_path)
        plan_doc: Optional[dict] = None
        journaled_packet: Optional[int] = None
        last_epoch = 0
        completed: Dict[ActionKey, ChunkRepairAction] = {}
        finished = False
        for record in records:
            last_epoch = max(last_epoch, record.epoch)
            if isinstance(record, PlanCommitted):
                plan_doc = record.plan
                journaled_packet = record.packet_size
            elif isinstance(record, ActionCompleted):
                action = ChunkRepairAction.from_dict(record.action)
                completed[(action.stripe_id, action.chunk_index)] = action
            elif isinstance(record, RepairFinished):
                finished = True
        if plan_doc is None:
            raise JournalError(
                f"journal {journal_path} holds no committed plan; "
                "nothing to recover"
            )
        plan = RepairPlan.from_dict(plan_doc)
        journal = RepairJournal(
            journal_path, fsync=cfg.journal_fsync, metrics=metrics
        )
        coordinator = cls(
            network,
            cluster,
            codec,
            packet_size=packet_size or journaled_packet,
            config=cfg,
            journal=journal,
            epoch=last_epoch + 1,
            metrics=metrics,
            tracer=tracer,
            coordinator_id=coordinator_id,
            shard=shard,
            budget=budget,
            lease_renew=lease_renew,
        )
        coordinator._recovered = RecoveredState(
            plan=plan,
            packet_size=journaled_packet,
            completed=completed,
            finished=finished,
        )
        return coordinator

    def resume(self) -> RuntimeResult:
        """Finish a recovered repair, re-issuing only unfinished actions.

        Fences the old epoch (every agent adopts this coordinator's
        epoch while answering the inventory query), reconciles the
        journal against the agents' durable chunk inventories — an
        action is complete iff it was journaled *or* its destination
        already stores the stripe's chunk — then re-runs the plan with
        the completed actions skipped.  Resuming an already-finished
        journal performs no agent traffic at all.
        """
        if self._recovered is None:
            raise RuntimeError(
                "resume() needs Coordinator.recover; this coordinator "
                "was not built from a journal"
            )
        state = self._recovered
        done = dict(state.completed)
        if state.finished:
            result = RuntimeResult(total_time=0.0)
            result.recovered_chunks = len(done)
            result.executed_actions.extend(done[key] for key in sorted(done))
            return result
        attrs = dict(
            stf=state.plan.stf_node,
            scenario=state.plan.scenario.value,
            rounds=state.plan.num_rounds,
            chunks=state.plan.total_chunks,
            packet_size=state.packet_size,
            epoch=self.epoch,
            resumed=True,
            journaled_complete=len(done),
        )
        if self.shard is not None:
            attrs["shard"] = self.shard
        with self.tracer.span("repair", **attrs) as repair_span:
            with self.tracer.span("inventory"):
                inventory = self._collect_inventory()
            for action in state.plan.actions():
                key = (action.stripe_id, action.chunk_index)
                if key in done:
                    continue
                if action.stripe_id in inventory.get(action.destination, ()):
                    # Destinations never previously store a chunk of the
                    # stripe (plan invariant) and promotion is atomic, so
                    # presence proves the action completed durably.
                    done[key] = action
            repair_span.annotate(recovered=len(done))
            with self.tracer.span("plan_commit"):
                self._journal(
                    PlanCommitted(
                        self.epoch, state.plan.to_dict(), state.packet_size
                    )
                )
            return self._execute(state.plan, state.packet_size, done)

    def _collect_inventory(self) -> Dict[NodeId, Set[StripeId]]:
        """Ask every attached agent which stripes it durably stores.

        Doubles as the fencing broadcast: the query carries this
        coordinator's epoch, and each agent aborts all older-epoch work
        before snapshotting its store, so the replies are exact.
        Nodes that do not answer within ``config.inventory_timeout``
        (crashed ones) are simply absent from the result.
        """
        nodes = {
            node for node in self.network.node_ids() if node >= 0
        }
        self._nonce += 1
        nonce = self._nonce
        for node in sorted(nodes):
            try:
                self.network.send(
                    self.coordinator_id,
                    node,
                    InventoryQuery(
                        self.epoch, nonce, reply_to=self.coordinator_id
                    ),
                )
            except KeyError:  # pragma: no cover - detached mid-iteration
                nodes.discard(node)
        inventory: Dict[NodeId, Set[StripeId]] = {}
        deadline = time.monotonic() + self.config.inventory_timeout
        while nodes - set(inventory) and time.monotonic() < deadline:
            self._renew_lease()
            try:
                message = self._endpoint.inbox.get(
                    timeout=max(deadline - time.monotonic(), 0.01)
                )
            except queue.Empty:
                break
            if isinstance(message, InventoryReply):
                if message.nonce == nonce:
                    inventory[message.node_id] = set(message.stripes)
            elif isinstance(message, (Heartbeat, Pong)):
                pass  # liveness only counts inside a probe
            elif isinstance(message, RepairAck):
                pass  # straggler from the fenced epoch; inventory wins
            else:
                self._deferred.append(message)
        return inventory

    # -- the supervised round state machine ----------------------------

    def _run_round(
        self,
        plan: RepairPlan,
        round_index: int,
        round_actions: List[ChunkRepairAction],
        packet: int,
        result: RuntimeResult,
        round_span: Optional[Span] = None,
    ) -> None:
        cfg = self.config
        actions: Dict[ActionKey, ChunkRepairAction] = {}
        attempts: Dict[ActionKey, int] = {}
        retries: Dict[ActionKey, int] = {}
        spans: Dict[ActionKey, Span] = {}
        for action in round_actions:
            healed = self._heal(plan, action, result)
            key = (action.stripe_id, action.chunk_index)
            actions[key] = healed
            attempts[key] = 0
            retries[key] = 0
            # Non-lexical span: opened at command issue, closed when
            # the matching ACK arrives (possibly after reissues).
            spans[key] = self.tracer.start_span(
                "action",
                parent=round_span,
                method=healed.method.value,
                stripe=healed.stripe_id,
                chunk=healed.chunk_index,
                destination=healed.destination,
            )
        # Issued only once the whole round is healed: chain order
        # depends on every action's final destination and helpers.
        busiest = self._issue(actions, list(actions), packet, attempts)
        if round_span is not None:
            round_span.annotate(max_ingress_streams=busiest)
        pending: Set[ActionKey] = set(actions)
        deadline = time.monotonic() + self._round_deadline(actions.values())
        while pending:
            self._renew_lease()
            now = time.monotonic()
            if now >= deadline:
                self._recover(
                    plan, actions, pending, attempts, retries, packet, result,
                    reason="deadline", spans=spans,
                )
                deadline = time.monotonic() + self._round_deadline(
                    [actions[k] for k in pending]
                )
                continue
            message = self._next_message(min(deadline - now, cfg.poll_interval))
            if message is None:
                continue
            if isinstance(message, (Heartbeat, Pong, InventoryReply)):
                # Liveness only counts inside a probe; an InventoryReply
                # here is late from a recovery inventory sweep.
                continue
            if isinstance(message, RepairAck):
                key = message.key
                if message.epoch != self.epoch:
                    continue  # ack/NACK addressed to a fenced epoch
                if key not in pending or message.attempt != attempts[key]:
                    continue  # stale or duplicate (already-handled) ack
                if message.ok:
                    executed = actions[key]
                    # The span closes (and metrics record) at ACK time,
                    # before the completion is journaled: a crash inside
                    # the append then leaves trace, metrics and journal
                    # agreeing on which actions finished.
                    span = spans[key].finish(
                        method=executed.method.value,
                        destination=executed.destination,
                        attempt=message.attempt,
                        retries=retries[key],
                    )
                    self._actions_counter.inc(method=executed.method.value)
                    self._action_hist.observe(
                        span.duration, method=executed.method.value
                    )
                    # Write-ahead: the completion is durable in the
                    # journal before the coordinator acts on it, so a
                    # crash here never re-executes this action.
                    self._journal(
                        ActionCompleted(
                            self.epoch,
                            round_index,
                            actions[key].to_dict(),
                            message.attempt,
                        )
                    )
                    pending.discard(key)
                else:
                    result.nacks += 1
                    self._nacks_counter.inc()
                    self._recover(
                        plan, actions, {key}, attempts, retries, packet, result,
                        reason=f"NACK from node {message.node_id}: "
                        f"{message.detail}",
                        spans=spans,
                    )
                    deadline = max(
                        deadline,
                        time.monotonic()
                        + self._round_deadline([actions[k] for k in pending]),
                    )
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"coordinator got unexpected {message!r}")
        result.executed_actions.extend(actions.values())

    def _recover(
        self,
        plan: RepairPlan,
        actions: Dict[ActionKey, ChunkRepairAction],
        keys: Set[ActionKey],
        attempts: Dict[ActionKey, int],
        retries: Dict[ActionKey, int],
        packet: int,
        result: RuntimeResult,
        reason: str,
        spans: Optional[Dict[ActionKey, Span]] = None,
    ) -> None:
        """Deadline missed or NACK received: probe, replan, reissue."""
        cfg = self.config
        spans = spans if spans is not None else {}
        suspects = set()
        for key in keys:
            action = actions[key]
            suspects.update(action.sources)
            suspects.add(action.destination)
        suspects -= self._dead
        newly_dead = suspects - self._probe(suspects)
        if newly_dead:
            self._dead |= newly_dead
            result.replans += 1
            self._replans_counter.inc()
            for key in sorted(keys):
                actions[key] = self._heal(plan, actions[key], result)
                attempts[key] += 1
                if key in spans:
                    spans[key].annotate(
                        healed=True, attempts=attempts[key]
                    )
            self._issue(actions, sorted(keys), packet, attempts)
            return
        # Every suspect answered: the stall is transient (lost packets,
        # wedged transfer).  Bounded retry with exponential backoff.
        # The suspects are alive but were slow enough to stall a round:
        # halve their observed link scale so reissued chains place them
        # at the head, where they only upload.
        for node in sorted(suspects):
            self._observed_scales[node] = (
                self._observed_scales.get(node, 1.0) * 0.5
            )
        for key in sorted(keys):
            retries[key] += 1
            if retries[key] > cfg.max_retries:
                raise RepairTimeoutError(
                    keys,
                    detail=f"{cfg.max_retries} retries exhausted; last "
                    f"cause: {reason}",
                )
        backoff = cfg.backoff(max(retries[key] for key in keys))
        time.sleep(backoff)
        result.retries += len(keys)
        self._retries_counter.inc(len(keys))
        for key in sorted(keys):
            attempts[key] += 1
            if key in spans:
                spans[key].annotate(attempts=attempts[key])
        self._issue(actions, sorted(keys), packet, attempts)

    def _heal(
        self,
        plan: RepairPlan,
        action: ChunkRepairAction,
        result: RuntimeResult,
    ) -> ChunkRepairAction:
        if not self._dead:
            return action
        try:
            healed = heal_action(
                self.cluster, plan.stf_node, action, self._dead, plan.scenario
            )
        except UnrecoverableChunkError as exc:
            raise RepairFailedError(str(exc)) from exc
        if (
            healed.method is RepairMethod.RECONSTRUCTION
            and action.method is RepairMethod.MIGRATION
        ):
            result.converted_migrations += 1
            self._converted_counter.inc()
        return healed

    # -- liveness ------------------------------------------------------

    def _probe(self, nodes: Set[NodeId]) -> Set[NodeId]:
        """Ping ``nodes``; returns the subset that answered in time."""
        if not nodes:
            return set()
        self._nonce += 1
        nonce = self._nonce
        for node in nodes:
            try:
                self.network.send(
                    self.coordinator_id,
                    node,
                    Ping(nonce, reply_to=self.coordinator_id),
                )
            except KeyError:
                pass  # detached endpoint: definitely dead
        alive: Set[NodeId] = set()
        deadline = time.monotonic() + self.config.probe_timeout
        while time.monotonic() < deadline and alive != nodes:
            try:
                message = self._endpoint.inbox.get(
                    timeout=max(deadline - time.monotonic(), 0.01)
                )
            except queue.Empty:
                break
            if isinstance(message, Pong):
                if message.nonce == nonce and message.node_id in nodes:
                    alive.add(message.node_id)
            elif isinstance(message, Heartbeat):
                if message.node_id in nodes:
                    alive.add(message.node_id)
            else:
                # Not consumable here (e.g. a RepairAck racing the
                # probe); defer to the main loop in arrival order.
                self._deferred.append(message)
        return alive

    def _next_message(self, timeout: float):
        if self._deferred:
            return self._deferred.pop(0)
        try:
            return self._endpoint.inbox.get(timeout=max(timeout, 0.01))
        except queue.Empty:
            return None

    # -- deadlines from the cost model ---------------------------------

    def _round_deadline(self, actions) -> float:
        """Cost-model-derived ACK deadline for a batch of actions.

        Sums the Eq. (4)/(5) per-chunk estimates (reads + transfers +
        write) — a deliberate over-approximation of the round's
        critical path — then applies the configured margin and floor.
        A node is only declared *suspect* after this budget elapses,
        so the estimate errs long, never short.
        """
        cfg = self.config
        chunk = self.cluster.chunk_size
        disk = self.cluster.disk_bandwidth or float("inf")
        net = self.cluster.network_bandwidth or float("inf")
        disk_time = chunk / disk
        net_time = chunk / net
        estimate = 0.0
        for action in actions:
            if action.method is RepairMethod.MIGRATION:
                estimate += 2 * disk_time + net_time
            else:
                estimate += 2 * disk_time + len(action.sources) * net_time
        return max(cfg.min_deadline, cfg.deadline_margin * estimate)

    # -- command issue --------------------------------------------------

    def _issue(
        self,
        actions: Dict[ActionKey, ChunkRepairAction],
        keys: Sequence[ActionKey],
        packet_size: int,
        attempts: Dict[ActionKey, int],
    ) -> int:
        """Send the commands of ``keys``; returns the round's busiest
        NIC's ingress stream count.

        Chain order is a round-level decision: every chain is ordered
        against the ingress duties of all the round's current
        ``actions`` (:func:`ingress_duties`), so a helper that also
        receives a chunk this round heads its chain.
        """
        chunk_size = self.cluster.chunk_size
        weights = self._chain_weights()
        current = list(actions.values())
        duties = ingress_duties(current)
        streams = ingress_streams(current, weights)
        for key in keys:
            action = actions[key]
            chain = None
            if (
                action.method is RepairMethod.RECONSTRUCTION
                and action.pipelined
            ):
                chain = order_chain(action.sources, weights, duties)
                if any(
                    streams[node] > 1
                    for node in (*chain[1:], action.destination)
                ):
                    self._shared_ingress_counter.inc()
            self._issue_action(
                action, chain, chunk_size, packet_size, attempts[key]
            )
        return max(streams.values())

    def _issue_action(
        self,
        action: ChunkRepairAction,
        chain: Optional[List[NodeId]],
        chunk_size: int,
        packet_size: int,
        attempt: int,
    ) -> None:
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
        coeffs = self._source_coefficients(action)
        if chain is None:
            chains = [[node] for node in action.sources]
            sources = coeffs
        else:
            chains = [chain]
            sources = {chain[-1]: 1}
            slices = self.config.pipeline_slices
            if slices > 0:
                packet_size = max(1, -(-chunk_size // slices))
        # The ReceiveCommand must precede any data packet; per-inbox
        # FIFO plus issuing it first guarantees that.
        self.network.send(
            self.coordinator_id,
            action.destination,
            ReceiveCommand(
                stripe_id=action.stripe_id,
                chunk_index=action.chunk_index,
                chunk_size=chunk_size,
                packet_size=packet_size,
                sources=sources,
                attempt=attempt,
                epoch=self.epoch,
                reply_to=self.coordinator_id,
            ),
        )
        for stages in chains:
            # Register stages downstream-first so each hop (usually)
            # exists before its upstream starts; late packets buffer
            # regardless.
            for pos in reversed(range(len(stages))):
                node = stages[pos]
                self.network.send(
                    self.coordinator_id,
                    node,
                    SendCommand(
                        stripe_id=action.stripe_id,
                        chunk_index=action.chunk_index,
                        destination=(
                            stages[pos + 1]
                            if pos + 1 < len(stages)
                            else action.destination
                        ),
                        packet_size=packet_size,
                        chunk_size=chunk_size,
                        attempt=attempt,
                        epoch=self.epoch,
                        reply_to=self.coordinator_id,
                        coeff=1 if chain is None else coeffs[node],
                        upstream=stages[pos - 1] if pos else -1,
                        chain_pos=-1 if chain is None else pos,
                    ),
                )

    def _chain_weights(self) -> Dict[NodeId, float]:
        """Effective link scale per node, for :func:`order_chain`.

        Folds the fault plan's slow-NIC scales (via
        :meth:`~repro.runtime.faults.FaultPlan.link_bandwidths`, the
        same numbers the injector applies to the NIC limiters and the
        cost model prices) with runtime-observed degradation from
        probe-surviving stalls.  Nodes absent from the result run at
        full speed.
        """
        weights: Dict[NodeId, float] = {}
        faults = getattr(self.network, "faults", None)
        plan = getattr(faults, "plan", None)
        if plan is not None:
            weights.update(plan.link_bandwidths())
        for node, scale in self._observed_scales.items():
            weights[node] = weights.get(node, 1.0) * scale
        return weights

    def _source_coefficients(
        self, action: ChunkRepairAction
    ) -> Dict[NodeId, int]:
        if action.method is RepairMethod.MIGRATION:
            return {action.sources[0]: 1}
        stripe = self.cluster.stripe(action.stripe_id)
        helper_chunks = [stripe.chunk_index_on(node) for node in action.sources]
        coeffs = self.codec.recovery_coefficients(
            action.chunk_index, helper_chunks
        )
        return {
            node: coeffs[stripe.chunk_index_on(node)] for node in action.sources
        }
