"""Sharded multi-coordinator repair that survives correlated failures.

A single coordinator is a single point of control-plane failure: one
rack losing power can take out the coordinator *and* a batch of agents
in the same instant, and the whole repair stalls until something
notices.  :class:`MultiCoordinator` shards the stripe space across
``N`` coordinators (consistent hash, :class:`~repro.core.plan.ShardMap`)
so the blast radius of a coordinator death is one shard — and hands a
dead shard to a survivor automatically.

Design:

* **Stable shard identity.**  Shard ``k``'s coordinator lives at
  transport endpoint ``-(k + 1)`` (:func:`shard_coordinator_id`)
  forever.  A takeover re-attaches a successor at the *same* endpoint
  under a bumped epoch; the per-endpoint fencing agents already do for
  single-coordinator recovery then fences the dead incarnation with no
  new protocol.
* **Own journal + epoch per shard.**  Each shard appends to
  ``<journal_dir>/shard-<k>.journal``.  Takeover is exactly
  :meth:`~repro.runtime.coordinator.Coordinator.recover` + ``resume()``
  on that file, plus a :class:`~repro.runtime.journal.ShardTakeover`
  record so the journal itself shows who owned the shard when.
* **Leases detect wedged (not just dead) owners.**  Every shard
  coordinator renews a lease whenever it wakes, at most
  ``poll_interval`` apart whatever it waits on (ACKs, probes, retry
  backoff, the helper budget).  The supervisor treats a dead thread
  *or* an expired lease as a crashed owner; a live zombie is first
  killed through its journal (``kill_on_next_append``) so it can never
  append — much less act — after its successor takes over.
* **Shared helper budget.**  Shards advance through their round
  sequences independently, so two shards may want the same helper at
  once.  All shard coordinators share one
  :class:`~repro.core.scheduling.HelperBudget`; rounds queue in
  deadline-priority order instead of stampeding the same NICs.

Correlated failures enter through the fault injector: a
:class:`~repro.runtime.faults.DomainCrashFault` crashes a whole rack of
agents and, via the injector's ``on_kill_coordinator`` callback,
arms the co-located shard coordinator's journal to die at its next
write-ahead append — the same window a real process death leaves.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Union

from ..cluster.cluster import StorageCluster
from ..core.plan import RepairPlan, ShardMap, split_plan
from ..core.scheduling import HelperBudget
from ..ec.codec import ErasureCodec
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .config import DEFAULT_CONFIG, RuntimeConfig
from .coordinator import Coordinator, RuntimeResult, shard_coordinator_id
from .journal import CoordinatorCrash, RepairJournal, ShardTakeover
from .transport import Network


class ShardFailedError(RuntimeError):
    """A shard became unrecoverable (no survivor, or takeover storm)."""


class LeaseTable:
    """Last-renewal timestamps per shard, with an expiry test.

    Thread-safe.  A lease is *held* from :meth:`renew` until
    ``timeout`` seconds pass without another renewal; the supervisor
    treats expiry as owner death.  ``revoke`` forgets a shard so a
    successor starts with a fresh lease.
    """

    def __init__(self, timeout: float):
        if timeout <= 0:
            raise ValueError("lease timeout must be positive")
        self.timeout = timeout
        self._lock = threading.Lock()
        self._renewed: Dict[int, float] = {}

    def renew(self, shard: int) -> None:
        with self._lock:
            self._renewed[shard] = time.monotonic()

    def expired(self, shard: int) -> bool:
        with self._lock:
            last = self._renewed.get(shard)
        if last is None:
            return False  # never renewed: grant the grace of a fresh start
        return time.monotonic() - last > self.timeout

    def revoke(self, shard: int) -> None:
        with self._lock:
            self._renewed.pop(shard, None)


@dataclass(frozen=True)
class TakeoverEvent:
    """One shard ownership handoff, as reported to the caller."""

    shard: int
    adopter: int
    epoch: int


@dataclass
class MultiRepairResult:
    """Outcome of a sharded repair run.

    ``per_shard`` holds each shard's *final incarnation's* result —
    after a takeover that result already folds in the chunks the dead
    incarnation completed (``recovered_chunks``) and lists every
    executed action of the shard, so verification needs no cross-
    incarnation merging.
    """

    total_time: float
    per_shard: Dict[int, RuntimeResult] = field(default_factory=dict)
    takeovers: List[TakeoverEvent] = field(default_factory=list)

    @property
    def chunks_repaired(self) -> int:
        return sum(r.chunks_repaired for r in self.per_shard.values())

    @property
    def recovered_chunks(self) -> int:
        return sum(r.recovered_chunks for r in self.per_shard.values())

    @property
    def executed_actions(self):
        actions = []
        for shard in sorted(self.per_shard):
            actions.extend(self.per_shard[shard].executed_actions)
        return actions

    @property
    def degraded(self) -> bool:
        return bool(self.takeovers) or any(
            r.degraded for r in self.per_shard.values()
        )

    # Aggregates over the shards, so a MultiRepairResult can stand in
    # for a RuntimeResult wherever a run summary is written.

    @property
    def round_times(self) -> List[float]:
        times: List[float] = []
        for shard in sorted(self.per_shard):
            times.extend(self.per_shard[shard].round_times)
        return times

    @property
    def bytes_transferred(self) -> int:
        return sum(r.bytes_transferred for r in self.per_shard.values())

    @property
    def retries(self) -> int:
        return sum(r.retries for r in self.per_shard.values())

    @property
    def replans(self) -> int:
        return sum(r.replans for r in self.per_shard.values())

    @property
    def nacks(self) -> int:
        return sum(r.nacks for r in self.per_shard.values())

    @property
    def converted_migrations(self) -> int:
        return sum(r.converted_migrations for r in self.per_shard.values())

    @property
    def resplit_chunks(self) -> int:
        return sum(r.resplit_chunks for r in self.per_shard.values())

    @property
    def dead_nodes(self) -> List[int]:
        dead: Set[int] = set()
        for r in self.per_shard.values():
            dead.update(r.dead_nodes)
        return sorted(dead)


class _ShardRun:
    """One incarnation of one shard's coordinator, on its own thread."""

    def __init__(self, shard: int, coordinator: Coordinator, work: Callable):
        self.shard = shard
        self.coordinator = coordinator
        self.result: Optional[RuntimeResult] = None
        self.error: Optional[BaseException] = None
        self.thread = threading.Thread(
            target=self._main, args=(work,), name=f"shard-coordinator-{shard}",
            daemon=True,
        )

    def _main(self, work: Callable) -> None:
        try:
            self.result = work()
        except BaseException as exc:  # noqa: BLE001 - reported to supervisor
            self.error = exc


class MultiCoordinator:
    """Drives one repair plan through ``num_shards`` shard coordinators.

    Args:
        network: shared transport; every shard coordinator attaches at
            its :func:`shard_coordinator_id` endpoint (shard 0 keeps
            the conventional ``-1``, so agents' heartbeat target stays
            valid).
        cluster / codec / packet_size / config / metrics / tracer: as
            for :class:`~repro.runtime.coordinator.Coordinator`; shared
            by every shard.
        journal_dir: directory holding one write-ahead journal per
            shard (``shard-<k>.journal``); created if absent.
        num_shards: coordinator count; stripe ownership is
            ``ShardMap(num_shards)``.
        budget: shared helper/NIC budget; a fresh
            ``HelperBudget(per_node=1)`` (the paper's free-node
            assumption) is created when omitted and ``num_shards > 1``.
        max_takeovers: hard cap on total takeovers before the run
            fails loudly instead of crash-looping.
    """

    def __init__(
        self,
        network: Network,
        cluster: StorageCluster,
        codec: ErasureCodec,
        packet_size: int,
        journal_dir: Union[str, Path],
        num_shards: int = 2,
        config: Optional[RuntimeConfig] = None,
        budget: Optional[HelperBudget] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        max_takeovers: Optional[int] = None,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.network = network
        self.cluster = cluster
        self.codec = codec
        self.packet_size = packet_size
        self.config = config or DEFAULT_CONFIG
        self.shard_map = ShardMap(num_shards)
        self.journal_dir = Path(journal_dir)
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        if budget is None and num_shards > 1:
            budget = HelperBudget(per_node=1)
        self.budget = budget
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.max_takeovers = (
            max_takeovers if max_takeovers is not None else 2 * num_shards + 2
        )
        self.lease = LeaseTable(self.config.lease_timeout)
        self._takeovers_counter = self.metrics.counter(
            "coord_takeovers_total",
            "shard ownership handoffs after a coordinator death, by shard",
        )
        self._shards_gauge = self.metrics.gauge(
            "coord_active_shards", "shard coordinators currently running"
        )
        #: serializes kill requests against takeover re-registration
        self._lock = threading.Lock()
        self._active: Dict[int, _ShardRun] = {}
        self._pending_kills: Set[int] = set()
        self.takeovers: List[TakeoverEvent] = []

    # -- fault-injection surface ---------------------------------------

    def kill_shard(self, shard: int) -> None:
        """Arm shard ``shard``'s coordinator to die at its next append.

        The :class:`~repro.runtime.faults.FaultInjector` calls this for
        coordinators co-located in a dying failure domain.  A kill that
        lands mid-takeover (no incarnation registered right now) is
        remembered and armed on the successor — the
        coordinator-kill-during-takeover window is covered, not raced.
        """
        with self._lock:
            run = self._active.get(shard)
            if run is None or run.coordinator.journal is None:
                self._pending_kills.add(shard)
                return
            run.coordinator.journal.kill_on_next_append()

    def journal_path(self, shard: int) -> Path:
        return self.journal_dir / f"shard-{shard}.journal"

    # -- the run ---------------------------------------------------------

    def execute(
        self, plan: RepairPlan, packet_size: Optional[int] = None
    ) -> MultiRepairResult:
        """Split ``plan`` across the shards and run them to completion.

        Blocks until every shard finished (taking over crashed shards
        along the way) or the run is unrecoverable.

        Raises:
            ShardFailedError: every shard's owner died with no survivor
                left to adopt, or the takeover cap was exceeded.
        """
        packet = packet_size or self.packet_size
        sub_plans = split_plan(plan, self.shard_map)
        start = time.monotonic()
        attrs = dict(
            stf=plan.stf_node,
            scenario=plan.scenario.value,
            shards=self.shard_map.num_shards,
            chunks=plan.total_chunks,
        )
        with self.tracer.span("multi_repair", **attrs) as span:
            outcome = self._supervise(sub_plans, packet)
            span.annotate(takeovers=len(outcome.takeovers))
        outcome.total_time = time.monotonic() - start
        return outcome

    def _supervise(
        self, sub_plans: List[RepairPlan], packet: int
    ) -> MultiRepairResult:
        outcome = MultiRepairResult(total_time=0.0)
        for shard, sub_plan in enumerate(sub_plans):
            coordinator = self._coordinator(shard)
            self._spawn(
                shard, coordinator, partial(coordinator.execute, sub_plan, packet)
            )
        try:
            while self._active:
                self._sweep(outcome)
                time.sleep(self.config.poll_interval / 4)
        finally:
            self._shards_gauge.set(0)
        return outcome

    def _sweep(self, outcome: MultiRepairResult) -> None:
        """One supervision pass: collect the dead, fence the wedged."""
        with self._lock:
            runs = list(self._active.items())
        self._shards_gauge.set(len(runs))
        for shard, run in runs:
            if run.thread.is_alive():
                if self.lease.expired(shard):
                    # Wedged zombie: make sure it cannot append (and so
                    # cannot have acted on un-journaled state) after the
                    # successor exists, then treat it as dead.  It will
                    # raise CoordinatorCrash at its next write-ahead.
                    if run.coordinator.journal is not None:
                        run.coordinator.journal.kill_on_next_append()
                    self.lease.revoke(shard)
                continue
            run.thread.join()
            with self._lock:
                if self._active.get(shard) is not run:
                    continue  # replaced while we looked; next sweep sees it
                del self._active[shard]
            if run.error is None:
                outcome.per_shard[shard] = run.result
                self.lease.revoke(shard)
            elif isinstance(run.error, CoordinatorCrash):
                self._take_over(shard, run, outcome)
            else:
                raise run.error

    def _take_over(
        self, shard: int, dead: _ShardRun, outcome: MultiRepairResult
    ) -> None:
        if len(self.takeovers) >= self.max_takeovers:
            raise ShardFailedError(
                f"shard {shard} crashed but the takeover cap "
                f"({self.max_takeovers}) is exhausted"
            ) from dead.error
        adopter = self._choose_adopter(shard, outcome)
        if adopter is None:
            raise ShardFailedError(
                f"shard {shard} crashed with no surviving coordinator "
                "to adopt it"
            ) from dead.error
        dead.coordinator.close()
        try:
            self.network.detach(shard_coordinator_id(shard))
        except KeyError:
            pass
        successor = self._coordinator(shard, recover=True)
        # Journaled before any re-issued command: the shard's own log
        # records the handoff and the epoch it happened under.
        successor.journal.append(ShardTakeover(successor.epoch, shard, adopter))
        event = TakeoverEvent(shard=shard, adopter=adopter, epoch=successor.epoch)
        self.takeovers.append(event)
        outcome.takeovers.append(event)
        self._takeovers_counter.inc(shard=shard)
        self.lease.renew(shard)
        self._spawn(shard, successor, successor.resume)

    def _choose_adopter(
        self, dead_shard: int, outcome: MultiRepairResult
    ) -> Optional[int]:
        """Lowest-index shard that is still healthy (running or done).

        The adopter is accountability, not extra work: the successor
        runs on its own thread either way.  ``None`` means nobody
        survived — the whole control plane is gone and the run fails.
        """
        with self._lock:
            alive = {
                shard
                for shard, run in self._active.items()
                if shard != dead_shard and run.thread.is_alive()
            }
        survivors = alive | set(outcome.per_shard)
        survivors.discard(dead_shard)
        if not survivors:
            return None if self.shard_map.num_shards > 1 else -1
        return min(survivors)

    def _coordinator(self, shard: int, recover: bool = False) -> Coordinator:
        """Shard ``shard``'s next incarnation: fresh, or its journal's
        successor (epoch + 1, the journaled plan and packet size)."""
        path = self.journal_path(shard)
        shared = dict(
            config=self.config, metrics=self.metrics, tracer=self.tracer,
            coordinator_id=shard_coordinator_id(shard), shard=shard,
            budget=self.budget, lease_renew=lambda: self.lease.renew(shard),
        )
        if recover:
            return Coordinator.recover(
                path, self.network, self.cluster, self.codec, **shared
            )
        journal = RepairJournal(
            path, fsync=self.config.journal_fsync, metrics=self.metrics
        )
        return Coordinator(
            self.network, self.cluster, self.codec, self.packet_size,
            journal=journal, **shared,
        )

    def _spawn(self, shard: int, coordinator: Coordinator, work: Callable) -> None:
        """Start ``work`` on its own thread as ``shard``'s live incarnation."""
        run = _ShardRun(shard, coordinator, work)
        self.lease.renew(shard)
        with self._lock:
            self._active[shard] = run
            if shard in self._pending_kills and coordinator.journal is not None:
                self._pending_kills.discard(shard)
                coordinator.journal.kill_on_next_append()
        run.thread.start()

    def close(self) -> None:
        """Release every active incarnation's journal (idempotent)."""
        with self._lock:
            runs = list(self._active.values())
        for run in runs:
            run.coordinator.close()
