"""Always-on repair daemon: monitor -> queue -> coordinator, supervised.

The paper's evaluation runs FastPR as one-shot repairs; a deployed
cluster instead runs a *daemon* that never stops: it watches SMART
telemetry day by day (:class:`~repro.failure.monitor.ClusterFailureMonitor`),
enqueues a predictive repair when a node degrades and a reactive
repair when one dies unannounced, and drains the queue through the
existing coordinator runtime with bounded retry + exponential backoff.

Degradation policy (the paper's free-node assumption under pressure):
reactive repairs — actual data below full redundancy — always admit
first; predictive repairs defer while reactive work is queued, and,
when a per-day helper budget is configured, stop admitting once the
day's budget is spent.

Crash safety: every queue transition is journaled write-ahead to a
CRC-framed log (:class:`DaemonJournal`, same on-disk framing as the
coordinator's :mod:`~repro.runtime.journal`).  A daemon that dies —
via the deterministic :class:`~repro.runtime.faults.DaemonCrashFault`,
or together with its coordinator
(:class:`~repro.runtime.journal.CoordinatorCrash`) — restarts by
rebuilding its queue from the journal and calling :meth:`RepairDaemon.resume`:
completed tasks are never re-executed, the interrupted one is finished
through coordinator journal recovery
(:meth:`~repro.runtime.driver.RepairDriver.build` with ``resume=True``),
and the remainder drains normally, ending in a cluster byte-identical
to a fault-free run.

Observability: queue depth, repairs in flight, per-kind task outcomes,
retries, deferrals, scrub findings and chunks restored are exported
through the testbed's :class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..cluster.chunk import NodeId
from ..core.plan import RepairPlan, RepairScenario
from ..core.planner import FastPRPlanner, apply_plan
from ..core.reactive import plan_failed_node_repair
from ..failure.monitor import ClusterFailureMonitor, MissedFailure, MonitorReport, StfEvent
from .journal import CoordinatorCrash, encode_frame, read_frames
from .scrub import Scrubber


class DaemonCrash(RuntimeError):
    """Injected daemon death (:class:`DaemonCrashFault` tripped)."""

    def __init__(self, tasks_completed: int):
        self.tasks_completed = tasks_completed
        super().__init__(
            f"repair daemon crashed after task {tasks_completed}"
        )


@dataclass(frozen=True)
class RepairTask:
    """One queued whole-node repair.

    Attributes:
        task_id: monotonically increasing id (journal correlation key).
        node_id: the node to repair.
        kind: ``"predictive"`` (STF drain) or ``"reactive"``
            (post-failure reconstruction).
        day: monitor day the task was enqueued.
        disk_id: the alarming/failing disk behind the task (-1 when
            unknown).
        attempts: executions so far (for bounded retry).
    """

    task_id: int
    node_id: NodeId
    kind: str
    day: int
    disk_id: int = -1
    attempts: int = 0

    #: admission priority — reactive (real data loss) preempts predictive
    PRIORITY = {"reactive": 0, "predictive": 1}

    def __post_init__(self):
        if self.kind not in self.PRIORITY:
            raise ValueError(f"unknown task kind {self.kind!r}")

    @property
    def sort_key(self):
        return (self.PRIORITY[self.kind], self.task_id)


class DaemonJournal:
    """Append-only CRC-framed log of daemon queue transitions.

    Same frame code as the coordinator journal
    (:func:`~repro.runtime.journal.encode_frame`,
    :func:`~repro.runtime.journal.read_frames`), but records are plain dicts
    with a ``"type"`` key — the daemon's vocabulary is small and flat:

    * ``task_enqueued`` — task_id, node_id, kind, day, disk_id
    * ``task_started`` — task_id, attempt
    * ``task_completed`` — task_id, chunks
    * ``task_failed`` — task_id, attempt, error (one bounded retry step)
    * ``task_abandoned`` — task_id (retries exhausted)
    * ``day_observed`` — day (monitor progress watermark)
    * ``scrub_completed`` — day, corrupt, repaired

    Opening a journal replays it first: complete frames become
    :attr:`recovered`; a torn tail (crash mid-write) is truncated so
    appends continue from the last durable record.  ``fsync`` is the
    coordinator journal's policy (``"always"`` or ``"never"``, see
    :attr:`~repro.runtime.config.RuntimeConfig.journal_fsync`).
    """

    def __init__(self, path: Path, fsync: str = "always"):
        self.path = Path(path)
        self.fsync = fsync
        self.recovered: List[dict] = self.replay(self.path)
        self._file = open(self.path, "ab")
        #: records appended by this incarnation
        self.records_written = 0

    @staticmethod
    def replay(path: Path, truncate: bool = True) -> List[dict]:
        """Read every complete record; truncate a torn tail."""
        return read_frames(
            path, lambda payload: json.loads(payload.decode("utf-8")), truncate
        )

    def append(self, type: str, **fields) -> dict:
        record = {"type": type, **fields}
        payload = json.dumps(record, sort_keys=True).encode("utf-8")
        self._file.write(encode_frame(payload))
        self._file.flush()
        if self.fsync == "always":
            os.fsync(self._file.fileno())
        self.records_written += 1
        return record

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


def _queue_state(records: List[dict]):
    """Derive (pending tasks, interrupted task ids, last day) from a log."""
    tasks: Dict[int, RepairTask] = {}
    started: Dict[int, int] = {}
    finished: set = set()
    last_day = -1
    for record in records:
        kind = record["type"]
        if kind == "task_enqueued":
            tasks[record["task_id"]] = RepairTask(
                task_id=record["task_id"],
                node_id=record["node_id"],
                kind=record["kind"],
                day=record["day"],
                disk_id=record.get("disk_id", -1),
            )
        elif kind == "task_started":
            started[record["task_id"]] = record.get("attempt", 1)
        elif kind in ("task_completed", "task_abandoned"):
            finished.add(record["task_id"])
        elif kind == "task_failed":
            # the attempt ended cleanly (exception caught, backoff
            # scheduled): the task is queued again, not in flight
            started.pop(record["task_id"], None)
        elif kind == "day_observed":
            last_day = max(last_day, record["day"])
    pending = [
        replace(task, attempts=started.get(task_id, 0))
        for task_id, task in sorted(tasks.items())
        if task_id not in finished
    ]
    interrupted = [
        t.task_id for t in pending if t.task_id in started
    ]
    return pending, interrupted, last_day


class RepairDaemon:
    """Supervised loop: observe telemetry, queue repairs, execute them.

    Args:
        testbed: a started :class:`~repro.runtime.testbed.EmulatedTestbed`
            (data loaded); repairs execute through its coordinator.
        monitor: the failure monitor bound to the same cluster.  The
            daemon drives it incrementally via
            :meth:`~repro.failure.monitor.ClusterFailureMonitor.observe_day`
            and re-arms nodes with ``complete_repair`` when their
            repair lands.
        journal_path: the daemon queue journal; defaults to
            ``testbed.workdir / "daemon.journal"``.  Opening an
            existing journal recovers its queue — call :meth:`resume`
            before :meth:`run` after a crash.  It is fsynced under the
            testbed's ``config.journal_fsync``, like every repair
            journal.
        scenario: repair scenario for planned repairs.
        seed: planner seed (kept fixed so replanning after a crash is
            deterministic).
        helper_budget: max repairs admitted per observed day; ``None``
            = unbounded.  When the day's budget is spent, *reactive*
            repairs are still admitted (redundancy is already lost) and
            predictive repairs defer to the next day.
        max_attempts: bounded retry per task before it is abandoned.
        sleep: injectable backoff sleeper (tests pass a no-op).
    """

    def __init__(
        self,
        testbed,
        monitor: ClusterFailureMonitor,
        journal_path: Optional[Path] = None,
        scenario: RepairScenario = RepairScenario.SCATTERED,
        seed: int = 0,
        helper_budget: Optional[int] = None,
        scrub_interval_days: int = 0,
        max_attempts: int = 3,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if helper_budget is not None and helper_budget < 1:
            raise ValueError("helper_budget must be >= 1 (or None)")
        self.testbed = testbed
        self.monitor = monitor
        self.scenario = scenario
        self.seed = seed
        self.helper_budget = helper_budget
        self.scrub_interval_days = scrub_interval_days
        self.max_attempts = max_attempts
        self._sleep = sleep
        self.journal = DaemonJournal(
            Path(journal_path)
            if journal_path is not None
            else testbed.workdir / "daemon.journal",
            fsync=testbed.config.journal_fsync,
        )
        pending, interrupted, last_day = _queue_state(self.journal.recovered)
        self.queue: List[RepairTask] = pending
        self._interrupted: List[int] = interrupted
        self._task_seq = max(
            [r.get("task_id", -1) for r in self.journal.recovered] or [-1]
        ) + 1
        self.next_day = last_day + 1
        self.report = MonitorReport()
        self._completed_tasks = 0
        self._repairs_today = 0
        # Shared with the injector (not copied): a fault fires once per
        # testbed, so a successor daemon does not re-trip the crash its
        # predecessor already consumed.
        self._crash_faults = (
            testbed.faults.daemon_crashes_pending
            if testbed.faults is not None
            else []
        )
        metrics = testbed.metrics
        self._queue_gauge = metrics.gauge(
            "daemon_queue_depth", "repair tasks waiting in the daemon queue"
        )
        self._inflight_gauge = metrics.gauge(
            "daemon_repairs_in_flight", "repairs currently executing"
        )
        self._day_gauge = metrics.gauge(
            "daemon_day", "last telemetry day observed"
        )
        self._tasks_total = metrics.counter(
            "daemon_tasks_total", "repair tasks by kind and outcome"
        )
        self._retries_total = metrics.counter(
            "daemon_retries_total", "repair attempts beyond the first"
        )
        self._deferred_total = metrics.counter(
            "daemon_deferred_total",
            "predictive repairs deferred by the helper budget",
        )
        self._chunks_total = metrics.counter(
            "daemon_chunks_repaired_total", "chunks restored by daemon repairs"
        )
        self._scrub_corrupt_total = metrics.counter(
            "daemon_scrub_corrupt_total", "latent corrupt chunks found by scrub"
        )
        self._scrub_repaired_total = metrics.counter(
            "daemon_scrub_repaired_total", "corrupt chunks restored by scrub"
        )
        self._queue_gauge.set(len(self.queue))

    # -- queue -----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    @property
    def completed_tasks(self) -> int:
        """Repairs completed by this incarnation."""
        return self._completed_tasks

    def enqueue(self, node_id: NodeId, kind: str, day: int, disk_id: int = -1) -> RepairTask:
        """Journal and queue one repair task."""
        task = RepairTask(
            task_id=self._task_seq, node_id=node_id, kind=kind, day=day,
            disk_id=disk_id,
        )
        self._task_seq += 1
        self.journal.append(
            "task_enqueued",
            task_id=task.task_id,
            node_id=task.node_id,
            kind=task.kind,
            day=task.day,
            disk_id=task.disk_id,
        )
        self.queue.append(task)
        self._queue_gauge.set(len(self.queue))
        return task

    def _next_task(self) -> Optional[RepairTask]:
        if not self.queue:
            return None
        task = min(self.queue, key=lambda t: t.sort_key)
        if (
            task.kind == "predictive"
            and self.helper_budget is not None
            and self._repairs_today >= self.helper_budget
        ):
            # Budget exhausted: predictive repairs can wait a day;
            # reactive ones (sorted first) would already have won.
            self._deferred_total.inc(len(self.queue))
            return None
        return task

    def pump(self) -> int:
        """Drain the queue as far as policy allows; returns repairs run."""
        executed = 0
        while True:
            task = self._next_task()
            if task is None:
                return executed
            self.queue.remove(task)
            self._queue_gauge.set(len(self.queue))
            self._execute(task)
            executed += 1
            self._repairs_today += 1

    # -- execution -------------------------------------------------------

    def _plan_for(self, task: RepairTask) -> RepairPlan:
        if task.kind == "reactive":
            return plan_failed_node_repair(
                self.testbed.cluster,
                task.node_id,
                scenario=self.scenario,
                seed=self.seed,
            )
        return FastPRPlanner(scenario=self.scenario, seed=self.seed).plan(
            self.testbed.cluster, task.node_id
        )

    def _execute(self, task: RepairTask) -> None:
        attempt = task.attempts
        last_error: Optional[Exception] = None
        while attempt < self.max_attempts:
            attempt += 1
            self.journal.append(
                "task_started", task_id=task.task_id, attempt=attempt
            )
            if attempt > 1:
                self._retries_total.inc(kind=task.kind)
                self._sleep(self.testbed.config.backoff(attempt - 1))
            self._inflight_gauge.set(1)
            try:
                plan = self._plan_for(task)
                result = self.testbed.execute(plan)
                self.testbed.verify_plan(plan, result)
            except (CoordinatorCrash, DaemonCrash):
                self._inflight_gauge.set(0)
                raise  # the daemon dies with its coordinator
            except Exception as exc:  # noqa: BLE001 - bounded retry
                self._inflight_gauge.set(0)
                last_error = exc
                self.journal.append(
                    "task_failed",
                    task_id=task.task_id,
                    attempt=attempt,
                    error=repr(exc),
                )
                continue
            self._inflight_gauge.set(0)
            self._finalize(task, plan)
            return
        self.journal.append("task_abandoned", task_id=task.task_id)
        self._tasks_total.inc(kind=task.kind, outcome="abandoned")
        if last_error is not None:
            raise last_error

    def _finalize(self, task: RepairTask, plan: RepairPlan) -> None:
        """Commit a verified repair: metadata, monitor re-arm, journal."""
        chunks = len(list(plan.actions()))
        apply_plan(self.testbed.cluster, plan)
        node = self.testbed.cluster.node(task.node_id)
        if node.is_stf:
            # Replacement-in-place: the drained disk is swapped for a
            # fresh one under the same node id, so the node rejoins as
            # a healthy (empty) destination/helper candidate.  A node
            # that actually *failed* stays failed — dead hardware does
            # not rejoin; its chunks now live elsewhere.
            node.mark_healthy()
        self.monitor.complete_repair(task.node_id)
        self.journal.append(
            "task_completed", task_id=task.task_id, chunks=chunks
        )
        self._tasks_total.inc(kind=task.kind, outcome="completed")
        self._chunks_total.inc(chunks)
        self._completed_tasks += 1
        if (
            self._crash_faults
            and self._completed_tasks >= self._crash_faults[0].after_tasks
        ):
            self._crash_faults.pop(0)
            raise DaemonCrash(self._completed_tasks)

    # -- crash recovery --------------------------------------------------

    def resume(self) -> List[RepairTask]:
        """Finish work a dead predecessor left behind; returns its queue.

        Tasks journaled complete are *not* re-executed.  A task that
        was started but neither completed nor failed was cut by a
        coordinator (or daemon) death mid-execute: it is finished
        through coordinator journal recovery
        (``testbed.build(resume=True)`` + ``testbed.resume()``) when
        a repair journal exists, else re-executed from scratch.  The
        remaining pending tasks stay queued for :meth:`run` / :meth:`pump`.
        """
        recovered = list(self.queue)
        for task_id in list(self._interrupted):
            task = next(t for t in self.queue if t.task_id == task_id)
            self.queue.remove(task)
            self._queue_gauge.set(len(self.queue))
            self._interrupted.remove(task_id)
            journal_path = self.testbed.journal_path
            if journal_path is not None and Path(journal_path).exists():
                self.testbed.build(resume=True)
                self.testbed.resume()
                # The executed plan is reproducible: planner seed and
                # cluster metadata are unchanged until _finalize.
                plan = self._plan_for(task)
                self.testbed.verify_plan(plan)
                self._finalize(task, plan)
            else:
                self._execute(task)
        return recovered

    # -- main loop -------------------------------------------------------

    def observe_day(self, day: int) -> None:
        """Feed one telemetry day through the monitor into the queue."""

        def on_stf(event: StfEvent) -> None:
            self.enqueue(event.node_id, "predictive", day, event.disk_id)

        def on_failure(missed: MissedFailure) -> None:
            self.enqueue(missed.node_id, "reactive", day, missed.disk_id)

        self.monitor.observe_day(
            day, self.report, on_stf=on_stf, on_failure=on_failure
        )
        self.journal.append("day_observed", day=day)
        self._day_gauge.set(day)

    def scrub(self, day: int) -> None:
        """One scrub cycle: find latent corruption, repair it in place.

        The cycle runs as a registered ``scrub`` flow when the testbed
        carries a :class:`repro.gateway.TrafficArbiter`, so scrub
        traffic is paced against the client bandwidth floor.
        """
        arbiter = getattr(self.testbed, "arbiter", None)
        flow = (
            arbiter.register("scrub")
            if arbiter is not None
            else nullcontext()
        )
        with flow:
            report = Scrubber(self.testbed).scrub()
        self._scrub_corrupt_total.inc(len(report.corrupt))
        self._scrub_repaired_total.inc(len(report.repaired))
        self.journal.append(
            "scrub_completed",
            day=day,
            corrupt=len(report.corrupt),
            repaired=len(report.repaired),
        )

    def run(self, max_days: Optional[int] = None) -> MonitorReport:
        """Observe telemetry days until the horizon, draining the queue.

        Continues from where the journal left off (``next_day``); a
        crashed daemon re-run therefore never re-observes a day it
        already journaled.  Raises
        :class:`~repro.runtime.journal.CoordinatorCrash` /
        :class:`DaemonCrash` when an injected death triggers — callers
        then build a successor on the same journal and :meth:`resume`.
        """
        horizon = self.monitor.horizon
        if max_days is not None:
            horizon = min(horizon, self.next_day + max_days)
        for day in range(self.next_day, horizon):
            self.next_day = day + 1
            self._repairs_today = 0
            self.observe_day(day)
            if (
                self.scrub_interval_days > 0
                and day > 0
                and day % self.scrub_interval_days == 0
            ):
                self.scrub(day)
            self.pump()
        return self.report

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "RepairDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
