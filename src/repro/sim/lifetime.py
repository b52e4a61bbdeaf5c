"""Monte-Carlo cluster-lifetime simulation: durability over years.

The paper evaluates FastPR as one-shot repairs; the object it argues
about is a cluster living for *years* under a sustained failure
process, where predictive repair shrinks the window in which a stripe
sits below full redundancy.  This module measures that directly, in
the style of the regenerating-codes durability literature (Dimakis et
al.) and trace-driven reliability simulators: run many independent
trials of a simulated cluster lifetime and estimate the lost-stripe
probability — a stripe is lost when more than ``n - k`` of its chunks
are simultaneously unavailable — with and without predictive repair.

Failure inputs are pluggable processes producing per-disk
:class:`DiskEvent` streams:

* :class:`WeibullFailureProcess` — renewal process of Weibull disk
  lifetimes with an abstract detector (detection rate, lead-time
  distribution, false-alarm rate);
* :class:`TraceReplayProcess` — replays SMART traces
  (:class:`~repro.failure.smart.DiskTrace`, e.g. from
  ``failure.traces_io``) through a real
  :class:`~repro.failure.predictor.FailurePredictor`, tiling the fleet
  across the horizon, so alarms and misses come from the actual
  predictor, not a model of one.

Latent sector errors arrive as a Poisson process per disk and stay
invisible — and at risk — until a periodic scrub cycle (the
Monte-Carlo counterpart of :class:`repro.runtime.scrub.Scrubber`)
detects them and queues a targeted chunk repair.

The engine runs on the shared discrete-event scheduler
(:class:`repro.sim.events.Simulation` via ``schedule_at`` /
``run_until``); repair durations can be derived from the plan timer
:func:`repro.sim.evaluate_plan` (see :class:`LifetimeConfig`).
Repairs contend for a bounded crew (``repair_concurrency``) with the
daemon's degradation policy: reactive and scrub repairs admit first,
predictive repairs defer while the queue holds reactive work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .events import Simulation

__all__ = [
    "DiskEvent",
    "LifetimeConfig",
    "LifetimeReport",
    "LifetimeResult",
    "TraceReplayProcess",
    "WeibullFailureProcess",
    "durability_study",
    "run_lifetime",
]


@dataclass(frozen=True)
class DiskEvent:
    """One disk lifetime (or false alarm) produced by a failure process.

    Attributes:
        disk: the disk slot (0..num_disks-1) the event applies to.
        fail_day: day the disk actually fails; ``None`` for a false
            alarm (the detector fired but the disk survives).
        alarm_day: day the detector flags the disk; ``None`` for an
            unpredicted failure (reactive repair only).
    """

    disk: int
    fail_day: Optional[float]
    alarm_day: Optional[float]

    def __post_init__(self):
        if self.fail_day is None and self.alarm_day is None:
            raise ValueError("DiskEvent needs a failure or an alarm")
        if (
            self.fail_day is not None
            and self.alarm_day is not None
            and self.alarm_day > self.fail_day
        ):
            raise ValueError("alarm_day must not follow fail_day")


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's Poisson sampler (fine for the small rates used here)."""
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


class WeibullFailureProcess:
    """Renewal process of Weibull disk lifetimes + abstract detector.

    Each disk slot samples successive lifetimes from a Weibull
    distribution whose scale is set so the one-year failure probability
    equals ``annual_failure_rate`` (shape defaults to the
    slightly-increasing hazard reported by field studies).  When a disk
    fails it is replaced by a fresh one (renewal), so multi-year
    horizons age realistically.  A failure is predicted with
    probability ``detection_rate``, ``lead_days`` (Gaussian-jittered)
    ahead; false alarms arrive per disk-year at ``false_alarm_rate``.
    """

    name = "weibull"

    def __init__(
        self,
        shape: float = 1.12,
        annual_failure_rate: float = 0.04,
        detection_rate: float = 0.9,
        lead_days: float = 10.0,
        lead_jitter_days: float = 3.0,
        false_alarm_rate: float = 0.02,
    ):
        if shape <= 0:
            raise ValueError("shape must be positive")
        if not 0 < annual_failure_rate < 1:
            raise ValueError("annual_failure_rate must be in (0, 1)")
        if not 0 <= detection_rate <= 1:
            raise ValueError("detection_rate must be in [0, 1]")
        self.shape = shape
        self.annual_failure_rate = annual_failure_rate
        self.detection_rate = detection_rate
        self.lead_days = lead_days
        self.lead_jitter_days = lead_jitter_days
        self.false_alarm_rate = false_alarm_rate
        # P(T <= 365) = 1 - exp(-(365/scale)^shape) = AFR
        self.scale_days = 365.0 / (
            (-math.log(1.0 - annual_failure_rate)) ** (1.0 / shape)
        )

    def events(
        self, rng: random.Random, num_disks: int, horizon_days: float
    ) -> List[DiskEvent]:
        events: List[DiskEvent] = []
        for disk in range(num_disks):
            born = 0.0
            while True:
                life = rng.weibullvariate(self.scale_days, self.shape)
                fail = born + life
                if fail >= horizon_days:
                    break
                alarm: Optional[float] = None
                if rng.random() < self.detection_rate:
                    lead = max(
                        0.5, rng.gauss(self.lead_days, self.lead_jitter_days)
                    )
                    alarm = max(born, fail - lead)
                events.append(DiskEvent(disk, fail, alarm))
                born = fail  # replacement disk goes in service
            for _ in range(
                _poisson(rng, self.false_alarm_rate * horizon_days / 365.0)
            ):
                events.append(
                    DiskEvent(disk, None, rng.uniform(0.0, horizon_days))
                )
        return events


class TraceReplayProcess:
    """Replay a SMART trace fleet through a real failure predictor.

    Each disk slot replays traces drawn (with replacement) from the
    fleet, tiled end to end across the horizon; a slot whose trace
    fails is "replaced" by the next drawn trace.  Alarm days come from
    running ``predictor`` over each trace
    (:func:`~repro.failure.predictor.first_alarm_day`), so prediction
    quality — lead time, misses, false alarms — is whatever the
    predictor actually achieves on the data, computed once per distinct
    trace and cached.
    """

    name = "trace-replay"

    def __init__(self, traces: Sequence, predictor):
        if not traces:
            raise ValueError("trace replay needs a non-empty fleet")
        self.traces = list(traces)
        self.predictor = predictor
        self._profiles: Optional[List[Tuple[float, Optional[float], Optional[float]]]] = None

    def _trace_profiles(self):
        """Per-trace ``(span_days, fail_day, alarm_day)``, cached."""
        if self._profiles is None:
            from ..failure.predictor import first_alarm_day

            profiles = []
            for trace in self.traces:
                span = max(s.day for s in trace.samples) + 1.0
                alarm = first_alarm_day(self.predictor, trace)
                fail = trace.failure_day
                if (
                    fail is not None
                    and alarm is not None
                    and alarm >= fail
                ):
                    alarm = None  # an alarm on/after the failure is a miss
                profiles.append(
                    (span, None if fail is None else float(fail),
                     None if alarm is None else float(alarm))
                )
            self._profiles = profiles
        return self._profiles

    def events(
        self, rng: random.Random, num_disks: int, horizon_days: float
    ) -> List[DiskEvent]:
        profiles = self._trace_profiles()
        events: List[DiskEvent] = []
        for disk in range(num_disks):
            offset = 0.0
            while offset < horizon_days:
                span, fail, alarm = profiles[rng.randrange(len(profiles))]
                fail_at = None if fail is None else offset + fail
                alarm_at = None if alarm is None else offset + alarm
                if fail_at is not None and fail_at >= horizon_days:
                    fail_at = None  # survives the cut horizon
                if alarm_at is not None and alarm_at >= horizon_days:
                    alarm_at = None
                if fail_at is not None or alarm_at is not None:
                    events.append(DiskEvent(disk, fail_at, alarm_at))
                offset += span
        return events


@dataclass(frozen=True)
class LifetimeConfig:
    """Shape and policy knobs of one lifetime study.

    Repair durations default to conservative whole-disk rebuild times;
    time a FastPR and a reconstruction-only plan of one disk with
    :func:`repro.sim.evaluate_plan` (``total_time`` / 86400) for
    numbers tied to the modeled bandwidths.
    """

    num_disks: int = 30
    num_stripes: int = 120
    n: int = 9
    k: int = 6
    years: float = 1.0
    #: act on predictor alarms (FastPR mode) vs purely reactive repair
    predictive: bool = True
    #: simultaneous whole-disk repairs the cluster sustains
    repair_concurrency: int = 2
    #: FastPR drain of a still-readable (alarmed) disk, days
    predictive_repair_days: float = 0.25
    #: full reconstruction of a dead disk, days
    reactive_repair_days: float = 1.0
    #: detection + replacement lag before a reactive repair starts
    replacement_delay_days: float = 0.25
    #: targeted repair of one scrub-detected chunk, days
    chunk_repair_days: float = 0.02
    #: latent sector errors per disk-year (0 disables them)
    latent_errors_per_disk_year: float = 0.0
    #: scrub sweep period surfacing latent errors (0 disables scrub)
    scrub_interval_days: float = 14.0
    #: stripe placement RNG seed (placement is shared by all trials)
    placement_seed: int = 1

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise ValueError("need 1 <= k < n")
        if self.num_disks < self.n:
            raise ValueError("need at least n disks to place a stripe")
        if self.years <= 0 or self.num_stripes <= 0:
            raise ValueError("years and num_stripes must be positive")
        if self.repair_concurrency < 1:
            raise ValueError("repair_concurrency must be >= 1")

    @property
    def horizon_days(self) -> float:
        return self.years * 365.0

    @property
    def fault_tolerance(self) -> int:
        """Chunks a stripe can lose before data loss (``n - k``)."""
        return self.n - self.k

    def placement(self) -> List[Tuple[int, ...]]:
        """Deterministic stripe -> disk placement for this config."""
        rng = random.Random(self.placement_seed)
        return [
            tuple(rng.sample(range(self.num_disks), self.n))
            for _ in range(self.num_stripes)
        ]


@dataclass
class LifetimeResult:
    """Outcome of one simulated cluster lifetime (one trial)."""

    lost_stripes: int = 0
    disk_failures: int = 0
    predicted_failures: int = 0
    missed_failures: int = 0
    false_alarms: int = 0
    suppressed_alarms: int = 0
    latent_errors: int = 0
    scrub_detections: int = 0
    repairs_completed: Dict[str, int] = field(default_factory=dict)
    #: free repair slots given to reactive or chunk work while a
    #: predictive drain waited in the queue
    predictive_deferrals: int = 0
    max_queue_depth: int = 0
    #: time-weighted count of chunk-days below full redundancy
    chunk_days_at_risk: float = 0.0

    @property
    def data_loss(self) -> bool:
        return self.lost_stripes > 0


class _Job:
    """One queued repair: a whole disk (predictive/reactive) or a chunk."""

    __slots__ = ("kind", "disk", "event", "chunk", "enqueued", "seq")

    #: admission priority — reactive work first, predictive defers
    PRIORITY = {"reactive": 0, "chunk": 1, "predictive": 2}

    def __init__(self, kind, disk, event=None, chunk=None, enqueued=0.0, seq=0):
        self.kind = kind
        self.disk = disk
        self.event = event
        self.chunk = chunk
        self.enqueued = enqueued
        self.seq = seq

    @property
    def sort_key(self):
        return (self.PRIORITY[self.kind], self.seq)


class _LifetimeTrial:
    """One trial: wires events, scrub, and the repair queue together."""

    def __init__(
        self,
        config: LifetimeConfig,
        placement: List[Tuple[int, ...]],
        disk_stripes: Dict[int, List[int]],
        events: List[DiskEvent],
        rng: random.Random,
    ):
        self.config = config
        self.placement = placement
        self.disk_stripes = disk_stripes
        self.rng = rng
        self.sim = Simulation()
        self.result = LifetimeResult()
        self.horizon = config.horizon_days
        # -- cluster state -------------------------------------------------
        self.down: Dict[int, float] = {}  # disk -> down since (day)
        self.lost: Set[int] = set()
        self.latent: Dict[Tuple[int, int], float] = {}  # (stripe, slot) -> day
        self.latent_by_stripe: Dict[int, Set[int]] = {}
        # -- repair queue --------------------------------------------------
        self.queue: List[_Job] = []
        self.in_flight = 0
        self._seq = 0
        self._active_predictive: Dict[int, _Job] = {}
        self._drained: Set[int] = set()  # disks drained before their failure
        # -- schedule ------------------------------------------------------
        for event in events:
            if config.predictive and event.alarm_day is not None:
                self.sim.schedule_at(
                    event.alarm_day, lambda e=event: self._on_alarm(e)
                )
            if event.fail_day is not None:
                self.sim.schedule_at(
                    event.fail_day, lambda e=event: self._on_failure(e)
                )
        self._schedule_latent_errors()
        if config.scrub_interval_days > 0 and config.latent_errors_per_disk_year > 0:
            self.sim.schedule_at(config.scrub_interval_days, self._on_scrub)

    # -- event handlers ----------------------------------------------------

    def _on_alarm(self, event: DiskEvent) -> None:
        disk = event.disk
        if disk in self.down or disk in self._active_predictive:
            # Same dedupe-by-node policy as failure.monitor: a disk
            # already failed or already being drained gets no second
            # concurrent repair from a repeated alarm.
            self.result.suppressed_alarms += 1
            return
        job = self._enqueue(_Job("predictive", disk, event=event))
        self._active_predictive[disk] = job

    def _on_failure(self, event: DiskEvent) -> None:
        disk = event.disk
        self.result.disk_failures += 1
        if event.alarm_day is not None and self.config.predictive:
            self.result.predicted_failures += 1
        else:
            self.result.missed_failures += 1
        if disk in self._drained:
            # Predictive repair finished before the disk died: its data
            # already lives elsewhere, the failure costs nothing.  The
            # replacement disk enters service clean.
            self._drained.discard(disk)
            return
        self._mark_down(disk)
        pending = self._active_predictive.get(disk)
        if pending is not None and pending in self.queue:
            # The drain never started; it is now a reconstruction.
            self.queue.remove(pending)
            del self._active_predictive[disk]
            pending = None
        if pending is None:
            self._enqueue(
                _Job("reactive", disk, event=event),
                ready=self.sim.now + self.config.replacement_delay_days,
            )
        # else: the in-flight predictive drain doubles as the rebuild —
        # its completion brings the disk (well, its replacement) back.

    def _on_scrub(self) -> None:
        queued = {
            job.chunk for job in self.queue if job.kind == "chunk"
        }
        for chunk in sorted(self.latent):
            stripe, slot = chunk
            if chunk in queued:
                continue
            if self.placement[stripe][slot] in self.down:
                continue  # the disk rebuild will restore it anyway
            self.result.scrub_detections += 1
            self._enqueue(_Job("chunk", self.placement[stripe][slot], chunk=chunk))
        next_tick = self.sim.now + self.config.scrub_interval_days
        if next_tick <= self.horizon:
            self.sim.schedule_at(next_tick, self._on_scrub)

    def _on_latent_error(self, disk: int) -> None:
        stripes = self.disk_stripes.get(disk)
        if not stripes:
            return
        stripe = stripes[self.rng.randrange(len(stripes))]
        slot = self.placement[stripe].index(disk)
        key = (stripe, slot)
        if key in self.latent:
            return
        self.latent[key] = self.sim.now
        self.latent_by_stripe.setdefault(stripe, set()).add(slot)
        self.result.latent_errors += 1
        self._check_loss(stripe)

    # -- repair queue ------------------------------------------------------

    def _enqueue(self, job: _Job, ready: Optional[float] = None) -> _Job:
        job.enqueued = self.sim.now
        job.seq = self._seq = self._seq + 1
        if ready is not None and ready > self.sim.now:
            self.sim.schedule_at(ready, lambda: self._admit(job))
        else:
            self._admit(job)
        return job

    def _admit(self, job: _Job) -> None:
        self.queue.append(job)
        self._note_queue_depth()
        self._pump()

    def _pump(self) -> None:
        while self.in_flight < self.config.repair_concurrency and self.queue:
            job = min(self.queue, key=lambda j: j.sort_key)
            if job.kind != "predictive" and any(
                j.kind == "predictive" for j in self.queue
            ):
                # Degradation policy: reactive and chunk repairs take
                # every free slot; a waiting predictive drain defers.
                self.result.predictive_deferrals += 1
            self.queue.remove(job)
            self._note_queue_depth()
            self.in_flight += 1
            duration = {
                "predictive": self.config.predictive_repair_days,
                "reactive": self.config.reactive_repair_days,
                "chunk": self.config.chunk_repair_days,
            }[job.kind]
            self.sim.schedule_at(
                self.sim.now + duration, lambda j=job: self._complete(j)
            )

    def _complete(self, job: _Job) -> None:
        self.in_flight -= 1
        self.result.repairs_completed[job.kind] = (
            self.result.repairs_completed.get(job.kind, 0) + 1
        )
        if job.kind == "chunk":
            self._clear_latent(job.chunk)
        elif job.kind == "predictive":
            self._active_predictive.pop(job.disk, None)
            if job.disk in self.down:
                # The disk died mid-drain; finishing the job doubles as
                # the rebuild of the missed remainder.
                self._mark_up(job.disk)
            elif job.event is not None and job.event.fail_day is not None:
                self._drained.add(job.disk)
            if job.event is not None and job.event.fail_day is None:
                self.result.false_alarms += 1
        else:
            self._mark_up(job.disk)
        self._pump()

    # -- state transitions -------------------------------------------------

    def _mark_down(self, disk: int) -> None:
        if disk in self.down:
            return
        self.down[disk] = self.sim.now
        for stripe in self.disk_stripes.get(disk, ()):
            self._check_loss(stripe)

    def _mark_up(self, disk: int) -> None:
        since = self.down.pop(disk, None)
        if since is not None:
            self.result.chunk_days_at_risk += (self.sim.now - since) * len(
                self.disk_stripes.get(disk, ())
            )
        # A rebuilt disk carries freshly decoded chunks: its latent
        # errors are gone too.
        for chunk in [
            c
            for c in self.latent
            if self.placement[c[0]][c[1]] == disk
        ]:
            self._clear_latent(chunk)

    def _clear_latent(self, chunk: Optional[Tuple[int, int]]) -> None:
        if chunk is None:
            return
        since = self.latent.pop(chunk, None)
        if since is None:
            return
        self.result.chunk_days_at_risk += self.sim.now - since
        slots = self.latent_by_stripe.get(chunk[0])
        if slots is not None:
            slots.discard(chunk[1])

    def _check_loss(self, stripe: int) -> None:
        if stripe in self.lost:
            return
        unavailable = {
            slot
            for slot, disk in enumerate(self.placement[stripe])
            if disk in self.down
        }
        unavailable |= self.latent_by_stripe.get(stripe, set())
        if len(unavailable) > self.config.fault_tolerance:
            self.lost.add(stripe)

    # -- bookkeeping -------------------------------------------------------

    def _note_queue_depth(self) -> None:
        depth = len(self.queue) + self.in_flight
        self.result.max_queue_depth = max(self.result.max_queue_depth, depth)

    def _schedule_latent_errors(self) -> None:
        rate = self.config.latent_errors_per_disk_year
        if rate <= 0:
            return
        per_disk = rate * self.horizon / 365.0
        for disk in range(self.config.num_disks):
            for _ in range(_poisson(self.rng, per_disk)):
                self.sim.schedule_at(
                    self.rng.uniform(0.0, self.horizon),
                    lambda d=disk: self._on_latent_error(d),
                )

    def run(self) -> LifetimeResult:
        self.sim.run_until(self.horizon)
        # Close out open risk windows at the horizon.
        for disk, since in self.down.items():
            self.result.chunk_days_at_risk += (self.horizon - since) * len(
                self.disk_stripes.get(disk, ())
            )
        for chunk, since in self.latent.items():
            self.result.chunk_days_at_risk += self.horizon - since
        self.result.lost_stripes = len(self.lost)
        return self.result


@dataclass
class LifetimeReport:
    """Aggregate of ``trials`` independent simulated lifetimes."""

    process: str
    predictive: bool
    config: LifetimeConfig
    results: List[LifetimeResult]

    @property
    def trials(self) -> int:
        return len(self.results)

    @property
    def lost_stripe_probability(self) -> float:
        """Fraction of trials that lost at least one stripe."""
        if not self.results:
            return 0.0
        return sum(r.data_loss for r in self.results) / len(self.results)

    @property
    def mean_lost_stripes(self) -> float:
        return self._mean(lambda r: r.lost_stripes)

    @property
    def mean_chunk_days_at_risk(self) -> float:
        return self._mean(lambda r: r.chunk_days_at_risk)

    @property
    def mean_max_queue_depth(self) -> float:
        return self._mean(lambda r: r.max_queue_depth)

    @property
    def max_queue_depth(self) -> int:
        return max((r.max_queue_depth for r in self.results), default=0)

    def _mean(self, key) -> float:
        if not self.results:
            return 0.0
        return sum(key(r) for r in self.results) / len(self.results)

    def to_dict(self) -> dict:
        """Summary document (the BENCH_durability.json payload)."""
        totals: Dict[str, int] = {}
        for result in self.results:
            for kind, count in result.repairs_completed.items():
                totals[kind] = totals.get(kind, 0) + count
        return {
            "process": self.process,
            "predictive": self.predictive,
            "trials": self.trials,
            "years": self.config.years,
            "lost_stripe_probability": self.lost_stripe_probability,
            "mean_lost_stripes": self.mean_lost_stripes,
            "mean_chunk_days_at_risk": self.mean_chunk_days_at_risk,
            "mean_max_queue_depth": self.mean_max_queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "disk_failures": sum(r.disk_failures for r in self.results),
            "predicted_failures": sum(
                r.predicted_failures for r in self.results
            ),
            "missed_failures": sum(r.missed_failures for r in self.results),
            "false_alarms": sum(r.false_alarms for r in self.results),
            "latent_errors": sum(r.latent_errors for r in self.results),
            "scrub_detections": sum(
                r.scrub_detections for r in self.results
            ),
            "predictive_deferrals": sum(
                r.predictive_deferrals for r in self.results
            ),
            "repairs_completed": totals,
        }

    def summary(self) -> str:
        mode = "predictive" if self.predictive else "reactive"
        return (
            f"{self.process}/{mode}: {self.trials} trials x "
            f"{self.config.years:g}y -> P(loss)="
            f"{self.lost_stripe_probability:.4f}, "
            f"mean lost stripes {self.mean_lost_stripes:.3f}, "
            f"chunk-days at risk {self.mean_chunk_days_at_risk:.1f}, "
            f"max queue {self.max_queue_depth}"
        )


def run_lifetime(
    process,
    config: LifetimeConfig,
    trials: int = 50,
    seed: int = 0,
) -> LifetimeReport:
    """Run ``trials`` independent lifetimes of ``config`` under ``process``.

    Each trial gets its own deterministic RNG stream derived from
    ``seed``; the stripe placement is fixed per config (the same
    cluster living many possible lives).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    placement = config.placement()
    disk_stripes: Dict[int, List[int]] = {}
    for stripe, disks in enumerate(placement):
        for disk in disks:
            disk_stripes.setdefault(disk, []).append(stripe)
    results = []
    for trial in range(trials):
        rng = random.Random(1_000_003 * seed + trial)
        events = process.events(rng, config.num_disks, config.horizon_days)
        results.append(
            _LifetimeTrial(config, placement, disk_stripes, events, rng).run()
        )
    return LifetimeReport(
        process=process.name,
        predictive=config.predictive,
        config=config,
        results=results,
    )


def durability_study(
    processes: Sequence,
    config: LifetimeConfig,
    trials: int = 50,
    seed: int = 0,
) -> List[dict]:
    """Compare predictive vs reactive repair under each failure process.

    Returns one entry per process with both modes' report summaries —
    the body of ``BENCH_durability.json``.
    """
    entries = []
    for process in processes:
        entry = {"process": process.name}
        for predictive in (True, False):
            report = run_lifetime(
                process,
                replace(config, predictive=predictive),
                trials=trials,
                seed=seed,
            )
            entry["predictive" if predictive else "reactive"] = (
                report.to_dict()
            )
        entries.append(entry)
    return entries
