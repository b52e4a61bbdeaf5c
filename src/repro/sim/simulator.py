"""Event-driven execution of repair plans.

This is the Python counterpart of the paper's single-machine simulator
(Section VI-A): "we remove all the actual operations of disk I/Os and
network transmission from the prototype, and simulate the operations by
computing their execution times based on the input network and disk
bandwidths.  Note that the main algorithms, including finding
reconstruction sets and repair scheduling, are still preserved."

Per repair round the simulator spawns:

* one sequential migration pipeline on the STF node — the STF agent
  reads, transmits and writes (at the destination) one chunk at a time,
  bottlenecked by the STF node exactly as in Eq. (4);
* one reconstruction pipeline per repaired chunk — the ``k`` helpers
  read in parallel, their transfers serialize on the destination's NIC
  ingress, and the destination writes the decoded chunk.

Rounds are barriers (the coordinator waits for all agent ACKs before
issuing the next round's commands, Section V).  Resource contention the
closed-form analysis ignores — a node serving as helper for one stripe
and destination for another, or standby nodes ingesting migration and
reconstruction traffic at once — emerges naturally, which is why
simulated FastPR lands slightly above the optimum (Experiment A.1
reports +11.4% on average).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..cluster.chunk import NodeId
from ..cluster.cluster import StorageCluster
from ..cluster.topology import RackTopology
from ..core.plan import (
    ChunkRepairAction,
    RepairMethod,
    RepairPlan,
    ShardMap,
    split_plan,
)
from ..core.planner import heal_action
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import SimClock, Tracer
from ..runtime.faults import FaultPlan
from .events import Delay, Process, Simulation
from .resources import DeviceMap


@dataclass
class DeviceUtilization:
    """Busy-time fractions of one node's devices over a repair."""

    disk: float
    nic_in: float
    nic_out: float


@dataclass
class RepairResult:
    """Outcome of simulating one repair plan."""

    total_time: float
    round_times: List[float] = field(default_factory=list)
    chunks_repaired: int = 0
    bytes_read: int = 0
    bytes_transferred: int = 0
    bytes_written: int = 0
    #: node id -> device busy fractions (event-driven simulator only)
    utilization: Dict[NodeId, DeviceUtilization] = field(default_factory=dict)
    #: healing waves applied after simulated node deaths
    replans: int = 0
    #: migrations converted to reconstructions (STF died mid-repair)
    converted_migrations: int = 0
    #: nodes that died during the simulated repair
    dead_nodes: List[NodeId] = field(default_factory=list)
    #: coordinator crash/recover cycles (journal-backed, round granularity)
    coordinator_restarts: int = 0

    @property
    def time_per_chunk(self) -> float:
        """The metric every figure of the paper plots."""
        if self.chunks_repaired == 0:
            return 0.0
        return self.total_time / self.chunks_repaired

    @property
    def traffic_amplification(self) -> float:
        """Repair traffic relative to the amount of repaired data.

        1.0 for pure migration; ``k`` for pure RS reconstruction — the
        amplification FastPR trades against parallelism.
        """
        if self.bytes_written == 0:
            return 0.0
        return self.bytes_transferred / self.bytes_written


@dataclass
class ShardedRepairResult(RepairResult):
    """Outcome of simulating a sharded (multi-coordinator) repair.

    ``round_times`` concatenates every shard's rounds (sorted by
    shard); ``per_shard_rounds`` keeps them separated.  A takeover
    counts as one ``coordinator_restarts`` too, so single- and
    multi-coordinator results read alike.
    """

    takeovers: int = 0
    per_shard_rounds: Dict[int, List[float]] = field(default_factory=dict)


def _reject_chained(plan: RepairPlan) -> None:
    """The event-driven simulator only models star fan-in."""
    for action in plan.actions():
        if action.pipelined:
            raise ValueError(
                f"stripe {action.stripe_id} chunk {action.chunk_index} is a "
                "chained (pipelined) reconstruction, which RepairSimulator "
                "would time as star fan-in; price chained plans with "
                "repro.sim.evaluate_plan"
            )


class RepairSimulator:
    """Executes :class:`RepairPlan` objects against a cluster's resources.

    Args:
        cluster: supplies per-node bandwidths and the chunk size.
        chunk_size: override the cluster's chunk size (bytes).
        metrics: optional :class:`~repro.obs.MetricsRegistry`; the
            simulator mirrors the runtime's metric names
            (``repair_round_seconds``, ``repair_actions_total``, ...)
            with *simulated* seconds, so the same dashboards read both.
        tracer: optional :class:`~repro.obs.Tracer` backed by a
            :class:`~repro.obs.SimClock`; the simulator emits the same
            repair/round/action span tree as the emulated testbed,
            timestamped in simulated seconds.  A wall-clock tracer is
            rejected — mixing clock domains would corrupt the trace.
    """

    def __init__(
        self,
        cluster: StorageCluster,
        chunk_size: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.cluster = cluster
        self.chunk_size = chunk_size or cluster.chunk_size
        if tracer is not None and not isinstance(tracer.clock, SimClock):
            raise ValueError(
                "RepairSimulator tracing needs a SimClock-backed Tracer "
                "(got a {} clock)".format(type(tracer.clock).__name__)
            )
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(clock=SimClock(), enabled=False)
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        m = self.metrics
        self._actions_counter = m.counter(
            "repair_actions_total",
            "chunk repair actions completed, by executed method",
        )
        self._round_hist = m.histogram(
            "repair_round_seconds",
            "simulated duration of each repair round",
        )
        self._action_hist = m.histogram(
            "repair_action_seconds",
            "simulated start-to-completion latency of each action, by method",
        )
        self._replans_counter = m.counter(
            "repair_replans_total", "healing waves after a node died"
        )
        self._converted_counter = m.counter(
            "repair_converted_migrations_total",
            "migrations converted to reconstructions (STF died mid-repair)",
        )

    @property
    def _clock(self) -> SimClock:
        return self.tracer.clock

    def run(
        self,
        plan: RepairPlan,
        faults: Optional[FaultPlan] = None,
        detection_delay: float = 0.0,
        recovery_delay: float = 0.0,
    ) -> RepairResult:
        """Simulate the plan; returns timing and traffic statistics.

        Args:
            plan: the repair plan to execute.
            faults: optional fault plan whose *time-triggered* crashes
                are mirrored at round granularity — a node whose
                ``at_time`` has passed when a round starts is dead for
                that round, and the round's actions are healed exactly
                like the live coordinator heals them (migration ->
                reconstruction fallback, helper/destination
                substitution via :func:`repro.core.planner.heal_action`).
                Byte-triggered crashes have no simulator counterpart
                (the simulator moves no bytes mid-round).  Coordinator
                crashes are mirrored at round granularity too: an
                ``after_round`` trigger costs one recovery pause after
                that round, and the successor re-executes nothing —
                exactly the journal-backed runtime behavior, whose
                completed rounds survive the crash.  ``after_records``
                triggers have no simulator counterpart (the simulator
                writes no journal records).
            detection_delay: simulated seconds charged once per wave of
                newly detected deaths, modeling the live coordinator's
                deadline-plus-probe discovery latency.
            recovery_delay: simulated seconds charged per coordinator
                crash/recover cycle, modeling journal replay plus the
                inventory reconciliation round trip.
        """
        _reject_chained(plan)
        devices = DeviceMap(self.cluster)
        sim = Simulation()
        round_times: List[float] = []
        start = 0.0
        crashes = faults.crash_times() if faults is not None else []
        coordinator_crashes = sorted(
            (
                c
                for c in (faults.coordinator_crashes if faults else [])
                if c.after_round is not None
            ),
            key=lambda c: c.after_round,
        )
        restarts = 0
        dead: Set[NodeId] = set()
        replans = 0
        converted = 0
        clock = self._clock
        clock.advance_to(sim.now)
        repair_span = self.tracer.start_span(
            "repair",
            stf=plan.stf_node,
            scenario=plan.scenario.value,
            rounds=plan.num_rounds,
            chunks=plan.total_chunks,
            epoch=0,
            resumed=False,
        )
        for round_ in plan.rounds:
            newly_dead = {
                crash.node
                for crash in crashes
                if crash.at_time <= sim.now and crash.node not in dead
            }
            if newly_dead:
                dead |= newly_dead
                replans += 1
                self._replans_counter.inc()
                if detection_delay > 0:
                    sim.spawn(_pause(detection_delay))
                    sim.run()
            actions = list(round_.actions())
            if dead:
                healed_actions = []
                for action in actions:
                    healed = heal_action(
                        self.cluster, plan.stf_node, action, dead, plan.scenario
                    )
                    if (
                        healed.method is RepairMethod.RECONSTRUCTION
                        and action.method is RepairMethod.MIGRATION
                    ):
                        converted += 1
                        self._converted_counter.inc()
                    healed_actions.append(healed)
                actions = healed_actions
            clock.advance_to(sim.now)
            round_span = self.tracer.start_span(
                "round", parent=repair_span, round=round_.index
            )
            self._spawn_actions(
                sim, devices, plan.stf_node, actions, round_span=round_span
            )
            end = sim.run()
            clock.advance_to(end)
            round_span.finish(actions=len(actions))
            self._round_hist.observe(end - start)
            round_times.append(end - start)
            start = end
            # Coordinator crash after this round: the journal already
            # holds every completed round, so the successor only pays
            # the recovery pause before the next round starts.
            while (
                coordinator_crashes
                and coordinator_crashes[0].after_round <= round_.index
            ):
                coordinator_crashes.pop(0)
                restarts += 1
                if recovery_delay > 0:
                    sim.spawn(_pause(recovery_delay))
                    start = sim.run()
        clock.advance_to(sim.now)
        repair_span.finish(restarts=restarts)
        result = RepairResult(
            total_time=sim.now,
            round_times=round_times,
            chunks_repaired=plan.total_chunks,
            bytes_read=devices.bytes_read,
            bytes_transferred=devices.bytes_transferred,
            bytes_written=devices.bytes_written,
            utilization=self._utilization(devices, sim.now),
            replans=replans,
            converted_migrations=converted,
            dead_nodes=sorted(dead),
            coordinator_restarts=restarts,
        )
        return result

    def run_sharded(
        self,
        plan: RepairPlan,
        num_shards: int = 2,
        faults: Optional[FaultPlan] = None,
        topology: Optional[RackTopology] = None,
        detection_delay: float = 0.0,
        recovery_delay: float = 0.0,
    ) -> ShardedRepairResult:
        """Mirror a multi-coordinator repair at round granularity.

        The stripe space splits exactly like the runtime's
        (:func:`~repro.core.plan.split_plan` over the same consistent
        hash), and every shard advances through its own round sequence
        *concurrently*, contending for the same per-node disks and
        NICs — the contention the live runtime's shared
        :class:`~repro.core.scheduling.HelperBudget` arbitrates emerges
        here from the device queues.

        Faults mirror at round granularity, as in :meth:`run`: node
        crashes whose ``at_time`` has passed heal at each shard's next
        round start.  A :class:`~repro.runtime.faults.DomainCrashFault`
        naming coordinators additionally kills those shards — the shard
        pays one ``recovery_delay`` pause before its next round
        (journal replay plus inventory reconciliation; completed rounds
        survive, exactly the runtime takeover) and the run counts one
        takeover.  Pass ``topology`` to resolve domain crashes here, or
        pre-resolve with ``faults.resolve_domains(topology)``.
        """
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        _reject_chained(plan)
        if faults is not None and faults.domain_crashes and topology is not None:
            faults = faults.resolve_domains(topology)
        sub_plans = split_plan(plan, ShardMap(num_shards))
        devices = DeviceMap(self.cluster)
        sim = Simulation()
        clock = self._clock
        clock.advance_to(sim.now)
        crashes = faults.crash_times() if faults is not None else []
        kill_times: Dict[int, float] = {}
        for dc in faults.domain_crashes if faults is not None else []:
            for shard in dc.coordinators:
                if shard < num_shards:
                    kill_times[shard] = min(
                        dc.at_time, kill_times.get(shard, dc.at_time)
                    )
        state = {"replans": 0, "converted": 0, "takeovers": 0}
        dead: Set[NodeId] = set()
        per_shard_rounds: Dict[int, List[float]] = {
            shard: [] for shard in range(num_shards)
        }
        repair_span = self.tracer.start_span(
            "repair",
            stf=plan.stf_node,
            scenario=plan.scenario.value,
            rounds=plan.num_rounds,
            chunks=plan.total_chunks,
            epoch=0,
            resumed=False,
            shards=num_shards,
        )

        def drive(shard: int, rounds: List, index: int) -> None:
            """Advance one shard to its next round (or finish it)."""
            if index >= len(rounds):
                return
            if shard in kill_times and kill_times[shard] <= sim.now:
                # The shard's coordinator died: a survivor replays its
                # journal and resumes.  Completed rounds survive, so the
                # cost is one recovery pause before the next round.
                del kill_times[shard]
                state["takeovers"] += 1
                if recovery_delay > 0:
                    sim.spawn(
                        _pause(recovery_delay),
                        on_done=lambda _now: start_round(shard, rounds, index),
                    )
                    return
            start_round(shard, rounds, index)

        def start_round(shard: int, rounds: List, index: int) -> None:
            newly_dead = {
                crash.node
                for crash in crashes
                if crash.at_time <= sim.now and crash.node not in dead
            }
            if newly_dead:
                dead.update(newly_dead)
                state["replans"] += 1
                self._replans_counter.inc()
                if detection_delay > 0:
                    sim.spawn(
                        _pause(detection_delay),
                        on_done=lambda _now: launch_round(shard, rounds, index),
                    )
                    return
            launch_round(shard, rounds, index)

        def launch_round(shard: int, rounds: List, index: int) -> None:
            round_ = rounds[index]
            actions = list(round_.actions())
            if dead:
                healed_actions = []
                for action in actions:
                    healed = heal_action(
                        self.cluster, plan.stf_node, action, dead, plan.scenario
                    )
                    if (
                        healed.method is RepairMethod.RECONSTRUCTION
                        and action.method is RepairMethod.MIGRATION
                    ):
                        state["converted"] += 1
                        self._converted_counter.inc()
                    healed_actions.append(healed)
                actions = healed_actions
            clock.advance_to(sim.now)
            round_span = self.tracer.start_span(
                "round", parent=repair_span, round=round_.index, shard=shard
            )
            begin = sim.now

            def round_done(now: float) -> None:
                clock.advance_to(now)
                round_span.finish(actions=len(actions))
                self._round_hist.observe(now - begin)
                per_shard_rounds[shard].append(now - begin)
                drive(shard, rounds, index + 1)

            self._spawn_actions_counted(
                sim, devices, plan.stf_node, actions, round_span, round_done
            )

        for shard, sub_plan in enumerate(sub_plans):
            sim.spawn(
                _pause(0.0),
                on_done=lambda _now, s=shard, r=list(sub_plan.rounds): drive(
                    s, r, 0
                ),
            )
        total = sim.run()
        clock.advance_to(total)
        repair_span.finish(takeovers=state["takeovers"])
        round_times: List[float] = []
        for shard in sorted(per_shard_rounds):
            round_times.extend(per_shard_rounds[shard])
        return ShardedRepairResult(
            total_time=total,
            round_times=round_times,
            chunks_repaired=plan.total_chunks,
            bytes_read=devices.bytes_read,
            bytes_transferred=devices.bytes_transferred,
            bytes_written=devices.bytes_written,
            utilization=self._utilization(devices, total),
            replans=state["replans"],
            converted_migrations=state["converted"],
            dead_nodes=sorted(dead),
            coordinator_restarts=state["takeovers"],
            takeovers=state["takeovers"],
            per_shard_rounds=per_shard_rounds,
        )

    @staticmethod
    def _utilization(devices: DeviceMap, total_time: float):
        if total_time <= 0:
            return {}
        report = {}
        for node_id, node_devices in devices._devices.items():
            report[node_id] = DeviceUtilization(
                disk=node_devices.disk.busy_time / total_time,
                nic_in=node_devices.nic_in.busy_time / total_time,
                nic_out=node_devices.nic_out.busy_time / total_time,
            )
        return report

    # ------------------------------------------------------------------

    def _spawn_actions(
        self,
        sim: Simulation,
        devices: DeviceMap,
        stf_node: NodeId,
        actions: List[ChunkRepairAction],
        round_span=None,
    ) -> None:
        # The STF agent migrates its chunks one at a time.
        migrations = [a for a in actions if a.method is RepairMethod.MIGRATION]
        if migrations:
            spans = [self._action_span(a, round_span) for a in migrations]
            sim.spawn(
                self._migration_chain(devices, stf_node, migrations, sim, spans)
            )
        # Every reconstruction runs as its own parallel pipeline.
        for action in actions:
            if action.method is RepairMethod.RECONSTRUCTION:
                self._spawn_reconstruction(
                    sim, devices, action, self._action_span(action, round_span)
                )

    def _spawn_actions_counted(
        self,
        sim: Simulation,
        devices: DeviceMap,
        stf_node: NodeId,
        actions: List[ChunkRepairAction],
        round_span,
        on_round_done,
    ) -> None:
        """Like :meth:`_spawn_actions`, but reports round completion.

        The sharded mirror runs several shards in one simulation, so
        ``sim.run()`` can no longer serve as the per-round barrier; the
        round instead completes when its migration chain and every
        reconstruction write have finished.
        """
        migrations = [a for a in actions if a.method is RepairMethod.MIGRATION]
        reconstructions = [
            a for a in actions if a.method is RepairMethod.RECONSTRUCTION
        ]
        pending = {"count": (1 if migrations else 0) + len(reconstructions)}
        if pending["count"] == 0:
            sim.spawn(_pause(0.0), on_done=on_round_done)
            return

        def task_done(now: float) -> None:
            pending["count"] -= 1
            if pending["count"] == 0:
                on_round_done(now)

        if migrations:
            spans = [self._action_span(a, round_span) for a in migrations]
            sim.spawn(
                self._migration_chain(devices, stf_node, migrations, sim, spans),
                on_done=task_done,
            )
        for action in reconstructions:
            self._spawn_reconstruction(
                sim,
                devices,
                action,
                self._action_span(action, round_span),
                on_complete=task_done,
            )

    def _action_span(self, action: ChunkRepairAction, round_span):
        return self.tracer.start_span(
            "action",
            parent=round_span,
            method=action.method.value,
            stripe=action.stripe_id,
            chunk=action.chunk_index,
            destination=action.destination,
        )

    def _finish_action(self, span, now: float, method: RepairMethod) -> None:
        self._clock.advance_to(now)
        span.finish()
        self._actions_counter.inc(method=method.value)
        self._action_hist.observe(span.duration, method=method.value)

    def _migration_chain(
        self,
        devices: DeviceMap,
        stf_node: NodeId,
        migrations: List[ChunkRepairAction],
        sim: Simulation,
        spans: List,
    ) -> Process:
        size = self.chunk_size
        for action, span in zip(migrations, spans):
            yield from devices.read_chunk(stf_node, size)
            yield from devices.transfer_chunk(stf_node, action.destination, size)
            yield from devices.write_chunk(action.destination, size)
            self._finish_action(span, sim.now, RepairMethod.MIGRATION)

    def _spawn_reconstruction(
        self,
        sim: Simulation,
        devices: DeviceMap,
        action: ChunkRepairAction,
        span=None,
        on_complete=None,
    ) -> None:
        """Helpers read+send in parallel; the destination gathers and writes."""
        size = self.chunk_size
        pending = {"count": len(action.sources)}

        def write_done(now: float) -> None:
            if span is not None:
                self._finish_action(span, now, RepairMethod.RECONSTRUCTION)
            if on_complete is not None:
                on_complete(now)

        def helper_done(_now: float) -> None:
            pending["count"] -= 1
            if pending["count"] == 0:
                sim.spawn(
                    devices.write_chunk(action.destination, size),
                    on_done=write_done,
                )

        for helper in action.sources:
            sim.spawn(
                self._helper_pipeline(devices, helper, action.destination, size),
                on_done=helper_done,
            )

    def _helper_pipeline(
        self, devices: DeviceMap, helper: NodeId, destination: NodeId, size: int
    ) -> Process:
        yield from devices.read_chunk(helper, size)
        yield from devices.transfer_chunk(helper, destination, size)


def _pause(duration: float) -> Process:
    yield Delay(duration)


@dataclass(frozen=True)
class RepairRateCalibration:
    """Simulated whole-node repair times, predictive vs reactive.

    Produced by :func:`calibrate_repair_rates` and consumed by the
    lifetime Monte-Carlo engine (:mod:`repro.sim.lifetime`), which
    needs per-disk repair *durations* rather than per-round traces:
    ``predictive_seconds`` is FastPR draining a still-readable STF node
    (migration + reconstruction mix), ``reactive_seconds`` is pure
    reconstruction around an already-dead node.
    """

    predictive_seconds: float
    reactive_seconds: float
    chunks: int

    @property
    def predictive_days(self) -> float:
        return self.predictive_seconds / 86_400.0

    @property
    def reactive_days(self) -> float:
        return self.reactive_seconds / 86_400.0


def calibrate_repair_rates(
    cluster: StorageCluster,
    stf_node: Optional[NodeId] = None,
    seed: int = 0,
    chunk_size: Optional[int] = None,
) -> RepairRateCalibration:
    """Simulate one representative node repair both ways.

    Plans a FastPR (predictive) and a reconstruction-only (reactive)
    repair of ``stf_node`` (default: the busiest storage node, the
    conservative choice) and runs each through the event-driven
    simulator, returning the two total times.  The node's health flag
    is restored afterwards, so the cluster can be reused.
    """
    from ..core.plan import RepairScenario
    from ..core.planner import FastPRPlanner, ReconstructionOnlyPlanner

    if stf_node is None:
        stf_node = max(
            cluster.storage_node_ids(), key=lambda n: cluster.load_of(n)
        )
    node = cluster.node(stf_node)
    was_healthy = node.is_healthy
    node.mark_soon_to_fail()
    try:
        simulator = RepairSimulator(cluster, chunk_size=chunk_size)
        chunks = cluster.load_of(stf_node)
        times = {}
        for label, planner in (
            ("predictive", FastPRPlanner(scenario=RepairScenario.SCATTERED, seed=seed)),
            ("reactive", ReconstructionOnlyPlanner(scenario=RepairScenario.SCATTERED, seed=seed)),
        ):
            plan = planner.plan(cluster, stf_node)
            times[label] = simulator.run(plan).total_time
    finally:
        if was_healthy:
            node.mark_healthy()
    return RepairRateCalibration(
        predictive_seconds=times["predictive"],
        reactive_seconds=times["reactive"],
        chunks=chunks,
    )


def simulate_sharded_repair(
    cluster: StorageCluster,
    plan: RepairPlan,
    num_shards: int = 2,
    chunk_size: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    topology: Optional[RackTopology] = None,
    detection_delay: float = 0.0,
    recovery_delay: float = 0.0,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> ShardedRepairResult:
    """One-call convenience wrapper around :meth:`RepairSimulator.run_sharded`."""
    return RepairSimulator(
        cluster, chunk_size=chunk_size, metrics=metrics, tracer=tracer
    ).run_sharded(
        plan,
        num_shards=num_shards,
        faults=faults,
        topology=topology,
        detection_delay=detection_delay,
        recovery_delay=recovery_delay,
    )


def simulate_repair(
    cluster: StorageCluster,
    plan: RepairPlan,
    chunk_size: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    detection_delay: float = 0.0,
    recovery_delay: float = 0.0,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> RepairResult:
    """One-call convenience wrapper around :class:`RepairSimulator`."""
    return RepairSimulator(
        cluster, chunk_size=chunk_size, metrics=metrics, tracer=tracer
    ).run(
        plan,
        faults=faults,
        detection_delay=detection_delay,
        recovery_delay=recovery_delay,
    )
