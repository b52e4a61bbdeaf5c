"""The five workloads: rigs, load generators and correctness gates.

Every rig is an :class:`~repro.EmulatedTestbed` (in-process agents) and
its load generator, sharing one process.  The system is driven only
through names the public packages export; layers are read from outside
through the :class:`~repro.MetricsRegistry` the rig is built with.

The cluster topology is fixed (``TOPOLOGY_SEED``) because the shape of
the drain — how many chunks the soon-to-fail node holds, how many
rounds the plan has — is part of each workload's definition.  The
``--seed`` argument shapes everything generated *for* the system:
chunk bytes, object payloads and the order of client operations.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro import (
    EmulatedTestbed,
    FastPRPlanner,
    MetricsRegistry,
    ObjectStore,
    ReconstructionOnlyPlanner,
    RepairPlan,
    RepairScenario,
    RuntimeConfig,
    StorageCluster,
    TcpNetwork,
    Tracer,
    TrafficArbiter,
    apply_pipelining,
    make_codec,
)
from repro.runtime import COORDINATOR_ID, VerificationError

from stats import RegistryDelta, registry_snapshot

CODE = "rs(9,6)"
TOPOLOGY_SEED = 7
MIB = 1 << 20

#: share of client operations that are PUTs in ``gateway-mixed-cpu``
PUT_SHARE = 0.2
#: keys the PUTs cycle over, so every PUT after the fourth overwrites
PUT_KEYS = 4
#: distinct payloads the PUTs draw from (generated from the seed)
PUT_POOL = 4
#: samples per tracing block in the traced pass (on, off, on, ...)
TRACE_BLOCK = 20


@dataclass(frozen=True)
class Shape:
    """Sizes and regime of one workload's rig."""

    nodes: int
    stripes: int
    chunk: int
    #: emulated device rates in bytes/s
    disk: float
    nic: float
    transport: str = "memory"
    #: slice count for chained reconstructions (0 = no chain phase)
    pipeline_slices: int = 0
    #: gateway objects populated before the run (one stripe each)
    objects: int = 0
    #: client bandwidth floor of the TrafficArbiter (None = no arbiter)
    client_floor: Optional[float] = None
    #: what the load generator does: "drain", "mixed" or "get-under-drain"
    load: str = "drain"


_UNTHROTTLED = dict(disk=100e9, nic=125e9)  # paper's bd:bn ratio kept
_NIC40 = dict(disk=400e6, nic=40e6)
# A 1 MiB chunk on a 10 MB/s NIC takes as long as a 4 MiB chunk on a
# 40 MB/s one: the same bandwidth-bound regime (measured drain within
# 5 % of the cost model) at a quarter of the bytes to load.
_NIC10 = dict(disk=100e6, nic=10e6)

SHAPES: Dict[str, Shape] = {
    "drain-cpu-mem": Shape(20, 27, MIB, **_UNTHROTTLED),
    "drain-cpu-tcp": Shape(20, 27, MIB, transport="tcp", **_UNTHROTTLED),
    "drain-nic10": Shape(20, 27, MIB, pipeline_slices=16, **_NIC10),
    "gateway-mixed-cpu": Shape(
        20, 0, MIB, objects=16, load="mixed", **_UNTHROTTLED
    ),
    "gateway-get-under-drain": Shape(
        12, 48, MIB // 4, objects=8, client_floor=0.7,
        load="get-under-drain", **_NIC40,
    ),
}


def quick_shape(shape: Shape) -> Shape:
    """The ``--quick`` variant: same topology, 64 KiB chunks."""
    return replace(shape, chunk=64 * 1024)


@dataclass(frozen=True)
class Budget:
    """How long a phase runs: a wall-clock window and/or a sample cap."""

    seconds: float
    count: Optional[int] = None

    def indices(self) -> Iterator[int]:
        """Sample indices until the window closes; always at least one."""
        deadline = time.perf_counter() + self.seconds
        index = 0
        while index == 0 or (
            time.perf_counter() < deadline
            and (self.count is None or index < self.count)
        ):
            yield index
            index += 1


class Rig:
    """One workload's cluster, agents, transport and optional gateway.

    Building a rig is what ``setup_s`` times: cluster and agents,
    ``load_random_data``, object population, STF marking and planning.
    """

    def __init__(self, shape: Shape, seed: int, workdir: Path, tracer: Tracer):
        self.shape = shape
        self.seed = seed
        self.metrics = MetricsRegistry()
        self.tracer = tracer
        self.codec = make_codec(CODE)
        self.cluster = StorageCluster.random(
            shape.nodes,
            shape.stripes,
            self.codec.n,
            self.codec.k,
            seed=TOPOLOGY_SEED,
            disk_bandwidth=shape.disk,
            network_bandwidth=shape.nic,
            chunk_size=shape.chunk,
        )
        self.tcp: Optional[TcpNetwork] = None
        if shape.transport == "tcp":
            # Every node and the coordinator are peers of the one
            # loopback listener, so each frame crosses the wire codec
            # and a real socket while the agents stay in-process.
            self.tcp = TcpNetwork(metrics=self.metrics)
            host, port = self.tcp.listen()
            for node_id in [*self.cluster.nodes, COORDINATOR_ID]:
                self.tcp.add_peer(node_id, host, port)
        arbiter = None
        if shape.client_floor is not None:
            arbiter = TrafficArbiter(
                shape.nic,
                client_floor=shape.client_floor,
                metrics=self.metrics,
            )
        self.config = RuntimeConfig(pipeline_slices=shape.pipeline_slices)
        self.bed = EmulatedTestbed(
            self.cluster,
            self.codec,
            workdir=workdir / "bed",
            journal_path=workdir / "repair.journal",
            config=self.config,
            metrics=self.metrics,
            tracer=tracer,
            network=self.tcp,
            arbiter=arbiter,
        )
        self.store: Optional[ObjectStore] = None
        #: object key -> the exact bytes last PUT under it
        self.expected: Dict[str, bytes] = {}
        self.bed.start()
        try:
            self.bed.load_random_data(seed)
            if shape.objects:
                self._populate(workdir)
            self.stf = self._pick_stf()
            self.cluster.node(self.stf).mark_soon_to_fail()
            self.plans = self._plan()
        except BaseException:
            self.close(check_errors=False)
            raise

    @property
    def object_bytes(self) -> int:
        """Objects are exactly one RS(9,6) stripe of data."""
        return self.codec.k * self.shape.chunk

    def _populate(self, workdir: Path) -> None:
        self.store = ObjectStore(
            self.cluster,
            self.codec,
            self.bed.network,
            bandwidth=self.cluster.network_bandwidth,
            chunk_size=self.shape.chunk,
            manifest_dir=workdir / "manifests",
            metrics=self.metrics,
        )
        rng = random.Random(self.seed)
        for index in range(self.shape.objects):
            key = f"o/{index}"
            self.expected[key] = rng.randbytes(self.object_bytes)
            self.store.put(key, self.expected[key])

    def _pick_stf(self) -> int:
        """The node whose drain (or loss) costs the most.

        With a gateway: the node holding the most object *data* chunks,
        which maximises degraded GETs.  Otherwise the most-loaded node.
        Ties go to the lowest id.
        """
        counts: Dict[int, int] = {}
        if self.store is not None:
            for key in self.store.keys():
                for ref in self.store.stat(key).stripes:
                    for node in ref.placement[: self.codec.k]:
                        counts[node] = counts.get(node, 0) + 1
        else:
            for node in self.cluster.storage_node_ids():
                counts[node] = self.cluster.load_of(node)
        return max(counts, key=lambda node: (counts[node], -node))

    def _plan(self) -> Dict[str, RepairPlan]:
        """Phase name -> plan.  ``star`` is the FastPR scattered plan."""
        plans = {
            "star": FastPRPlanner(
                scenario=RepairScenario.SCATTERED, seed=TOPOLOGY_SEED
            ).plan(self.cluster, self.stf)
        }
        if self.shape.pipeline_slices:
            plans["chain"] = apply_pipelining(
                ReconstructionOnlyPlanner(seed=TOPOLOGY_SEED).plan(
                    self.cluster, self.stf
                ),
                "chain",
            )
        for plan in plans.values():
            plan.validate(self.cluster)
        return plans

    def repaired_bytes(self, plan: RepairPlan) -> int:
        return plan.total_chunks * self.shape.chunk

    def close(self, check_errors: bool = True) -> None:
        try:
            if self.store is not None:
                self.store.close()
        finally:
            try:
                self.bed.shutdown(check_errors=check_errors)
            finally:
                if self.tcp is not None:
                    self.tcp.close()


# ----------------------------------------------------------------------
# what a run measured
# ----------------------------------------------------------------------


@dataclass
class Measurement:
    """Raw samples of one timed window plus the registry's growth."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: sample kind -> seconds, in completion order.  Kinds: ``star`` /
    #: ``chain`` (whole drains), ``round`` (full star-phase repair rounds),
    #: ``put`` / ``get`` / ``dget`` (client operations), ``idle_get``
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: sample kind -> verified payload bytes moved by those samples
    payload: Dict[str, int] = field(default_factory=dict)
    #: seconds of the primary samples taken with the tracer on / off
    traced: List[float] = field(default_factory=list)
    untraced: List[float] = field(default_factory=list)
    registry: Optional[RegistryDelta] = None
    wall: float = 0.0

    def record(self, kind: str, seconds: float, nbytes: int) -> None:
        self.samples.setdefault(kind, []).append(seconds)
        self.payload[kind] = self.payload.get(kind, 0) + nbytes

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def forget_samples(self) -> None:
        """End of warm-up: drop its samples, keep (only) its failures."""
        self.samples.clear()
        self.payload.clear()
        self.attempted = self.failed


def _trace_block(rig: Rig, trace: bool, index: int, block: int) -> bool:
    """Switch the rig's tracer for sample ``index``; True when it is on.

    The traced pass alternates blocks with the tracer on and off on
    the same rig, so tracing overhead is the difference of two medians
    taken seconds apart instead of two runs minutes apart.
    """
    on = trace and (index // block) % 2 == 0
    rig.tracer.enabled = on
    return on


# ----------------------------------------------------------------------
# drains
# ----------------------------------------------------------------------


def _clear_destinations(rig: Rig, plan: RepairPlan) -> None:
    """Remove what an earlier drain left, so this one is verified on
    bytes it wrote itself."""
    for action in plan.actions():
        rig.bed.stores[action.destination].delete(action.stripe_id)


def _verify_drain(rig: Rig, plan: RepairPlan, result) -> Optional[str]:
    """A problem string, or None when every repaired byte is right."""
    if result.chunks_repaired != plan.total_chunks:
        return (
            f"repaired {result.chunks_repaired} of {plan.total_chunks} chunks"
        )
    if result.degraded:
        return (
            f"drain needed fault handling: retries={result.retries} "
            f"replans={result.replans} nacks={result.nacks}"
        )
    if rig.store is None:
        try:
            rig.bed.verify_plan(plan, result)
        except VerificationError as exc:
            return str(exc)
        return None
    # Gateway stripes are not in the testbed's load-time checksum map,
    # so compare each repaired chunk with the STF node's own copy.
    source = rig.bed.stores[rig.stf]
    for action in result.executed_actions:
        store = rig.bed.stores[action.destination]
        if not store.has(action.stripe_id) or (
            store.read(action.stripe_id) != source.read(action.stripe_id)
        ):
            return (
                f"stripe {action.stripe_id} chunk {action.chunk_index} at "
                f"node {action.destination} differs from the STF copy"
            )
    return None


def _one_drain(
    rig: Rig, phase: str, into: Measurement, index: int
) -> Optional[float]:
    """Execute and verify one drain; seconds, or None if it failed."""
    plan = rig.plans[phase]
    _clear_destinations(rig, plan)
    into.attempted += 1
    with rig.tracer.span("drain", phase=phase, index=index):
        started = time.perf_counter()
        try:
            result = rig.bed.execute(plan)
        except Exception as exc:  # a failed drain is a counted failure
            into.fail(f"{phase} drain {index} raised {exc!r}")
            return None
        seconds = time.perf_counter() - started
    problem = _verify_drain(rig, plan, result)
    if problem is not None:
        into.fail(f"{phase} drain {index}: {problem}")
        return None
    into.record(phase, seconds, rig.repaired_bytes(plan))
    if phase == "star":
        # Only full rounds: the plan's last round repairs what is left
        # over and would otherwise sit at the bottom of every median.
        full = max(r.cr + r.cm for r in plan.rounds)
        for round_, round_seconds in zip(plan.rounds, result.round_times):
            if round_.cr + round_.cm == full:
                into.record("round", round_seconds, 0)
    return seconds


def run_drains(
    rig: Rig, warmup: Budget, timed: Budget, trace: bool
) -> Measurement:
    """Re-execute the rig's plan(s) back to back, verifying each drain.

    With a chain phase the loop alternates star and chain drains, so
    both see the same machine state.
    """
    measured = Measurement()
    for index in warmup.indices():
        for phase in rig.plans:
            _one_drain(rig, phase, measured, index)
    measured.forget_samples()
    before = registry_snapshot(rig.metrics)
    started = time.perf_counter()
    for index in timed.indices():
        on = _trace_block(rig, trace, index, block=1)
        for phase in rig.plans:
            seconds = _one_drain(rig, phase, measured, index)
            if seconds is None:
                break
            if phase == "star":
                (measured.traced if on else measured.untraced).append(seconds)
        if measured.failed:
            break  # the rig's state is no longer trustworthy
    measured.wall = time.perf_counter() - started
    measured.registry = RegistryDelta(before, registry_snapshot(rig.metrics))
    return measured


# ----------------------------------------------------------------------
# gateway operations
# ----------------------------------------------------------------------


def _get(
    rig: Rig, key: str, into: Measurement, kind: Optional[str] = None
) -> Optional[Tuple[str, float]]:
    """One verified GET: ``(kind, seconds)``, or None when it failed.

    ``kind`` defaults to ``get`` or ``dget`` by how it was served.
    """
    into.attempted += 1
    with rig.tracer.span("op", kind="get", key=key):
        started = time.perf_counter()
        try:
            result = rig.store.get_result(key)
        except Exception as exc:
            into.fail(f"GET {key} raised {exc!r}")
            return None
        seconds = time.perf_counter() - started
    # get_result already checked the manifest sha256; this compares
    # with the bytes that were actually PUT, byte for byte.
    if result.data != rig.expected[key]:
        into.fail(f"GET {key} returned bytes that differ from the PUT")
        return None
    if kind is None:
        kind = "dget" if result.degraded else "get"
    into.record(kind, seconds, len(result.data))
    return kind, seconds


def _put(rig: Rig, key: str, payload: bytes, into: Measurement):
    into.attempted += 1
    with rig.tracer.span("op", kind="put", key=key):
        started = time.perf_counter()
        try:
            manifest = rig.store.put(key, payload)
        except Exception as exc:
            into.fail(f"PUT {key} raised {exc!r}")
            return None
        seconds = time.perf_counter() - started
    rig.expected[key] = payload
    if manifest.size != len(payload):
        into.fail(f"PUT {key} recorded {manifest.size} bytes")
        return None
    into.record("put", seconds, len(payload))
    return seconds


def run_mixed(
    rig: Rig, warmup: Budget, timed: Budget, trace: bool
) -> Measurement:
    """Closed loop, one client: 20 % overwriting PUTs, 80 % GETs."""
    rng = random.Random(rig.seed)
    pool = [rng.randbytes(rig.object_bytes) for _ in range(PUT_POOL)]
    puts = 0

    def one_op(into: Measurement) -> Optional[float]:
        """One client operation; seconds when it was a healthy GET."""
        nonlocal puts
        if rng.random() < PUT_SHARE:
            key = f"w/{puts % PUT_KEYS}"
            puts += 1
            _put(rig, key, rng.choice(pool), into)
            return None
        served = _get(rig, f"o/{rng.randrange(rig.shape.objects)}", into)
        if served is None or served[0] != "get":
            return None
        return served[1]

    measured = Measurement()
    for _ in warmup.indices():
        one_op(measured)
    measured.forget_samples()
    before = registry_snapshot(rig.metrics)
    started = time.perf_counter()
    for index in timed.indices():
        on = _trace_block(rig, trace, index, block=TRACE_BLOCK)
        seconds = one_op(measured)
        if seconds is not None:
            (measured.traced if on else measured.untraced).append(seconds)
    measured.wall = time.perf_counter() - started
    measured.registry = RegistryDelta(before, registry_snapshot(rig.metrics))
    # Every overwritten key must read back as its last PUT.
    rig.tracer.enabled = False
    for key in sorted(k for k in rig.expected if k.startswith("w/")):
        _get(rig, key, measured, kind="readback")
    return measured


class _BackgroundDrains(threading.Thread):
    """Re-executes the star drain back to back until told to stop."""

    def __init__(self, rig: Rig):
        super().__init__(name="e2e-background-drain")
        self.rig = rig
        self.stop = threading.Event()
        self.log = Measurement()
        #: (started, finished) perf_counter stamps of verified drains
        self.spans: List[Tuple[float, float]] = []
        self.crash: Optional[BaseException] = None

    def run(self) -> None:
        try:
            index = 0
            while not self.stop.is_set():
                started = time.perf_counter()
                seconds = _one_drain(self.rig, "star", self.log, index)
                if seconds is None:
                    return
                self.spans.append((started, time.perf_counter()))
                index += 1
        except BaseException as exc:  # re-raised by the client thread
            self.crash = exc


def run_get_under_drain(
    rig: Rig, warmup: Budget, timed: Budget, trace: bool
) -> Measurement:
    """One client GETs in a closed loop while the STF drain repeats."""
    rng = random.Random(rig.seed)
    keys = [f"o/{i}" for i in range(rig.shape.objects)]
    measured = Measurement()
    # Idle baseline on the same rig, before any repair traffic.
    for _ in warmup.indices():
        _get(rig, rng.choice(keys), measured, kind="idle_get")
    drains = _BackgroundDrains(rig)
    drains.start()
    try:
        warm = Measurement()
        for _ in warmup.indices():
            _get(rig, rng.choice(keys), warm)
        measured.attempted += warm.failed
        measured.failed += warm.failed
        measured.errors += warm.errors
        before = registry_snapshot(rig.metrics)
        started = time.perf_counter()
        for index in timed.indices():
            on = _trace_block(rig, trace, index, block=TRACE_BLOCK)
            served = _get(rig, rng.choice(keys), measured)
            if served is not None:
                (measured.traced if on else measured.untraced).append(
                    served[1]
                )
        finished = time.perf_counter()
        measured.wall = finished - started
        measured.registry = RegistryDelta(
            before, registry_snapshot(rig.metrics)
        )
    finally:
        drains.stop.set()
        drains.join()
    if drains.crash is not None:
        raise drains.crash
    # Only drains that ran wholly inside the timed window count: the
    # ones straddling its edges saw a different client load.
    inside = [
        (a, b) for a, b in drains.spans if a >= started and b <= finished
    ]
    plan = rig.plans["star"]
    for a, b in inside:
        measured.record("star", b - a, rig.repaired_bytes(plan))
    measured.attempted += len(inside) + drains.log.failed
    measured.failed += drains.log.failed
    measured.errors += drains.log.errors
    return measured


RUNNERS = {
    "drain": run_drains,
    "mixed": run_mixed,
    "get-under-drain": run_get_under_drain,
}
