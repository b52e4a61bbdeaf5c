"""Deterministic fault injection for the emulated testbed.

FastPR's whole premise is a *soon-to-fail* node, so the runtime must
survive the STF node (or any helper) actually dying mid-repair, plus
the usual network pathologies.  This module defines a declarative
:class:`FaultPlan` — node crashes, packet drop/delay/duplication,
payload corruption, slow-NIC degradation — and a :class:`FaultInjector`
that the :class:`~repro.runtime.transport.Network` consults on every
send.  All probabilistic decisions come from per-link RNG streams
seeded from ``(seed, src, dst)``, so a plan replays identically
regardless of thread interleaving.

Crash semantics: a crashed node is a black hole.  Messages from or to
it are silently dropped (like a dead TCP peer), its agent is told to
stand down via the injector's ``on_crash`` callback, and the
coordinator discovers the death through missed ACK deadlines plus an
explicit ping probe.  Nothing in the repair protocol is told about the
crash out of band.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..cluster.chunk import NodeId
from ..core.serde import Schema

#: shared serde protocol (versioned, unknown keys raise TypeError —
#: the contract ``FaultPlan.from_dict`` has always had for typos)
FAULT_PLAN_SCHEMA = Schema(
    kind="FaultPlan",
    version=1,
    fields=(
        "crashes",
        "links",
        "slow_nics",
        "coordinator_crashes",
        "domain_crashes",
        "daemon_crashes",
        "seed",
    ),
    error=TypeError,
    implicit_version=1,  # hand-written fault-plan JSON predates versions
)


@dataclass(frozen=True)
class CrashFault:
    """One node dies permanently.

    Exactly one trigger should be set:

    Attributes:
        node: the node that dies.
        at_time: seconds after :meth:`FaultInjector.start` at which the
            endpoint goes dark.
        after_sent_bytes: the node dies once it has sent at least this
            many data-payload bytes (use to kill the STF node at a
            given migration progress, deterministically).
        after_recv_bytes: the node dies once it has received at least
            this many data-payload bytes.
    """

    node: NodeId
    at_time: Optional[float] = None
    after_sent_bytes: Optional[int] = None
    after_recv_bytes: Optional[int] = None

    def __post_init__(self):
        triggers = [
            t
            for t in (self.at_time, self.after_sent_bytes, self.after_recv_bytes)
            if t is not None
        ]
        if len(triggers) != 1:
            raise ValueError("CrashFault needs exactly one trigger")
        if triggers[0] < 0:
            raise ValueError("crash trigger must be non-negative")


@dataclass(frozen=True)
class LinkFault:
    """Packet-level impairments on a link (data packets only).

    Control messages (commands, ACKs, pings) are never impaired by a
    LinkFault — the runtime treats them as reliably delivered unless a
    node has crashed; transient loss is modeled where it hurts, on the
    throttled data path.

    Attributes:
        drop: probability a data packet is dropped.
        duplicate: probability a data packet is delivered twice.
        corrupt: probability one byte of the payload is flipped (the
            per-packet checksum catches it at the receiver).
        delay: fixed extra latency (seconds) added to every packet.
        src / dst: restrict the fault to one link end; ``None`` = any.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0
    src: Optional[NodeId] = None
    dst: Optional[NodeId] = None

    def __post_init__(self):
        for p in (self.drop, self.duplicate, self.corrupt):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")

    def applies(self, src: NodeId, dst: NodeId) -> bool:
        return (self.src is None or self.src == src) and (
            self.dst is None or self.dst == dst
        )


@dataclass(frozen=True)
class SlowNicFault:
    """Degrade a node's NIC bandwidth by ``factor`` at ``at_time``.

    Models the paper's motivating scenario of a soon-to-fail machine
    limping along: the node stays alive but its links slow down.
    """

    node: NodeId
    factor: float
    at_time: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("factor must be in (0, 1]")
        if self.at_time < 0:
            raise ValueError("at_time must be non-negative")


@dataclass(frozen=True)
class CoordinatorCrashFault:
    """The coordinator process dies at a deterministic point.

    Unlike node crashes, a coordinator crash kills the control plane
    only: agents keep running, in-flight transfers finish, and recovery
    (:meth:`repro.runtime.coordinator.Coordinator.recover`) must resume
    the repair from the write-ahead journal.  Exactly one trigger:

    Attributes:
        after_records: die immediately after the Nth journal record of
            the run hits disk (the crash-point sweep iterates this).
        after_round: die right after the given round's ``RoundCompleted``
            record is journaled.
    """

    after_records: Optional[int] = None
    after_round: Optional[int] = None

    def __post_init__(self):
        triggers = [
            t for t in (self.after_records, self.after_round) if t is not None
        ]
        if len(triggers) != 1:
            raise ValueError("CoordinatorCrashFault needs exactly one trigger")
        if self.after_records is not None and self.after_records < 1:
            raise ValueError("after_records must be >= 1")
        if self.after_round is not None and self.after_round < 0:
            raise ValueError("after_round must be non-negative")


@dataclass(frozen=True)
class DaemonCrashFault:
    """The repair daemon's own process dies at a deterministic point.

    A daemon death is one layer above a coordinator crash: the daemon's
    queue journal survives, any in-flight coordinator repair is cut at
    whatever its own journal holds, and a restarted daemon must resume
    from both journals without double-executing finished repairs
    (see :class:`repro.runtime.daemon.RepairDaemon.resume`).

    Attributes:
        after_tasks: die immediately after the Nth repair task of the
            run is journaled complete (the completion record is on
            disk; the daemon dies before dequeuing the next task).
    """

    after_tasks: int

    def __post_init__(self):
        if self.after_tasks < 1:
            raise ValueError("after_tasks must be >= 1")


@dataclass(frozen=True)
class DomainCrashFault:
    """A whole failure domain (rack or machine) dies at once.

    Correlated failures are the reason multi-coordinator repair exists:
    one rack losing power takes out every agent in it *and* any
    coordinator co-located there, in the same instant.  A domain crash
    is declared against the topology's domain index and expanded into
    per-node :class:`CrashFault`\\ s by :meth:`FaultPlan.resolve_domains`
    (the testbed does this automatically when given a topology).

    Attributes:
        kind: ``"rack"`` or ``"machine"`` (see
            :data:`repro.cluster.topology.DOMAIN_KINDS`).
        index: the domain's index within the topology.
        at_time: seconds after :meth:`FaultInjector.start` at which the
            whole domain goes dark.
        coordinators: shard indices whose coordinator is co-located in
            the dying domain; the injector kills each through its
            ``on_kill_coordinator`` callback at the same instant the
            domain's nodes crash.
    """

    kind: str
    index: int
    at_time: float = 0.0
    coordinators: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("rack", "machine"):
            raise ValueError(
                f"unknown failure domain kind {self.kind!r}; "
                "expected 'rack' or 'machine'"
            )
        if self.at_time < 0:
            raise ValueError("at_time must be non-negative")
        object.__setattr__(self, "coordinators", tuple(self.coordinators))
        if any(s < 0 for s in self.coordinators):
            raise ValueError("coordinator shard indices must be >= 0")


@dataclass
class FaultPlan:
    """A declarative, seeded set of faults for one repair run."""

    crashes: List[CrashFault] = field(default_factory=list)
    links: List[LinkFault] = field(default_factory=list)
    slow_nics: List[SlowNicFault] = field(default_factory=list)
    coordinator_crashes: List[CoordinatorCrashFault] = field(
        default_factory=list
    )
    domain_crashes: List[DomainCrashFault] = field(default_factory=list)
    daemon_crashes: List[DaemonCrashFault] = field(default_factory=list)
    seed: int = 0

    def link_bandwidths(
        self, at_time: Optional[float] = None
    ) -> Dict[NodeId, float]:
        """Effective per-node NIC bandwidth scales under this plan.

        The injector applies :class:`SlowNicFault` factors to the NIC
        limiters as their triggers come due, but nothing upstream could
        see those numbers: chain ordering and the cost model priced
        repairs as if every link still ran at full speed.  This
        accessor is the shared source of truth — node -> scale in
        (0, 1], folding every slow-NIC fault due by ``at_time`` (all of
        them when ``at_time`` is None: the steady state a whole repair
        run converges to).  Repeated faults on one node compose
        multiplicatively, exactly how the injector applies them
        (``network.scale_bandwidth`` multiplies the limiter rate).
        Nodes without a due fault are omitted (scale 1.0).
        """
        scales: Dict[NodeId, float] = {}
        for slow in self.slow_nics:
            if at_time is not None and slow.at_time > at_time:
                continue
            scales[slow.node] = scales.get(slow.node, 1.0) * slow.factor
        return scales

    def resolve_domains(self, topology) -> "FaultPlan":
        """Expand domain crashes into per-node crash faults.

        Returns a new plan whose ``crashes`` list additionally contains
        one time-triggered :class:`CrashFault` per node of each dying
        domain (nodes that already have a crash fault are skipped — the
        earliest trigger wins at the injector).  The ``domain_crashes``
        are kept: the injector still needs them to fire co-located
        coordinator kills.

        Args:
            topology: a :class:`~repro.cluster.topology.RackTopology`
                covering the nodes; a machine-kind crash requires its
                machine map.
        """
        if not self.domain_crashes:
            return self
        already = {c.node for c in self.crashes}
        expanded: List[CrashFault] = []
        for domain in self.domain_crashes:
            for node in topology.nodes_in_domain(domain.kind, domain.index):
                if node in already:
                    continue
                already.add(node)
                expanded.append(
                    CrashFault(node=node, at_time=domain.at_time)
                )
        return replace(self, crashes=self.crashes + expanded)

    def to_dict(self) -> dict:
        """JSON-compatible form (``fastpr repair --fault-plan``)."""
        return FAULT_PLAN_SCHEMA.dump(
            {
                "seed": self.seed,
                "crashes": [asdict(c) for c in self.crashes],
                "links": [asdict(f) for f in self.links],
                "slow_nics": [asdict(s) for s in self.slow_nics],
                "coordinator_crashes": [
                    asdict(c) for c in self.coordinator_crashes
                ],
                "domain_crashes": [
                    {**asdict(d), "coordinators": list(d.coordinators)}
                    for d in self.domain_crashes
                ],
                "daemon_crashes": [asdict(c) for c in self.daemon_crashes],
            }
        )

    @classmethod
    def from_dict(
        cls, document: dict, node_ids: Optional[Set[NodeId]] = None
    ) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (or hand-written
        JSON); unknown keys raise ``TypeError`` so typos surface.

        Args:
            node_ids: when given (e.g. the node set of the cluster
                snapshot the plan will run against), crash events
                targeting any node outside it raise ``ValueError`` at
                load time — instead of silently never firing at run
                time.
        """
        body = FAULT_PLAN_SCHEMA.load(document)
        plan = cls(
            crashes=[CrashFault(**c) for c in body.get("crashes", [])],
            links=[LinkFault(**f) for f in body.get("links", [])],
            slow_nics=[SlowNicFault(**s) for s in body.get("slow_nics", [])],
            coordinator_crashes=[
                CoordinatorCrashFault(**c)
                for c in body.get("coordinator_crashes", [])
            ],
            domain_crashes=[
                DomainCrashFault(
                    kind=d["kind"],
                    index=d["index"],
                    at_time=d.get("at_time", 0.0),
                    coordinators=tuple(d.get("coordinators", ())),
                )
                for d in body.get("domain_crashes", [])
            ],
            daemon_crashes=[
                DaemonCrashFault(**c) for c in body.get("daemon_crashes", [])
            ],
            seed=body.get("seed", 0),
        )
        if node_ids is not None:
            plan.validate_nodes(node_ids)
        return plan

    def validate_nodes(self, node_ids: Set[NodeId]) -> None:
        """Reject crash events that target nodes outside ``node_ids``.

        Raises:
            ValueError: naming every unknown crash target.
        """
        known = set(node_ids)
        unknown = sorted(
            {c.node for c in self.crashes if c.node not in known}
        )
        if unknown:
            raise ValueError(
                f"fault plan crashes unknown node(s) {unknown}; "
                f"snapshot has {len(known)} nodes"
            )


@dataclass(frozen=True)
class PacketFate:
    """The injector's verdict on one data packet."""

    deliver: bool = True
    copies: int = 1
    extra_delay: float = 0.0
    payload: Optional[bytes] = None  # replacement payload if corrupted


_DELIVER = PacketFate()
_DROP = PacketFate(deliver=False)


class FaultInjector:
    """Runtime realization of a :class:`FaultPlan`.

    Thread-safe; consulted by :meth:`Network.send` on every message.

    Args:
        plan: the faults to inject.  Domain crashes must already be
            resolved against a topology (:meth:`FaultPlan.resolve_domains`)
            for their *node* deaths to fire; their co-located
            coordinator kills fire regardless, via
            ``on_kill_coordinator``.
        on_crash: callback invoked exactly once per node death (the
            testbed uses it to stand the node's agent down).  Called
            from whichever thread happened to trip the trigger — keep
            it non-blocking.
        on_kill_coordinator: callback invoked exactly once per shard
            index listed in a due domain crash's ``coordinators`` (the
            multi-coordinator testbed arms the shard journal's
            ``kill_on_next_append``).  Same threading caveat.
    """

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        on_crash: Optional[Callable[[NodeId], None]] = None,
        on_kill_coordinator: Optional[Callable[[int], None]] = None,
    ):
        self.plan = plan or FaultPlan()
        self.on_crash = on_crash
        self.on_kill_coordinator = on_kill_coordinator
        self._lock = threading.Lock()
        self._crashed: Set[NodeId] = set()
        self._killed_shards: Set[int] = set()
        self._epoch: Optional[float] = None
        self._sent_bytes: Dict[NodeId, int] = {}
        self._recv_bytes: Dict[NodeId, int] = {}
        self._rngs: Dict[Tuple[NodeId, NodeId], "_LinkRng"] = {}
        self._pending_slowdowns = sorted(
            self.plan.slow_nics, key=lambda s: s.at_time
        )
        #: daemon deaths not yet fired — shared across daemon
        #: incarnations so a restarted daemon does not re-trip a fault
        #: its predecessor already consumed
        self.daemon_crashes_pending: List[DaemonCrashFault] = list(
            self.plan.daemon_crashes
        )
        #: telemetry: packets dropped / duplicated / corrupted / delayed
        self.stats = {"dropped": 0, "duplicated": 0, "corrupted": 0, "delayed": 0}

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """(Re)start the fault clock; call at the start of a repair."""
        with self._lock:
            self._epoch = time.monotonic()

    def _now(self) -> float:
        if self._epoch is None:
            self.start()
        return time.monotonic() - self._epoch

    # -- crash handling --------------------------------------------------

    def is_crashed(self, node: NodeId) -> bool:
        with self._lock:
            return node in self._crashed

    @property
    def crashed_nodes(self) -> Set[NodeId]:
        with self._lock:
            return set(self._crashed)

    def kill(self, node: NodeId) -> None:
        """Crash a node immediately (manual trigger)."""
        self._mark_crashed(node)

    def _mark_crashed(self, node: NodeId) -> None:
        with self._lock:
            if node in self._crashed:
                return
            self._crashed.add(node)
        if self.on_crash is not None:
            self.on_crash(node)

    def _fire_due_crashes(self) -> None:
        now = self._now()
        due = []
        due_shards = []
        with self._lock:
            for crash in self.plan.crashes:
                if crash.node in self._crashed:
                    continue
                if crash.at_time is not None and now >= crash.at_time:
                    due.append(crash.node)
            for domain in self.plan.domain_crashes:
                if now < domain.at_time:
                    continue
                for shard in domain.coordinators:
                    if shard not in self._killed_shards:
                        self._killed_shards.add(shard)
                        due_shards.append(shard)
        for node in due:
            self._mark_crashed(node)
        if self.on_kill_coordinator is not None:
            for shard in due_shards:
                self.on_kill_coordinator(shard)

    def _count_bytes(self, src: NodeId, dst: NodeId, nbytes: int) -> None:
        due = []
        with self._lock:
            sent = self._sent_bytes[src] = self._sent_bytes.get(src, 0) + nbytes
            recv = self._recv_bytes[dst] = self._recv_bytes.get(dst, 0) + nbytes
            for crash in self.plan.crashes:
                if crash.node in self._crashed:
                    continue
                if (
                    crash.after_sent_bytes is not None
                    and crash.node == src
                    and sent >= crash.after_sent_bytes
                ):
                    due.append(crash.node)
                if (
                    crash.after_recv_bytes is not None
                    and crash.node == dst
                    and recv >= crash.after_recv_bytes
                ):
                    due.append(crash.node)
        for node in due:
            self._mark_crashed(node)

    # -- network hooks ---------------------------------------------------

    def tick(self, network) -> None:
        """Apply time-based faults that are due (crashes, slow NICs)."""
        self._fire_due_crashes()
        now = self._now()
        with self._lock:
            due = [s for s in self._pending_slowdowns if s.at_time <= now]
            if not due:
                return
            self._pending_slowdowns = [
                s for s in self._pending_slowdowns if s.at_time > now
            ]
        for slow in due:
            network.scale_bandwidth(slow.node, slow.factor)

    def filter_message(self, src: NodeId, dst: NodeId) -> bool:
        """True if a control/data message may pass at all."""
        with self._lock:
            return src not in self._crashed and dst not in self._crashed

    def on_data_packet(self, src: NodeId, dst: NodeId, packet) -> PacketFate:
        """Decide the fate of one data packet; counts crash-trigger bytes.

        The byte counters charge the *attempted* send (the bytes left
        the NIC even if the packet is then lost), so byte-triggered
        crashes fire at a deterministic point in the stream.
        """
        nbytes = len(packet.payload)
        self._count_bytes(src, dst, nbytes)
        with self._lock:
            if src in self._crashed or dst in self._crashed:
                return _DROP
        faults = [f for f in self.plan.links if f.applies(src, dst)]
        if not faults:
            return _DELIVER
        rng = self._link_rng(src, dst)
        deliver = True
        copies = 1
        extra_delay = 0.0
        payload: Optional[bytes] = None
        for fault in faults:
            if fault.drop and rng.chance(fault.drop):
                deliver = False
            if fault.duplicate and rng.chance(fault.duplicate):
                copies = 2
            if fault.corrupt and rng.chance(fault.corrupt):
                data = bytearray(payload if payload is not None else packet.payload)
                if data:
                    data[rng.randrange(len(data))] ^= 0xFF
                payload = bytes(data)
            if fault.delay:
                extra_delay += fault.delay
        if not deliver:
            with self._lock:
                self.stats["dropped"] += 1
            return _DROP
        with self._lock:
            if copies > 1:
                self.stats["duplicated"] += 1
            if payload is not None:
                self.stats["corrupted"] += 1
            if extra_delay:
                self.stats["delayed"] += 1
        return PacketFate(
            deliver=True, copies=copies, extra_delay=extra_delay, payload=payload
        )

    def _link_rng(self, src: NodeId, dst: NodeId) -> "_LinkRng":
        with self._lock:
            rng = self._rngs.get((src, dst))
            if rng is None:
                rng = _LinkRng(self.plan.seed, src, dst)
                self._rngs[(src, dst)] = rng
            return rng


class _LinkRng:
    """Deterministic per-link random stream (seeded by seed/src/dst).

    Each link gets its own stream so the decision sequence on a link
    depends only on the packet order *on that link* — which per-chunk
    streaming makes deterministic — not on global thread interleaving.
    """

    def __init__(self, seed: int, src: NodeId, dst: NodeId):
        import random
        import zlib

        # str/tuple __hash__ is salted per process; crc32 is stable, so
        # a FaultPlan replays identically across runs.
        self._rng = random.Random(zlib.crc32(f"{seed}:{src}:{dst}".encode()))
        self._lock = threading.Lock()

    def chance(self, p: float) -> bool:
        with self._lock:
            return self._rng.random() < p

    def randrange(self, n: int) -> int:
        with self._lock:
            return self._rng.randrange(n)


def corrupted(packet, payload: bytes):
    """Return a copy of ``packet`` with its payload replaced."""
    return replace(packet, payload=payload)
