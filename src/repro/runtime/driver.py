"""The one repair driver: a coordinator run, whoever hosts the agents.

The paper's prototype (Section V) is one coordinator driving agents;
whether those agents are threads of this process
(:class:`~repro.runtime.testbed.EmulatedTestbed`) or separate OS
processes behind sockets or shared-memory rings
(:func:`repro.net.launch.run_agent_process`) is a deployment detail.
:class:`RepairDriver` is the coordinator's side of every such run and
the only place that builds a run's fault injector, journal,
:class:`~repro.runtime.coordinator.Coordinator` (fresh or recovered)
and :class:`~repro.runtime.multicoord.MultiCoordinator`;
:func:`run_repair` strings its steps into the one sequence.

The data set is deterministic and *distributed*: every consumer of one
``(cluster, codec, seed)`` triple walks the same
:func:`iter_encoded_stripes` stream.  A process that hosts nodes keeps
their chunks; the driver keeps every chunk's checksum, so after the
repair it can prove — from the stores under the shared ``workdir`` —
that each repaired chunk is byte-identical to the original without any
chunk ever crossing a non-repair channel.  The stream is
``random.Random(seed).getrandbits`` bytes drawn through numpy's MT19937,
encoded in windows bounded by bytes, not stripes; storing and hashing
each stripe runs on loader threads while the next one is drawn, with
at most two stripes waiting for them.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

import numpy as np

from ..cluster.chunk import NodeId, Stripe
from ..cluster.cluster import StorageCluster
from ..cluster.topology import RackTopology
from ..core.analysis import optimal_packet_size
from ..core.plan import RepairPlan
from ..core.planner import profile_from_cluster
from ..core.scheduling import HelperBudget
from ..ec.codec import DecodeError, ErasureCodec
from ..ec.reed_solomon import WINDOW_BYTES
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .agent import Agent
from .config import DEFAULT_CONFIG, RuntimeConfig
from .coordinator import (
    COORDINATOR_ID,
    Coordinator,
    RuntimeResult,
    _source_coefficients,
)
from .datanode import ChunkStore
from .faults import CoordinatorCrashFault, FaultInjector, FaultPlan
from .journal import CoordinatorCrash, RepairJournal
from .messages import Shutdown
from .multicoord import MultiCoordinator, MultiRepairResult
from .throttle import RateLimiter

Result = Union[RuntimeResult, MultiRepairResult]
T = TypeVar("T")


# ----------------------------------------------------------------------
# the deterministic data set
# ----------------------------------------------------------------------


def _mersenne_twister(rng: random.Random) -> np.random.MT19937:
    """``rng``'s Mersenne Twister, at its state, as numpy's bit generator.

    Both run the reference MT19937; ``getstate()`` is its 624 key words
    and then the position in them, exactly numpy's ``key`` and ``pos``.
    """
    internal = rng.getstate()[1]
    twister = np.random.MT19937(0)
    twister.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.array(internal[:624], dtype=np.uint32),
            "pos": internal[624],
        },
    }
    return twister


def _random_chunk(twister: np.random.MT19937, size: int) -> bytes:
    """``getrandbits(8 * size).to_bytes(size, "little")``, drawn in C.

    ``getrandbits`` fills its integer 32 bits at a time, least
    significant word first, from one MT output each, and keeps only the
    top ``8 * size % 32`` bits of the last one: the same words, shifted
    the same way and laid out little-endian, are the same bytes, and
    the twister ends where Python's would.
    """
    words = twister.random_raw(-(-size // 4)).astype("<u4")
    tail = 8 * size % 32
    if tail:
        words[-1] >>= 32 - tail
    return words.view(np.uint8)[:size].tobytes()


def iter_encoded_stripes(
    cluster: StorageCluster, codec: ErasureCodec, seed: Optional[int] = None
):
    """Yield ``(stripe, coded_chunks)`` for every stripe, deterministically.

    One sequential RNG stream (seeded by ``seed``) generates the data
    chunks of every stripe in stripe order, so *any* consumer of the
    same ``(cluster, codec, seed)`` triple sees byte-identical chunks —
    the testbed loads them all into local stores, while each standalone
    agent process walks the same stream and keeps only its own node's
    chunks (see :func:`load_node_data`).  The bytes are those of
    ``random.Random(seed).getrandbits``, drawn through numpy's MT19937.

    Stripes are drawn and encoded in windows of at most
    :data:`~repro.ec.reed_solomon.WINDOW_BYTES` of data (one stripe once
    ``k`` chunks exceed it), the most one ``encode_batch`` matmul
    stacks: small chunks still batch, and large ones hold one stripe
    at a time.
    """
    yield from _encoded_stripes(cluster, codec, seed)


def _encoded_stripes(
    cluster: StorageCluster,
    codec: ErasureCodec,
    seed: Optional[int],
    node_id: Optional[NodeId] = None,
) -> Iterable[Tuple[Stripe, List[bytes]]]:
    """:func:`iter_encoded_stripes`, only the stripes placed on
    ``node_id`` when one is given.

    A skipped stripe is neither drawn nor encoded: the twister just
    advances past its words, so the stripes kept carry the stream's
    bytes.
    """
    stripes = list(cluster.stripes())
    if not stripes:
        return  # without importing numpy.random (about 2 MB resident)
    twister = _mersenne_twister(random.Random(seed))
    chunk_size = cluster.chunk_size
    words = -(-chunk_size // 4)  # what one _random_chunk draws
    window = max(1, WINDOW_BYTES // max(1, codec.k * chunk_size))
    batch: List[Stripe] = []
    data: List[List[bytes]] = []
    for stripe in stripes:
        if node_id is not None and node_id not in stripe.placement:
            twister.random_raw(stripe.k * words, output=False)
            continue
        batch.append(stripe)
        data.append(
            [_random_chunk(twister, chunk_size) for _ in range(stripe.k)]
        )
        if len(batch) == window:
            yield from zip(batch, codec.encode_batch(data))
            batch, data = [], []
    if batch:
        yield from zip(batch, codec.encode_batch(data))


#: threads that store and hash the stream's stripes, one stripe each at
#: most: sha256 and file writes release the GIL, so they overlap the
#: next stripe's draw and encode, and no more coded stripes than this
#: wait for them.
_LOADERS = 2


def _map_stripes(
    stream: Iterable[Tuple[Stripe, List[bytes]]],
    work: Callable[[Stripe, List[bytes]], T],
) -> List[T]:
    """``[work(s, coded) for s, coded in stream]``, with ``work`` on
    loader threads.

    The calling thread draws and encodes while at most
    :data:`_LOADERS` stripes are with the loaders.  Results come back
    in stripe order; the first failure re-raises here once every
    loader has stopped, and no loader outlives the call (none starts
    for a cluster without stripes).
    """
    results: List[T] = []
    pending: Deque[Future] = deque()
    with ThreadPoolExecutor(_LOADERS, thread_name_prefix="data-loader") as pool:
        try:
            for stripe, coded in stream:
                if len(pending) == _LOADERS:
                    results.append(pending.popleft().result())
                pending.append(pool.submit(work, stripe, coded))
            while pending:
                results.append(pending.popleft().result())
        finally:
            for future in pending:
                future.cancel()
    return results


def load_node_data(
    cluster: StorageCluster,
    codec: ErasureCodec,
    seed: Optional[int],
    store: ChunkStore,
    node_id: NodeId,
) -> int:
    """Store ``node_id``'s chunk of every stripe placed on it.

    Walks the deterministic stream (so the bytes match the other
    agents' and the driver's view exactly) but draws and encodes only
    the stripes placed on this node; returns how many chunks were
    stored.
    """

    def store_own(stripe: Stripe, coded: List[bytes]) -> int:
        stored = 0
        for index, placed in enumerate(stripe.placement):
            if placed == node_id:
                store.put(stripe.stripe_id, coded[index])
                stored += 1
        return stored

    return sum(
        _map_stripes(_encoded_stripes(cluster, codec, seed, node_id), store_own)
    )


# ----------------------------------------------------------------------
# post-repair verification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkMismatch:
    """One chunk that failed post-repair verification."""

    stripe_id: int
    chunk_index: int
    node_id: NodeId
    #: ``"missing"`` (destination has no chunk) or ``"mismatch"``
    #: (bytes differ from the load-time original)
    reason: str


class VerificationError(AssertionError):
    """Raised when repaired chunks' bytes do not match the originals.

    Carries *every* failing chunk in :attr:`mismatches` (not just the
    first), so callers — notably ``fastpr repair`` — can log the full
    set of mismatching chunk ids and exit non-zero.
    """

    def __init__(self, message: str, mismatches: Sequence[ChunkMismatch] = ()):
        super().__init__(message)
        self.mismatches: List[ChunkMismatch] = list(mismatches)


def mismatch_error(mismatches: Sequence[ChunkMismatch]) -> VerificationError:
    """Build a :class:`VerificationError` naming every failing chunk."""
    ids = "; ".join(
        f"stripe {m.stripe_id} chunk {m.chunk_index} at node {m.node_id} "
        f"({m.reason})"
        for m in mismatches
    )
    return VerificationError(
        f"{len(mismatches)} chunk(s) failed post-repair verification: {ids}",
        mismatches,
    )


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# one node's store and agent under the workdir
# ----------------------------------------------------------------------


def node_store(
    cluster: StorageCluster,
    workdir: Path,
    node_id: NodeId,
    stop=None,
    metrics: Optional[MetricsRegistry] = None,
) -> ChunkStore:
    """``node_id``'s chunk store, ``workdir/node_<id>``, behind its disk."""
    disk = RateLimiter(
        cluster.node(node_id).disk_bandwidth or cluster.disk_bandwidth,
        name=f"disk[{node_id}]",
        stop=stop,
        metrics=metrics,
        labels={"device": "disk", "node": node_id},
    )
    return ChunkStore(Path(workdir) / f"node_{node_id}", node_id, disk)


def host_agent(
    network,
    cluster: StorageCluster,
    workdir: Path,
    node_id: NodeId,
    config: Optional[RuntimeConfig] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    stop=None,
) -> Agent:
    """Attach ``node_id`` to ``network`` and build its store and agent
    (``stop`` interrupts the node's throttled sleeps at shutdown)."""
    node = cluster.node(node_id)
    network.attach(
        node_id, node.network_bandwidth or cluster.network_bandwidth, stop=stop
    )
    return Agent(
        node_id,
        node_store(cluster, workdir, node_id, stop=stop, metrics=metrics),
        network,
        coordinator_id=COORDINATOR_ID,
        config=config,
        metrics=metrics,
        tracer=tracer,
    )


def inject_faults(
    faults: FaultPlan,
    agents: Mapping[NodeId, Agent],
    on_kill_coordinator: Optional[Callable[[int], None]] = None,
) -> FaultInjector:
    """An injector for ``faults`` that stands down whichever of this
    process's ``agents`` dies; the caller puts it on its network."""

    def on_crash(node_id: NodeId) -> None:
        if node_id in agents:
            agents[node_id].crash()

    return FaultInjector(
        faults, on_crash=on_crash, on_kill_coordinator=on_kill_coordinator
    )


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------


class RepairDriver:
    """The coordinator's side of a repair run over any transport.

    Holds what outlives one coordinator incarnation — the fault
    injector and its queue of coordinator crashes, the journal path,
    every store under ``workdir`` and the data set's checksums — and
    exposes the run as the steps :func:`run_repair` sequences.  The
    agents are remote processes sharing ``workdir`` unless ``agents``
    names the ones hosted here
    (:class:`~repro.runtime.testbed.EmulatedTestbed`).

    Args:
        network: any :class:`~repro.runtime.transport.Transport`; the
            coordinator attaches at :data:`COORDINATOR_ID`.
        cluster: metadata (placements, bandwidths, chunk size).
        codec: erasure codec matching the cluster's stripes.
        workdir: directory of every node's chunk store (``node_<id>``).
        packet_size: transfer granularity (the paper's Experiment B.1
            knob).  Defaults to what
            :func:`~repro.core.analysis.optimal_packet_size` picks from
            the cluster's chunk size and bandwidths, capped at the
            transport's largest packet; an explicit size the transport
            cannot carry is a ``ValueError``.
        config: runtime timeouts/retry policy.
        journal_path: write-ahead journal of a single-coordinator run;
            defaults to ``workdir/"repair.journal"`` once a coordinator
            crash is armed, else no journaling.
        metrics, tracer: observability sinks of the whole run.
        faults: declarative fault plan; covers this side's traffic and
            time-based triggers (each agent process runs the same plan
            for its own packets).  Its ``coordinator_crashes`` are
            armed one per coordinator incarnation, its
            ``domain_crashes`` resolved against ``topology`` (one that
            names coordinators kills those shards mid-run).
        topology: rack/machine failure domains.
        agents: the agents hosted in this process, by node id.
    """

    def __init__(
        self,
        network,
        cluster: StorageCluster,
        codec: ErasureCodec,
        workdir: Path,
        packet_size: Optional[int] = None,
        config: Optional[RuntimeConfig] = None,
        journal_path: Optional[Path] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultPlan] = None,
        topology: Optional[RackTopology] = None,
        agents: Optional[Mapping[NodeId, Agent]] = None,
    ):
        self.network = network
        self.cluster = cluster
        self.codec = codec
        self.workdir = Path(workdir)
        #: largest payload one frame of this transport carries, if bounded
        self.max_packet: Optional[int] = getattr(network, "max_packet", None)
        self.packet_size = self._fitting(
            packet_size
            or optimal_packet_size(
                profile_from_cluster(cluster), self.max_packet
            ),
            self.max_packet,
        )
        self.config = config or DEFAULT_CONFIG
        self.metrics = metrics
        self.tracer = tracer
        self.agents: Mapping[NodeId, Agent] = agents or {}
        self.stores: Dict[NodeId, ChunkStore] = {
            node_id: (
                self.agents[node_id].store
                if node_id in self.agents
                else node_store(cluster, self.workdir, node_id)
            )
            for node_id in cluster.nodes
        }
        self._checksums: Dict[Tuple[int, int], str] = {}
        self.journal_path = Path(journal_path) if journal_path else None
        #: the run's injector; on the network from :meth:`execute` on
        self.faults: Optional[FaultInjector] = None
        self._crash_faults: List[CoordinatorCrashFault] = []
        if faults is not None:
            if topology is not None:
                faults = faults.resolve_domains(topology)
            elif faults.domain_crashes:
                raise ValueError(
                    "fault plan has domain_crashes but no topology was "
                    "given to resolve them against"
                )
            self.faults = inject_faults(faults, self.agents, self._kill_shard)
            self._crash_faults = list(faults.coordinator_crashes)
        self.coordinator: Optional[Coordinator] = None
        self.multi: Optional[MultiCoordinator] = None

    @staticmethod
    def _fitting(packet_size: int, max_packet: Optional[int] = None) -> int:
        """``packet_size``, or a ``ValueError`` when it is not positive or
        no frame of the transport (whose largest payload is
        ``max_packet``) can carry it — it would fail mid-round instead."""
        if packet_size < 1:
            raise ValueError(f"packet_size must be >= 1, got {packet_size}")
        if max_packet is not None and packet_size > max_packet:
            raise ValueError(
                f"packet_size {packet_size} does not fit the transport: "
                f"its largest packet is {max_packet} bytes"
            )
        return packet_size

    # -- the data set --------------------------------------------------

    def load_random_data(self, seed: Optional[int] = None) -> None:
        """Learn the data set seeded by ``seed``; store the hosted part.

        Remembers every chunk's checksum so :meth:`verify_plan` can
        prove the repair restored the exact original bytes, and writes
        (unthrottled) the chunks of nodes hosted in this process —
        remote agents load their own (:func:`load_node_data`).
        """

        def store_and_hash(stripe: Stripe, coded: List[bytes]):
            for index, node_id in enumerate(stripe.placement):
                if node_id in self.agents:
                    self.stores[node_id].put(stripe.stripe_id, coded[index])
            return stripe.stripe_id, [_digest(chunk) for chunk in coded]

        for stripe_id, digests in _map_stripes(
            iter_encoded_stripes(self.cluster, self.codec, seed), store_and_hash
        ):
            for index, digest in enumerate(digests):
                self._checksums[(stripe_id, index)] = digest

    def verify_plan(
        self, plan: RepairPlan, result: Optional[Result] = None
    ) -> int:
        """Check every repaired chunk's bytes at its destination.

        Pass the run's ``result`` when faults may have replanned
        actions, so the *effective* destinations are checked.  Returns
        the number of chunks verified; raises
        :class:`VerificationError` naming *every* missing or
        mismatching chunk (the scan does not stop at the first).
        """
        executed = result.executed_actions if result is not None else None
        verified = 0
        mismatches = []
        for action in executed or plan.actions():
            store = self.stores[action.destination]
            expected = self._checksums[(action.stripe_id, action.chunk_index)]
            if not store.has(action.stripe_id):
                reason = "missing"
            elif _digest(store.read(action.stripe_id)) != expected:
                reason = "mismatch"
            else:
                verified += 1
                continue
            mismatches.append(
                ChunkMismatch(
                    action.stripe_id, action.chunk_index, action.destination, reason
                )
            )
        if mismatches:
            raise mismatch_error(mismatches)
        return verified

    # -- fault hooks ---------------------------------------------------

    def crash_node(self, node_id: NodeId) -> None:
        """Kill a node right now (manual fault trigger).

        Its endpoint goes dark and, when hosted here, its agent stands
        down; the coordinator discovers the death via deadlines +
        probing.
        """
        if self.faults is None:
            self.faults = inject_faults(FaultPlan(), self.agents, self._kill_shard)
        self.network.faults = self.faults
        self.faults.kill(node_id)

    def _kill_shard(self, shard: int) -> None:
        if self.multi is not None:
            self.multi.kill_shard(shard)

    def arm_crash(self, fault: CoordinatorCrashFault) -> None:
        """Arm a deterministic death of the live coordinator.

        It raises :class:`CoordinatorCrash` out of :meth:`execute` (or
        :meth:`resume`) right after its ``after_records``-th journal
        record is durably written — the window a real process death
        leaves behind: state journaled, action not yet taken — or after
        ``after_round``'s ``RoundCompleted``.  Journaling is enabled
        (default ``workdir/"repair.journal"``) if it was not.
        """
        journal = self._journal()
        journal.crash_after_records = fault.after_records
        journal.crash_after_round = fault.after_round

    def _journal(self) -> RepairJournal:
        """The live coordinator's journal, opened on first need."""
        if self.coordinator.journal is None:
            if self.journal_path is None:
                self.journal_path = self.workdir / "repair.journal"
            self.coordinator.journal = RepairJournal(
                self.journal_path, fsync=self.config.journal_fsync,
                metrics=self.metrics,
            )
        return self.coordinator.journal

    # -- coordinator incarnations --------------------------------------

    def _retire(self) -> None:
        """Free endpoint -1 for the next incarnation (or for shard 0)."""
        if self.coordinator is not None:
            self.coordinator.close()
            try:
                self.network.detach(COORDINATOR_ID)
            except KeyError:
                pass

    def build(self, resume: bool = False) -> Coordinator:
        """Install a coordinator at endpoint -1, replacing any before it.

        ``resume=True`` replays :attr:`journal_path` through
        :meth:`Coordinator.recover` — the successor, one epoch up,
        finishes the repair in :meth:`resume`.  Otherwise the
        coordinator is fresh and journals iff a journal path is set.
        Either way the fault plan's next coordinator crash is armed.
        """
        self._retire()
        shared = dict(
            config=self.config, metrics=self.metrics, tracer=self.tracer
        )
        if resume:
            if self.journal_path is None:
                raise RuntimeError("no journal: coordinator cannot be recovered")
            self.coordinator = Coordinator.recover(
                self.journal_path, self.network, self.cluster, self.codec,
                **shared,
            )
        else:
            self.coordinator = Coordinator(
                self.network, self.cluster, self.codec, self.packet_size, **shared
            )
            if self.journal_path is not None:
                self._journal()
        if self._crash_faults:
            self.arm_crash(self._crash_faults.pop(0))
        return self.coordinator

    def shard(
        self,
        num_shards: int,
        journal_dir: Optional[Path] = None,
        budget: Optional[HelperBudget] = None,
    ) -> MultiCoordinator:
        """Hand the run to ``num_shards`` shard coordinators.

        The single coordinator's endpoint goes to shard 0 (same id
        ``-1``, so agent heartbeats stay addressed); each shard
        journals to ``journal_dir/shard-<k>.journal`` (default
        ``workdir/shards``) and a crashed shard is adopted by a
        survivor (see :class:`MultiCoordinator`).
        """
        if self.multi is None:
            self._retire()
            self.multi = MultiCoordinator(
                self.network, self.cluster, self.codec, self.packet_size,
                journal_dir=journal_dir or self.workdir / "shards",
                num_shards=num_shards, config=self.config, budget=budget,
                metrics=self.metrics, tracer=self.tracer,
            )
        elif self.multi.shard_map.num_shards != num_shards:
            raise RuntimeError(
                "this run already built a MultiCoordinator with "
                f"{self.multi.shard_map.num_shards} shards"
            )
        return self.multi

    def close(self) -> None:
        """Release every coordinator's journal handle (idempotent)."""
        for runner in (self.coordinator, self.multi):
            if runner is not None:
                runner.close()

    # -- running -------------------------------------------------------

    def probe(
        self,
        plan: RepairPlan,
        timeout: float = 60.0,
        also: Iterable[NodeId] = (),
    ) -> None:
        """Barrier: block until every node the plan touches, and every
        node in ``also``, answers a ping (lazy connects absorb
        agent-process startup races; an agent answers only once its
        data is loaded)."""
        pending = {n for a in plan.actions() for n in (*a.sources, a.destination)}
        pending.update(also)
        deadline = time.monotonic() + timeout
        while True:
            pending -= self.coordinator._reachable(set(pending))
            if not pending:
                return
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"agents never came up: {sorted(pending)} unreachable "
                    f"after {timeout}s"
                )
            time.sleep(0.2)

    def arm_faults(self) -> None:
        """Put the injector on the network; fault time zero is now."""
        if self.faults is not None:
            self.network.faults = self.faults
            self.faults.start()

    def execute(
        self, plan: RepairPlan, packet_size: Optional[int] = None
    ) -> Result:
        """Run ``plan`` from the top on the live coordinator(s).

        Raises:
            ValueError: before any command is sent, when the codec has
                no per-helper coefficients for one of the plan's
                reconstructions (an MSR repair, whose helpers send
                sub-chunk symbols, or helpers that do not determine
                the lost chunk).  Migrations need none.
        """
        if packet_size is not None:
            self._fitting(packet_size, self.max_packet)
        for action in plan.actions():
            try:
                _source_coefficients(self.cluster, self.codec, action)
            except DecodeError as exc:
                raise ValueError(
                    f"{self.codec!r} cannot run the reconstruction of chunk "
                    f"({action.stripe_id}, {action.chunk_index}) from nodes "
                    f"{list(action.sources)}: {exc}"
                ) from exc
        self.arm_faults()
        runner = self.multi or self.coordinator
        return self._supervised(
            lambda: runner.execute(plan, packet_size=packet_size)
        )

    def resume(self) -> RuntimeResult:
        """Finish a recovered repair (see :meth:`Coordinator.resume`)."""
        return self._supervised(self.coordinator.resume)

    def _supervised(self, run: Callable[[], Result]) -> Result:
        """One coordinator call as a registered arbiter flow, after
        which no surviving hosted agent may hold an unreported error."""
        arbiter = getattr(self.network, "arbiter", None)
        with arbiter.register("repair") if arbiter else nullcontext():
            result = run()
        for agent in self.agents.values():
            if agent.errors and not agent.crashed:
                raise agent.errors[0]
        return result


def run_repair(
    driver: RepairDriver,
    plan: RepairPlan,
    coordinators: int = 1,
    journal_dir: Optional[Path] = None,
    resume: bool = False,
    agent_timeout: float = 60.0,
    max_restarts: int = 8,
    log: Optional[Callable[[str], None]] = None,
    await_nodes: Iterable[NodeId] = (),
) -> Tuple[Result, int, int]:
    """Drive one repair to a verified end; the same on every transport.

    Build a coordinator (``resume=True``: recover it from the journal,
    epoch + 1, agents fence the old epoch) unless the driver holds one;
    gate on every involved agent — the plan's, plus ``await_nodes``
    (whatever else the caller will read afterwards, e.g. every store
    for a post-repair scrub) — answering a ping; with
    ``coordinators > 1`` hand over to that many shard coordinators;
    install the fault injector only now, so fault time zero is the
    start of the repair, not of the probe sweep; execute (or resume).
    An injected :class:`CoordinatorCrash` is recovered in place —
    successor from the journal, re-issuing only unfinished actions — at
    most ``max_restarts`` times, so a crash plan denser than the plan's
    rounds still ends.  Then the executed actions are verified
    byte-identical at their destinations, and on the way out, whatever
    happened, every agent is told to shut down (standalone agent
    processes exit on it).

    Returns ``(result, chunks_verified, restarts)``; ``restarts``
    counts coordinator recoveries plus shard takeovers.
    """
    say = log or (lambda _message: None)
    try:
        if resume or driver.coordinator is None:
            driver.build(resume=resume)
        driver.probe(plan, agent_timeout, also=await_nodes)
        if coordinators > 1:
            driver.shard(coordinators, journal_dir)
        if resume:
            driver.arm_faults()
        restarts = 0
        while True:
            try:
                result = driver.resume() if resume else driver.execute(plan)
                break
            except CoordinatorCrash as crash:
                restarts += 1
                if restarts > max_restarts:
                    raise
                say(f"coordinator crashed: {crash}; recovering from journal")
                driver.build(resume=True)
                resume = True
        for event in getattr(result, "takeovers", ()):
            restarts += 1
            say(
                f"shard {event.shard} taken over by shard {event.adopter} "
                f"(epoch {event.epoch})"
            )
        return result, driver.verify_plan(plan, result), restarts
    finally:
        driver.close()
        for node_id in driver.network.node_ids():
            if node_id >= 0:
                try:
                    driver.network.send(COORDINATOR_ID, node_id, Shutdown())
                except KeyError:
                    pass  # coordinator endpoint never came up / is gone
