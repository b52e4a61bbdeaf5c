"""The per-node repair agent (Section V).

Each storage node runs an :class:`Agent` with:

* a *dispatcher* thread draining the node's inbox,
* a *send worker* that streams chunks out — one chunk at a time as a
  synchronous round trip (the next chunk starts only after the
  destination confirms the previous one is written, matching the
  sequential read->transmit->write decomposition of Eq. (4)); within a
  chunk, a short-lived *reader* thread runs ahead of the sender loop by
  up to the chunk (the paper's multi-threaded pipeline, Experiment B.1),
* a *client worker* serving gateway chunk reads, writes and deletes off
  the dispatcher thread,
* one *decode thread per chunk being assembled*, which applies the
  GF(2^8) recovery coefficient to each arriving packet (the paper's
  "one thread for decoding the received packets"), plus its
  *staging-writer* thread, which writes each fully decoded region to
  the assembly's staging file while the next packet is decoded,
* one *relay thread per chained stage*, plus its *relay-read* thread
  double-buffering the stage's own chunk,
* an optional *heartbeat* thread beaconing liveness to the coordinator.

The hand-offs between those threads are ``queue.SimpleQueue``s, and a
stream opens its chunk file once (:meth:`ChunkStore.open_read`,
:meth:`ChunkStore.open_staged`): what a packet costs is its CRC, its
GF math, one ``pread``/``pwrite`` and the limiters, not a file open or
a blocking queue (DESIGN.md §13 has the per-packet table).

Migration and reconstruction share one code path: a migration is an
assembly with a single source whose coefficient is 1.

Fault tolerance: every command carries an ``attempt`` number; stale
packets and commands from superseded attempts are dropped, every
assembly writes to a staging file of its own (named by stripe, epoch
and attempt) and promotes it atomically, failures that can be
tied to an action are NACKed to the coordinator (instead of dying
silently in a worker thread), and :meth:`crash` stands the whole agent
down the way a killed process would.

Split-brain fencing: every command also carries the coordinator's
``epoch``.  The agent persists the highest epoch it has seen *per
coordinator endpoint* (``coordinator.epoch`` in its store directory
for the default endpoint, ``coordinator.<id>.epoch`` otherwise) and
NACKs any mutating command from an older epoch — so when a crashed
coordinator's successor takes over (announcing its epoch via
:class:`~repro.runtime.messages.InventoryQuery`), the zombie
predecessor can no longer touch the store.  Commands carry the issuing
endpoint in ``reply_to``, so several shard coordinators can drive one
agent concurrently, each fencing only its own predecessors.  Adopting
a newer epoch aborts all in-flight work from older epochs of the same
endpoint, and chunk promotion happens under the same lock as the epoch
bump, so the successor's inventory snapshot is exact.
"""

from __future__ import annotations

import os
import queue
import threading
import time
import zlib
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..cluster.chunk import NodeId
from ..ec.galois import gf_addmul_bytes, gf_mul_bytes, record_kernel
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .config import DEFAULT_CONFIG, RuntimeConfig
from .datanode import ChunkStore, ChunkWriter
from .messages import (
    ActionKey,
    ChunkDelete,
    ChunkRead,
    ChunkReadReply,
    ChunkWrite,
    ChunkWriteReply,
    DataPacket,
    Heartbeat,
    InventoryQuery,
    InventoryReply,
    Ping,
    Pong,
    ReceiveCommand,
    RelayCommand,
    RepairAck,
    SendCommand,
    Shutdown,
    SlicePacket,
    SliceReport,
    WriteComplete,
    nack,
)
from .transport import Network


def slice_granularity(
    chunk_size: int, packet_size: int, num_slices: int
) -> int:
    """Effective transfer granularity of a (possibly sliced) stream.

    Sliced chained reconstruction carves the chunk into ``num_slices``
    equal slices (the last may run short); ``num_slices == 0`` keeps
    the command's packet size.  Relays and assemblies both derive
    their offsets from this, so slice boundaries agree across every
    hop of a chain regardless of the packet size the run was tuned to.
    """
    if num_slices > 0:
        return max(1, -(-chunk_size // num_slices))
    return packet_size

#: ordering handle for staleness: a bigger (epoch, attempt) supersedes
Generation = Tuple[int, int]


def _generation(message) -> Generation:
    return (message.epoch, message.attempt)

#: cap on the bytes buffered for one action awaiting a late
#: Receive/Relay registration, in chunks: every source of a wide stripe
#: may have sent its whole chunk (and a faulty link duplicated it)
#: before the command lands, but nothing legitimate sends more
MAX_PENDING_CHUNKS = 64

#: sentinel that aborts a blocked assembly/relay worker
_ABORT = object()


class AgentError(RuntimeError):
    """Raised (and recorded) on protocol violations inside an agent."""


class _PendingPackets:
    """One action's packets that arrived ahead of its command.

    No command means no chunk size, so the bound is taken against the
    chunk extent the buffered packets themselves span (each lies inside
    the chunk): :data:`MAX_PENDING_CHUNKS` times that, in bytes.
    """

    __slots__ = ("packets", "nbytes", "extent")

    def __init__(self):
        self.packets: List[DataPacket] = []
        self.nbytes = 0
        self.extent = 0

    def add(self, packet: DataPacket) -> bool:
        """Buffer ``packet``; False (and not buffered) on overflow."""
        size = len(packet.payload)
        extent = max(self.extent, packet.offset + size)
        if self.nbytes + size > MAX_PENDING_CHUNKS * extent:
            return False
        self.packets.append(packet)
        self.nbytes += size
        self.extent = extent
        return True

    def drop_older_than(self, epoch: int) -> bool:
        """Forget packets of epochs before ``epoch``; False if none remain."""
        self.packets = [p for p in self.packets if p.epoch >= epoch]
        self.nbytes = sum(len(p.payload) for p in self.packets)
        return bool(self.packets)


class _Assembly:
    """Accumulates coefficient-scaled packets into a repaired chunk.

    Each packet offset is decoded in memory; once every source has
    contributed to an offset, that packet is written to the staging
    file — so receive, decode and write pipeline across packets,
    matching the prototype's multi-threaded repair path (Section V).
    The staged chunk is promoted by :meth:`Agent._run_assembly` (under
    the agent's assembly lock, so promotion serializes with epoch
    fencing) only when complete — a crashed or superseded assembly
    never publishes a torn chunk.
    """

    def __init__(
        self,
        command: ReceiveCommand,
        store: ChunkStore,
        on_slice: Optional[Callable[[int, float], None]] = None,
    ):
        self.command = command
        self.store = store
        self.packets: "queue.SimpleQueue" = queue.SimpleQueue()
        #: set by :meth:`abort`; honoured at the next packet, ahead of
        #: whatever backlog is queued
        self._aborted = False
        #: this assembly's own staging file, opened by :meth:`run`; the
        #: agent promotes or discards it once the chunk is decoded
        self.staged: Optional[ChunkWriter] = None
        self._buffer = np.zeros(command.chunk_size, dtype=np.uint8)
        #: offset -> set of sources that already contributed (dedupes
        #: duplicated packets, which would otherwise double-apply coeffs)
        self._arrived: Dict[int, Set[NodeId]] = {}
        #: transfer granularity; for sliced streams this *is* the slice
        self._granularity = slice_granularity(
            command.chunk_size, command.packet_size, command.num_slices
        )
        self._remaining_offsets = self._count_offsets()
        #: best-effort per-slice progress hook (slice_index, elapsed_s)
        self._on_slice = on_slice
        #: completed regions queued to the staging-writer thread, so
        #: the (throttled) disk write overlaps the next packet's GF math
        self._writes: "queue.SimpleQueue" = queue.SimpleQueue()
        self._write_error: Optional[BaseException] = None
        #: telemetry accumulated over the assembly's lifetime
        self.decode_seconds = 0.0
        self.staging_seconds = 0.0
        self.bytes_received = 0
        #: trace span opened by the agent at command admission
        self.span = None

    def _count_offsets(self) -> int:
        size, packet = self.command.chunk_size, self._granularity
        return (size + packet - 1) // packet

    def abort(self) -> None:
        """Stop the decode thread at its next packet (the sentinel only
        wakes it if it is blocked on an empty queue); it discards its
        staging file and exits."""
        self._aborted = True
        self.packets.put(_ABORT)

    def _staging_writer(self) -> None:
        """Writer-thread body: flush completed regions to the .part file.

        Each queued region is final — every source has contributed and
        duplicates are dropped by the arrived-set — so the decode
        thread never touches those buffer bytes again and the write
        can proceed without copying them out (no ``tobytes``).
        """
        while True:
            item = self._writes.get()
            if item is None:
                return
            offset, end = item
            started = time.perf_counter()
            try:
                self.staged.write(offset, self._buffer[offset:end])
            except BaseException as exc:  # surfaced by run() after join
                self._write_error = exc
                return
            self.staging_seconds += time.perf_counter() - started

    def run(self) -> bool:
        """Decode-thread body; returns False if aborted before done.

        On success the chunk is fully staged but *not* promoted — the
        agent publishes it under its assembly lock.
        """
        num_sources = len(self.command.sources)
        size = self.command.chunk_size
        self.staged = self.store.open_staged(
            self.command.stripe_id,
            size,
            tag=f"e{self.command.epoch}a{self.command.attempt}",
        )
        writer = threading.Thread(
            target=self._staging_writer,
            name=f"agent-staging-{self.command.key}",
            daemon=True,
        )
        writer.start()
        started_at = time.perf_counter()
        complete = False
        try:
            while self._remaining_offsets > 0:
                packet = self.packets.get()
                if self._aborted:
                    return False
                if (
                    packet.attempt != self.command.attempt
                    or packet.epoch != self.command.epoch
                ):
                    continue  # stale retry traffic (or a fenced epoch's)
                if (
                    packet.checksum is not None
                    and zlib.crc32(packet.payload) != packet.checksum
                ):
                    continue  # corrupted in flight; the round trip stalls
                coeff = self.command.sources.get(packet.source)
                if coeff is None:
                    raise AgentError(
                        f"unexpected packet source {packet.source} for "
                        f"{self.command.key}"
                    )
                data = np.frombuffer(packet.payload, dtype=np.uint8)
                end = packet.offset + len(data)
                if end > size:
                    raise AgentError(
                        f"packet overruns chunk at {packet.offset}"
                    )
                arrived = self._arrived.setdefault(packet.offset, set())
                if packet.source in arrived:
                    continue  # duplicated delivery
                arrived.add(packet.source)
                self.bytes_received += len(data)
                started = time.perf_counter()
                gf_addmul_bytes(self._buffer[packet.offset : end], coeff, data)
                self.decode_seconds += time.perf_counter() - started
                if len(arrived) == num_sources:
                    # Keep the arrived set for the assembly's lifetime:
                    # dropping it would let a duplicate delivered after
                    # the offset completed double-apply its coefficient
                    # and re-trigger the completion below.
                    self._remaining_offsets -= 1
                    # Fully decoded region: hand it to the writer.
                    self._writes.put((packet.offset, end))
                    if (
                        self._on_slice is not None
                        and self.command.num_slices > 0
                    ):
                        self._on_slice(
                            packet.offset // self._granularity,
                            time.perf_counter() - started_at,
                        )
                if self._write_error is not None:
                    break
            self._writes.put(None)
            writer.join()
            if self._write_error is not None:
                raise self._write_error
            complete = True
            return True
        finally:
            if writer.is_alive():
                self._writes.put(None)
                writer.join()
            if not complete:
                self.staged.discard()


class _Relay:
    """One stage of a repair pipeline (Li et al.'s repair pipelining).

    Reads the node's own chunk of the stripe packet by packet, scales
    it by the recovery coefficient, XORs in the upstream stage's
    partial sum (unless this is the first stage), and forwards the
    result to the next hop.
    """

    def __init__(self, command: RelayCommand, store: ChunkStore, agent: "Agent"):
        self.command = command
        self.store = store
        self.agent = agent
        self.packets: "queue.SimpleQueue" = queue.SimpleQueue()
        self._aborted = False

    def abort(self) -> None:
        """Stop at the next packet (see :meth:`_Assembly.abort`)."""
        self._aborted = True
        self.packets.put(_ABORT)

    def run(self) -> None:
        command = self.command
        size = self.store.size(command.stripe_id)
        if size != command.chunk_size:
            raise AgentError(
                f"relay chunk size mismatch: stored {size}, command "
                f"{command.chunk_size}"
            )
        packet_size = slice_granularity(
            size, min(command.packet_size, size), command.num_slices
        )
        offsets = range(0, size, packet_size)
        # Double-buffered chunk reads: a reader thread fills one
        # preallocated buffer while the GF math consumes the other, so
        # (throttled) disk I/O overlaps compute.  Buffers cycle through
        # a free-list, so one is never refilled before the math is done
        # with it.
        bufs = [
            np.empty(packet_size, dtype=np.uint8),
            np.empty(packet_size, dtype=np.uint8),
        ]
        free: "queue.SimpleQueue" = queue.SimpleQueue()
        free.put(0)
        free.put(1)
        ready: "queue.SimpleQueue" = queue.SimpleQueue()

        def read_ahead():
            try:
                with self.store.open_read(command.stripe_id) as chunk:
                    for offset in offsets:
                        length = min(packet_size, size - offset)
                        index = free.get()
                        if index is None:
                            return  # relay finished early (abort/supersede)
                        chunk.read_into(offset, bufs[index][:length])
                        ready.put((index, length))
            except Exception as exc:
                ready.put(exc)

        reader = threading.Thread(
            target=read_ahead,
            name=f"agent-{self.agent.node_id}-relay-read",
            daemon=True,
        )
        reader.start()
        try:
            for offset in offsets:
                item = ready.get()
                if isinstance(item, BaseException):
                    raise item
                if self._aborted:
                    return
                index, length = item
                own = bufs[index][:length]
                # Fresh output per packet: the transport may reference
                # the payload from its send queue after we return, so
                # send buffers are never reused (ownership transfers).
                out = gf_mul_bytes(command.coeff, own)
                free.put(index)  # own is consumed; reader may refill
                if not command.first:
                    upstream = self._next_upstream(offset)
                    if upstream is None:
                        return  # aborted or superseded
                    np.bitwise_xor(
                        out,
                        np.frombuffer(upstream.payload, dtype=np.uint8),
                        out=out,
                    )
                payload = out.data  # zero-copy view; no bytes join
                self.agent._bytes_sent.inc(length, node=self.agent.node_id)
                if command.num_slices > 0:
                    packet = SlicePacket(
                        stripe_id=command.stripe_id,
                        chunk_index=command.chunk_index,
                        source=self.agent.node_id,
                        offset=offset,
                        payload=payload,
                        attempt=command.attempt,
                        epoch=command.epoch,
                        checksum=zlib.crc32(payload),
                        slice_index=offset // packet_size,
                        num_slices=command.num_slices,
                        chain_pos=command.chain_pos,
                    )
                else:
                    packet = DataPacket(
                        stripe_id=command.stripe_id,
                        chunk_index=command.chunk_index,
                        source=self.agent.node_id,
                        offset=offset,
                        payload=payload,
                        attempt=command.attempt,
                        epoch=command.epoch,
                        checksum=zlib.crc32(payload),
                    )
                self.agent.network.send(
                    self.agent.node_id, command.destination, packet
                )
        finally:
            free.put(None)  # unblock the reader if it is still ahead
            reader.join()

    def _next_upstream(self, offset: int) -> Optional[DataPacket]:
        """Next valid upstream packet for ``offset``; None on abort."""
        timeout = self.agent.ack_timeout
        while True:
            try:
                upstream = self.packets.get(timeout=timeout)
            except queue.Empty:
                raise AgentError(
                    f"relay {self.command.key} at node {self.agent.node_id}: "
                    f"no upstream packet for offset {offset} within {timeout}s"
                ) from None
            if self._aborted:
                return None
            if (
                upstream.attempt != self.command.attempt
                or upstream.epoch != self.command.epoch
            ):
                continue
            if (
                upstream.checksum is not None
                and zlib.crc32(upstream.payload) != upstream.checksum
            ):
                continue  # corrupted partial sum; wait for a retry
            if upstream.offset != offset:
                if upstream.offset < offset:
                    # Duplicated delivery of an already-consumed partial
                    # sum (the links may replay frames); drop and keep
                    # waiting for the expected offset.
                    continue
                raise AgentError(
                    f"pipeline packet out of order: got offset "
                    f"{upstream.offset}, expected {offset}"
                )
            return upstream


class Agent:
    """A storage node's repair agent.

    Args:
        node_id: this node.
        store: the node's chunk store.
        network: shared in-process network (already attached).
        coordinator_id: default coordinator endpoint — the heartbeat
            target and the reply address for messages that carry no
            ``reply_to``.  Replies to commands go to the command's own
            ``reply_to`` endpoint.
        ack_timeout: seconds a sender waits for a destination's
            :class:`WriteComplete` before NACKing the coordinator
            (defaults to ``config.ack_timeout``).
        config: runtime timeouts and heartbeat cadence.
        metrics: optional :class:`~repro.obs.MetricsRegistry` shared by
            the run; omitted -> a private throwaway registry.
        tracer: optional :class:`~repro.obs.Tracer`; omitted -> a
            disabled tracer that records nothing.
    """

    def __init__(
        self,
        node_id: NodeId,
        store: ChunkStore,
        network: Network,
        coordinator_id: NodeId,
        ack_timeout: Optional[float] = None,
        config: Optional[RuntimeConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.node_id = node_id
        self.store = store
        # This agent is the store's only writer: anything staged before
        # it existed is an orphan of a process that died mid-assembly.
        store.sweep_staged()
        self.network = network
        self.coordinator_id = coordinator_id
        self.config = config or DEFAULT_CONFIG
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        m = self.metrics
        record_kernel(m)
        self._bytes_sent = m.counter(
            "agent_bytes_sent_total", "repair payload bytes sent, by node"
        )
        self._bytes_received = m.counter(
            "agent_bytes_received_total",
            "repair payload bytes decoded into assemblies, by node",
        )
        self._decode_hist = m.histogram(
            "agent_decode_seconds", "GF-decode CPU time per assembled chunk"
        )
        self._staging_hist = m.histogram(
            "agent_staging_seconds",
            "staged-write (throttled disk) time per assembled chunk",
        )
        self._fence_counter = m.counter(
            "agent_epoch_fences_total",
            "commands NACKed for carrying a fenced (stale) epoch",
        )
        self._promotions_counter = m.counter(
            "agent_promotions_total",
            "staged chunks atomically promoted, by node",
        )
        self.ack_timeout = (
            ack_timeout if ack_timeout is not None else self.config.ack_timeout
        )
        self._endpoint = network.endpoint(node_id)
        self._assemblies: Dict[ActionKey, _Assembly] = {}
        self._relays: Dict[ActionKey, _Relay] = {}
        self._pending: Dict[ActionKey, _PendingPackets] = {}
        #: newest (epoch, attempt) seen per action (commands are authoritative)
        self._attempts: Dict[ActionKey, Generation] = {}
        #: (epoch, attempt) at which an assembly last completed here
        self._completed: Dict[ActionKey, Generation] = {}
        #: highest epoch seen per coordinator endpoint; persisted for
        #: fencing (lazily loaded on first contact with an endpoint)
        self._epochs: Dict[NodeId, int] = {}
        self._epoch_for(coordinator_id)
        self._assembly_lock = threading.Lock()
        self._send_queue: "queue.SimpleQueue" = queue.SimpleQueue()
        #: gateway chunk ops (ChunkRead/ChunkWrite/ChunkDelete) are
        #: served off the dispatcher thread so a throttled client read
        #: never delays repair traffic dispatch
        self._client_queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._write_acks: Dict[tuple, threading.Event] = {}
        self._ack_lock = threading.Lock()
        self._threads = []
        #: per-action decode/relay threads still running
        self._workers = []
        self.errors = []
        self._started = False
        self._stop_event = threading.Event()
        #: set when the dispatcher exits (Shutdown received or crash);
        #: a standalone agent process waits on this before exiting
        self.done = threading.Event()
        self.crashed = False

    # ------------------------------------------------------------------

    def start(self, heartbeat: bool = False) -> None:
        """Start the worker loops (and, optionally, heartbeats)."""
        if self._started:
            return
        self._started = True
        self._stop_event.clear()
        self.done.clear()
        loops = [
            (self._dispatch_loop, "dispatch"),
            (self._send_loop, "send"),
            (self._client_loop, "client"),
        ]
        if heartbeat and self.config.heartbeat_interval > 0:
            loops.append((self._heartbeat_loop, "heartbeat"))
        for target, name in loops:
            thread = threading.Thread(
                target=self._guard(target),
                name=f"agent-{self.node_id}-{name}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Stop the worker loops, stand down whatever assembly or relay
        is still in flight (each discards its staging file), join all."""
        self._stop_event.set()
        self._endpoint.inbox.put(Shutdown())
        self._send_queue.put(None)
        self._client_queue.put(None)
        # Loops first: the dispatcher may still start work from what
        # was queued ahead of the Shutdown.
        for thread in self._threads:
            thread.join(timeout=self.config.join_timeout)
        self._abort_in_flight()
        for thread in self._workers:
            thread.join(timeout=self.config.join_timeout)
        self._threads = []
        self._workers = []
        self._started = False

    def _abort_in_flight(self) -> None:
        with self._assembly_lock:
            for assembly in self._assemblies.values():
                assembly.abort()
            for relay in self._relays.values():
                relay.abort()
            self._assemblies.clear()
            self._relays.clear()
            self._pending.clear()

    def _spawn_worker(self, target, name: str) -> None:
        """Start a per-action thread that :meth:`stop` will join."""
        thread = threading.Thread(target=target, name=name, daemon=True)
        self._workers = [t for t in self._workers if t.is_alive()]
        self._workers.append(thread)
        thread.start()

    def crash(self) -> None:
        """Stand down as if the node's process was killed.

        Aborts every in-flight assembly/relay (discarding staged
        writes), releases blocked waiters, and silences error
        recording — a dead node does not report anything.  The network
        side (black-holing the endpoint) is the fault injector's job.
        """
        self.crashed = True
        self._stop_event.set()
        self._abort_in_flight()
        with self._ack_lock:
            for event in self._write_acks.values():
                event.set()
        self._endpoint.inbox.put(Shutdown())
        self._send_queue.put(None)
        self._client_queue.put(None)

    def _guard(
        self,
        fn,
        key: Optional[ActionKey] = None,
        attempt: int = 0,
        epoch: int = 0,
        reply_to: Optional[NodeId] = None,
    ):
        def runner():
            try:
                fn()
            except Exception as exc:
                if self.crashed:
                    return  # dead nodes don't file reports
                if key is not None:
                    self._nack(
                        key,
                        attempt,
                        f"{type(exc).__name__}: {exc}",
                        epoch,
                        reply_to=reply_to,
                    )
                else:
                    self.errors.append(exc)

        return runner

    def _nack(
        self,
        key: ActionKey,
        attempt: int,
        detail: str,
        epoch: int = 0,
        reply_to: Optional[NodeId] = None,
    ) -> None:
        """Report an action-scoped failure to the issuing coordinator."""
        target = self.coordinator_id if reply_to is None else reply_to
        try:
            self.network.send(
                self.node_id,
                target,
                nack(key, self.node_id, attempt, detail, epoch=epoch),
            )
        except Exception as exc:  # pragma: no cover - coordinator gone
            self.errors.append(exc)

    # -- coordinator epochs (split-brain fencing) ----------------------

    def _epoch_path(self, coordinator: NodeId):
        # The default endpoint keeps the historical file name so stores
        # written by single-coordinator runs stay readable.
        if coordinator == self.coordinator_id:
            return self.store.root / "coordinator.epoch"
        return self.store.root / f"coordinator.{coordinator}.epoch"

    def _epoch_for(self, coordinator: NodeId) -> int:
        """Highest epoch seen from this endpoint (lazy persisted load)."""
        epoch = self._epochs.get(coordinator)
        if epoch is None:
            try:
                epoch = int(self._epoch_path(coordinator).read_text())
            except (FileNotFoundError, ValueError):
                epoch = 0
            self._epochs[coordinator] = epoch
        return epoch

    def _bump_epoch(self, coordinator: NodeId, epoch: int) -> None:
        """Adopt a newer epoch for one endpoint; fence everything older.

        In-flight assemblies and relays started under an older epoch of
        the same coordinator endpoint are aborted (their staged writes
        discarded), buffered stale packets are dropped, and the new
        epoch is persisted atomically so fencing survives an agent
        restart.  Runs under the assembly lock: promotion also takes
        that lock, so after the bump no old-epoch chunk can ever be
        published.
        """
        with self._assembly_lock:
            if epoch <= self._epoch_for(coordinator):
                return
            self._epochs[coordinator] = epoch
            for key, assembly in list(self._assemblies.items()):
                command = assembly.command
                if command.reply_to == coordinator and command.epoch < epoch:
                    assembly.abort()
                    del self._assemblies[key]
            for key, relay in list(self._relays.items()):
                command = relay.command
                if command.reply_to == coordinator and command.epoch < epoch:
                    relay.abort()
                    del self._relays[key]
            # Pending packets predate their command, so their owning
            # endpoint is unknown; dropping stale-looking ones from a
            # foreign shard is safe (the sender's round trip stalls and
            # the action is retried) and rare.
            for key, pending in list(self._pending.items()):
                if not pending.drop_older_than(epoch):
                    del self._pending[key]
            path = self._epoch_path(coordinator)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(str(epoch))
            os.replace(tmp, path)

    def _admit_command(self, command) -> bool:
        """Epoch-fence a mutating command; True if it may execute.

        A command from an older epoch than the highest seen from its
        ``reply_to`` endpoint comes from a fenced (zombie) coordinator:
        it is NACKed and must never mutate the store.  A newer epoch is
        adopted first.
        """
        coordinator = command.reply_to
        current = self._epoch_for(coordinator)
        if command.epoch > current:
            self._bump_epoch(coordinator, command.epoch)
        elif command.epoch < current:
            self._fence_counter.inc(node=self.node_id)
            self._nack(
                command.key,
                command.attempt,
                f"stale epoch {command.epoch} < {current}",
                epoch=command.epoch,
                reply_to=coordinator,
            )
            return False
        return True

    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        try:
            self._dispatch_until_shutdown()
        finally:
            self.done.set()

    def _dispatch_until_shutdown(self) -> None:
        while True:
            message = self._endpoint.inbox.get()
            if isinstance(message, Shutdown):
                return
            try:
                self._dispatch_one(message)
            except Exception as exc:
                if self.crashed:
                    return
                # Surface at the repair level when the failure names an
                # action; record otherwise.  One malformed message must
                # not wedge the whole node either way.
                key = getattr(message, "key", None)
                attempt = getattr(message, "attempt", 0)
                epoch = getattr(message, "epoch", 0)
                reply_to = getattr(message, "reply_to", None)
                if key is not None:
                    self._nack(
                        key,
                        attempt,
                        f"{type(exc).__name__}: {exc}",
                        epoch,
                        reply_to=reply_to,
                    )
                else:
                    self.errors.append(exc)

    def _dispatch_one(self, message) -> None:
        if isinstance(
            message, (ReceiveCommand, SendCommand, RelayCommand)
        ) and not self._admit_command(message):
            return  # fenced: a stale-epoch coordinator mutates nothing
        # Gateway chunk ops first: ChunkWrite subclasses DataPacket, so
        # it must be claimed before the generic packet-routing branch.
        if isinstance(message, (ChunkWrite, ChunkRead, ChunkDelete)):
            self._client_queue.put(message)
            return
        if isinstance(message, ReceiveCommand):
            self._start_assembly(message)
        elif isinstance(message, SendCommand):
            if self._note_attempt(message.key, _generation(message)):
                self._send_queue.put(message)
        elif isinstance(message, RelayCommand):
            self._start_relay(message)
        elif isinstance(message, DataPacket):
            self._route_packet(message)
        elif isinstance(message, WriteComplete):
            self._ack_event(
                (message.key, message.epoch, message.attempt)
            ).set()
        elif isinstance(message, Ping):
            self.network.send(
                self.node_id, message.reply_to, Pong(self.node_id, message.nonce)
            )
        elif isinstance(message, InventoryQuery):
            self._answer_inventory(message)
        else:
            raise AgentError(f"unknown message {message!r}")

    def _answer_inventory(self, query: InventoryQuery) -> None:
        """Report durably stored stripes (and adopt the new epoch).

        The listing runs under the assembly lock — the same lock chunk
        promotion takes — so the reply is an exact snapshot: every
        listed chunk is fully promoted, and (after the epoch bump) no
        fenced old-epoch work can add chunks behind the reply's back.
        """
        coordinator = query.reply_to
        if query.epoch > self._epoch_for(coordinator):
            self._bump_epoch(coordinator, query.epoch)
        with self._assembly_lock:
            stripes = tuple(self.store.stripes())
        self.network.send(
            self.node_id,
            coordinator,
            InventoryReply(
                self.node_id, self._epoch_for(coordinator), query.nonce, stripes
            ),
        )

    def _note_attempt(self, key: ActionKey, generation: Generation) -> bool:
        """Track the newest (epoch, attempt) per action; False if stale.

        Commands arrive in issue order (per-inbox FIFO from the single
        coordinator of each epoch), so a smaller generation than the
        recorded one means a stale duplicate and is dropped.
        """
        with self._assembly_lock:
            current = self._attempts.get(key)
            if current is not None and generation < current:
                return False
            self._attempts[key] = generation
            return True

    def _ack_event(self, key) -> threading.Event:
        with self._ack_lock:
            event = self._write_acks.get(key)
            if event is None:
                event = threading.Event()
                self._write_acks[key] = event
            return event

    def _start_assembly(self, command: ReceiveCommand) -> None:
        if not self._note_attempt(command.key, _generation(command)):
            return
        on_slice = None
        if command.num_slices > 0:

            def on_slice(slice_index: int, elapsed: float) -> None:
                # Best-effort progress stream: a lost report only dims
                # the coordinator's per-slice journal, never the repair.
                try:
                    self.network.send(
                        self.node_id,
                        command.reply_to,
                        SliceReport(
                            stripe_id=command.stripe_id,
                            chunk_index=command.chunk_index,
                            node_id=self.node_id,
                            slice_index=slice_index,
                            num_slices=command.num_slices,
                            attempt=command.attempt,
                            epoch=command.epoch,
                            elapsed=elapsed,
                        ),
                    )
                except Exception:
                    pass

        assembly = _Assembly(command, self.store, on_slice=on_slice)
        assembly.span = self.tracer.start_span(
            "assembly",
            node=self.node_id,
            stripe=command.stripe_id,
            chunk=command.chunk_index,
            epoch=command.epoch,
            attempt=command.attempt,
        )
        with self._assembly_lock:
            existing = self._assemblies.get(command.key)
            if existing is not None:
                if _generation(existing.command) == _generation(command):
                    raise AgentError(f"duplicate assembly {command.key}")
                existing.abort()  # superseded by a retry or a new epoch
            self._completed.pop(command.key, None)
            self._assemblies[command.key] = assembly
            for packet in self._take_pending(command.key):
                assembly.packets.put(packet)
        self._spawn_worker(
            self._guard(
                lambda: self._run_assembly(assembly),
                key=command.key,
                attempt=command.attempt,
                epoch=command.epoch,
                reply_to=command.reply_to,
            ),
            name=f"agent-{self.node_id}-decode-{command.key}",
        )

    def _take_pending(self, key: ActionKey) -> List[DataPacket]:
        """The packets that beat ``key``'s command here (lock held)."""
        pending = self._pending.pop(key, None)
        return pending.packets if pending is not None else []

    def _start_relay(self, command: RelayCommand) -> None:
        if not self._note_attempt(command.key, _generation(command)):
            return
        relay = _Relay(command, self.store, self)
        with self._assembly_lock:
            existing = self._relays.get(command.key)
            if existing is not None:
                if _generation(existing.command) == _generation(command):
                    raise AgentError(f"duplicate relay {command.key}")
                existing.abort()
            self._relays[command.key] = relay
            for packet in self._take_pending(command.key):
                relay.packets.put(packet)
        self._spawn_worker(
            self._guard(
                lambda: self._run_relay(relay),
                key=command.key,
                attempt=command.attempt,
                epoch=command.epoch,
                reply_to=command.reply_to,
            ),
            name=f"agent-{self.node_id}-relay-{command.key}",
        )

    def _run_relay(self, relay: _Relay) -> None:
        try:
            relay.run()
        finally:
            with self._assembly_lock:
                if self._relays.get(relay.command.key) is relay:
                    self._relays.pop(relay.command.key, None)

    def _run_assembly(self, assembly: _Assembly) -> None:
        decoded = assembly.run()
        key = assembly.command.key
        attempt = assembly.command.attempt
        epoch = assembly.command.epoch
        promoted = False
        with self._assembly_lock:
            current = self._assemblies.get(key) is assembly
            if current:
                del self._assemblies[key]
            fenced = epoch < self._epoch_for(assembly.command.reply_to)
            if decoded and current and not fenced:
                # Publish under the lock: an epoch bump (fencing) and
                # a promotion cannot interleave, so a successor
                # coordinator's inventory snapshot is exact.
                promo = self.tracer.start_span(
                    "promotion", parent=assembly.span, node=self.node_id
                )
                assembly.staged.promote()
                promo.finish()
                self._completed[key] = (epoch, attempt)
                self._pending.pop(key, None)
                promoted = True
            elif decoded:
                # Fully decoded, but fenced or superseded meanwhile: a
                # fenced epoch must not publish anything.
                assembly.staged.discard()
        if not promoted:
            if assembly.span is not None:
                assembly.span.finish(promoted=False)
            return  # aborted, superseded or fenced
        self._promotions_counter.inc(node=self.node_id)
        self._bytes_received.inc(assembly.bytes_received, node=self.node_id)
        self._decode_hist.observe(assembly.decode_seconds)
        self._staging_hist.observe(assembly.staging_seconds)
        if assembly.span is not None:
            assembly.span.finish(
                promoted=True,
                decode_seconds=assembly.decode_seconds,
                staging_seconds=assembly.staging_seconds,
                bytes=assembly.bytes_received,
            )
        # Unblock every source's synchronous round trip...
        for source in assembly.command.sources:
            self.network.send(
                self.node_id,
                source,
                WriteComplete(key[0], key[1], attempt, epoch),
            )
        # ...then report completion to the issuing coordinator.
        self.network.send(
            self.node_id,
            assembly.command.reply_to,
            RepairAck(
                key[0], key[1], self.node_id, attempt=attempt, epoch=epoch
            ),
        )

    def _route_packet(self, packet: DataPacket) -> None:
        with self._assembly_lock:
            current = self._attempts.get(packet.key)
            if current is not None and _generation(packet) < current:
                return  # stale traffic from a superseded attempt/epoch
            if self._completed.get(packet.key) == _generation(packet):
                return  # late duplicate after completion
            target = self._assemblies.get(packet.key) or self._relays.get(
                packet.key
            )
            if target is None:
                # The Receive/Relay command may still be in flight on a
                # pipelined path; buffer until it registers.
                pending = self._pending.setdefault(
                    packet.key, _PendingPackets()
                )
                if not pending.add(packet):
                    raise AgentError(
                        f"pending-packet overflow for {packet.key} at node "
                        f"{self.node_id}: {pending.nbytes} bytes buffered, "
                        "no Receive/Relay command arrived"
                    )
                return
        target.packets.put(packet)

    # -- gateway chunk service (DESIGN.md §15) -------------------------

    def _client_loop(self) -> None:
        """Serve gateway chunk ops (reads, writes, deletes) in order.

        One worker per node serializes client disk I/O — the same
        serial-device discipline the repair path's throttled store
        models — while keeping it off the dispatcher thread.
        """
        while True:
            message = self._client_queue.get()
            if message is None:
                return
            if self.crashed or self._stop_event.is_set():
                return
            try:
                self._serve_client(message)
            except Exception as exc:
                if self.crashed:
                    return
                self.errors.append(exc)

    def _client_reply(self, reply_to: NodeId, reply) -> None:
        try:
            self.network.send(self.node_id, reply_to, reply)
        except KeyError:
            pass  # gateway gone; nothing to tell

    def _serve_client(self, message) -> None:
        if isinstance(message, ChunkRead):
            try:
                payload = self.store.read(message.stripe_id, throttled=True)
            except (KeyError, OSError) as exc:
                self._client_reply(
                    message.reply_to,
                    ChunkReadReply(
                        stripe_id=message.stripe_id,
                        chunk_index=message.chunk_index,
                        source=self.node_id,
                        offset=0,
                        payload=b"",
                        nonce=message.nonce,
                        ok=False,
                        detail=f"{type(exc).__name__}: {exc}",
                    ),
                )
                return
            self._client_reply(
                message.reply_to,
                ChunkReadReply(
                    stripe_id=message.stripe_id,
                    chunk_index=message.chunk_index,
                    source=self.node_id,
                    offset=0,
                    payload=payload,
                    checksum=zlib.crc32(payload),
                    nonce=message.nonce,
                ),
            )
            return
        if isinstance(message, ChunkWrite):
            ok, detail = True, ""
            payload = bytes(message.payload)
            if (
                message.checksum is not None
                and zlib.crc32(payload) != message.checksum
            ):
                ok, detail = False, "payload checksum mismatch"
            else:
                try:
                    self.store.put(message.stripe_id, payload, throttled=True)
                except OSError as exc:
                    ok, detail = False, f"{type(exc).__name__}: {exc}"
            self._client_reply(
                message.reply_to,
                ChunkWriteReply(
                    stripe_id=message.stripe_id,
                    chunk_index=message.chunk_index,
                    node_id=self.node_id,
                    nonce=message.nonce,
                    ok=ok,
                    detail=detail,
                ),
            )
            return
        if isinstance(message, ChunkDelete):
            try:
                self.store.delete(message.stripe_id)
                ok, detail = True, ""
            except OSError as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            self._client_reply(
                message.reply_to,
                ChunkWriteReply(
                    stripe_id=message.stripe_id,
                    chunk_index=message.chunk_index,
                    node_id=self.node_id,
                    nonce=message.nonce,
                    ok=ok,
                    detail=detail,
                ),
            )
            return
        raise AgentError(f"unknown client op {message!r}")

    # ------------------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        interval = self.config.heartbeat_interval
        while not self._stop_event.wait(timeout=interval):
            if self.crashed:
                return
            try:
                self.network.send(
                    self.node_id, self.coordinator_id, Heartbeat(self.node_id)
                )
            except KeyError:
                # The coordinator endpoint is detached mid-takeover
                # (recovery re-attaches a successor at the same id);
                # skip the beat rather than dying over the window.
                continue

    # ------------------------------------------------------------------

    def _send_loop(self) -> None:
        while True:
            command: Optional[SendCommand] = self._send_queue.get()
            if command is None:
                return
            if self.crashed:
                return
            key = command.key
            generation = _generation(command)
            with self._assembly_lock:
                if self._attempts.get(key, generation) > generation:
                    continue  # superseded before we even started
                if command.epoch < self._epoch_for(command.reply_to):
                    continue  # fenced while queued
            event = self._ack_event((key, command.epoch, command.attempt))
            try:
                self._stream_chunk(command)
            except Exception as exc:
                if self.crashed:
                    return
                self._nack(
                    key,
                    command.attempt,
                    f"{type(exc).__name__}: {exc}",
                    command.epoch,
                    reply_to=command.reply_to,
                )
                continue
            # Synchronous round trip: wait until the destination has
            # durably written the repaired chunk.  The wait is
            # cancellable: a crash or a newer attempt abandons it.
            self._await_write_complete(command, event)

    def _await_write_complete(
        self, command: SendCommand, event: threading.Event
    ) -> None:
        key = command.key
        generation = _generation(command)
        tick = self.config.poll_interval
        waited = 0.0
        try:
            while not event.wait(timeout=tick):
                waited += tick
                if self.crashed or self._stop_event.is_set():
                    return
                with self._assembly_lock:
                    if self._attempts.get(key, generation) > generation:
                        return  # superseded by a retry; stop waiting
                    if command.epoch < self._epoch_for(command.reply_to):
                        return  # fenced: the new epoch owns this action
                if waited >= self.ack_timeout:
                    self._nack(
                        key,
                        command.attempt,
                        f"no WriteComplete within {self.ack_timeout}s",
                        command.epoch,
                        reply_to=command.reply_to,
                    )
                    return
        finally:
            with self._ack_lock:
                self._write_acks.pop(
                    (key, command.epoch, command.attempt), None
                )

    def _stream_chunk(self, command: SendCommand) -> None:
        """Read the local chunk packet-by-packet and stream it out."""
        size = self.store.size(command.stripe_id)
        packet_size = min(command.packet_size, size)
        offsets = range(0, size, packet_size)
        # The reader runs ahead of the sender so disk and NIC waits
        # overlap, and never blocks on the sender: the read-ahead is
        # bounded by the chunk, and the send worker streams one chunk
        # at a time, so that is one chunk of memory per node.
        ahead: "queue.SimpleQueue" = queue.SimpleQueue()
        abandoned = threading.Event()

        def reader():
            try:
                with self.store.open_read(command.stripe_id) as chunk:
                    for offset in offsets:
                        if abandoned.is_set():
                            return
                        length = min(packet_size, size - offset)
                        ahead.put((offset, chunk.read(offset, length)))
            except Exception as exc:
                ahead.put(exc)

        reader_thread = threading.Thread(
            target=reader, name=f"agent-{self.node_id}-read", daemon=True
        )
        reader_thread.start()
        try:
            for _ in offsets:
                item = ahead.get()
                if isinstance(item, BaseException):
                    raise item
                self._send_packet(command, *item)
        finally:
            abandoned.set()
            reader_thread.join()

    def _send_packet(
        self, command: SendCommand, offset: int, payload: bytes
    ) -> None:
        self._bytes_sent.inc(len(payload), node=self.node_id)
        self.network.send(
            self.node_id,
            command.destination,
            DataPacket(
                stripe_id=command.stripe_id,
                chunk_index=command.chunk_index,
                source=self.node_id,
                offset=offset,
                payload=payload,
                attempt=command.attempt,
                epoch=command.epoch,
                checksum=zlib.crc32(payload),
            ),
        )
