"""The per-node repair agent (Section V).

Each storage node runs an :class:`Agent` with:

* a *dispatcher* thread draining the node's inbox,
* a *send worker* that runs the node's star and migration streams one
  chunk at a time, each as a synchronous round trip (the next chunk
  starts only after the destination confirms the previous one is
  written, matching the sequential read->transmit->write decomposition
  of Eq. (4)),
* one *stream worker per chain stage*: a stage blocks on its upstream's
  partial sums, so it cannot queue on the send worker — two chains
  crossing a node in opposite order would deadlock there,
* one short-lived *reader* thread per stream of two or more packets,
  reading packets 1..n-1 ahead of the stream by up to the chunk while
  the stream sends the ones before (the paper's multi-threaded
  pipeline, Experiment B.1); the stream reads packet 0 itself, so a
  one-packet stream starts no reader,
* a *client worker* serving gateway chunk reads, writes and deletes off
  the dispatcher thread,
* one *decode thread per chunk being assembled*, which applies the
  GF(2^8) recovery coefficient to each arriving packet (the paper's
  "one thread for decoding the received packets"), plus, once a region
  completes before the last one, its *staging-writer* thread, which
  writes each fully decoded region to the assembly's staging file while
  the next packet is decoded; the region that finishes a chunk with no
  writer running (a one-packet chunk) is written by the decode thread,
  since promotion waits for that write anyway,
* an optional *heartbeat* thread beaconing liveness to the coordinator.

The hand-offs between those threads are ``queue.SimpleQueue``s, and a
stream opens its chunk file once (:meth:`ChunkStore.open_read`,
:meth:`ChunkStore.open_staged`): what a packet costs is its CRC, its
GF math, one ``pread``/``pwrite`` and the limiters, not a file open or
a blocking queue (DESIGN.md §13 has the per-packet table).

Migration and reconstruction share one code path on both ends: a
migration is an assembly with a single source whose coefficient is 1,
and every helper runs one stream body (:class:`_Stream`) — a star or
migration sender is a repair-pipelining stage of a chain of length one.

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
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..cluster.chunk import NodeId
from ..ec.galois import crc32, gf_addmul_bytes, gf_mul_bytes, record_kernel
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
    RepairAck,
    SendCommand,
    Shutdown,
    WriteComplete,
    nack,
)
from .transport import Network


#: ordering handle for staleness: a bigger (epoch, attempt) supersedes
Generation = Tuple[int, int]


def _generation(message) -> Generation:
    return (message.epoch, message.attempt)

#: cap on the bytes buffered for one action awaiting a late
#: Receive/Send registration, in chunks: every source of a wide stripe
#: may have sent its whole chunk (and a faulty link duplicated it)
#: before the command lands, but nothing legitimate sends more
MAX_PENDING_CHUNKS = 64

#: sentinel that aborts a blocked assembly/stream worker
_ABORT = object()


class AgentError(RuntimeError):
    """Raised (and recorded) on protocol violations inside an agent."""


class _ActionWorker:
    """What the agent's per-action registry holds for one command.

    Packets for the action are routed to :attr:`packets`; :meth:`abort`
    takes effect at the worker's next packet, ahead of whatever backlog
    is queued (the sentinel only wakes a worker blocked on an empty
    queue).
    """

    def __init__(self, command):
        self.command = command
        self.packets: "queue.SimpleQueue" = queue.SimpleQueue()
        self.aborted = False

    def abort(self) -> None:
        self.aborted = True
        self.packets.put(_ABORT)


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


class _Assembly(_ActionWorker):
    """Accumulates coefficient-scaled packets into a repaired chunk.

    Each packet offset is decoded in memory; once every source has
    contributed to an offset, that packet is written to the staging
    file — so receive, decode and write pipeline across packets,
    matching the prototype's multi-threaded repair path (Section V).
    The writes run on a staging-writer thread started by the first
    region that completes before the last; a chunk of one region has
    nothing to overlap and is written on the decode thread.
    The staged chunk is promoted by :meth:`Agent._run_assembly` (under
    the agent's assembly lock, so promotion serializes with epoch
    fencing) only when complete — a crashed or superseded assembly
    never publishes a torn chunk.
    """

    def __init__(self, command: ReceiveCommand, store: ChunkStore):
        super().__init__(command)
        self.store = store
        #: this assembly's own staging file, opened by :meth:`run`; the
        #: agent promotes or discards it once the chunk is decoded
        self.staged: Optional[ChunkWriter] = None
        self._buffer = np.zeros(command.chunk_size, dtype=np.uint8)
        #: offset -> set of sources that already contributed (dedupes
        #: duplicated packets, which would otherwise double-apply coeffs)
        self._arrived: Dict[int, Set[NodeId]] = {}
        self._remaining_offsets = self._count_offsets()
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
        size, packet = self.command.chunk_size, self.command.packet_size
        return (size + packet - 1) // packet

    def _stage(self, offset: int, end: int) -> None:
        """Write one fully decoded region to the .part file.

        The region is final — every source has contributed and
        duplicates are dropped by the arrived-set — so the decode
        thread never touches those buffer bytes again and the write
        can proceed without copying them out (no ``tobytes``).
        """
        started = time.perf_counter()
        self.staged.write(offset, self._buffer[offset:end])
        self.staging_seconds += time.perf_counter() - started

    def _staging_writer(self) -> None:
        """Writer-thread body: stage queued regions until ``None``."""
        while True:
            item = self._writes.get()
            if item is None:
                return
            try:
                self._stage(*item)
            except BaseException as exc:  # surfaced by run() after join
                self._write_error = exc
                return

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
        # started by the first region that completes before the last
        writer: Optional[threading.Thread] = None
        complete = False
        try:
            while self._remaining_offsets > 0:
                packet = self.packets.get()
                if self.aborted:
                    return False
                if (
                    packet.attempt != self.command.attempt
                    or packet.epoch != self.command.epoch
                ):
                    continue  # stale retry traffic (or a fenced epoch's)
                if (
                    packet.checksum is not None
                    and crc32(packet.payload) != packet.checksum
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
                    if writer is None and self._remaining_offsets == 0:
                        # Promotion waits for this write anyway: a
                        # writer thread would have nothing to overlap.
                        self._stage(packet.offset, end)
                    else:
                        if writer is None:
                            writer = threading.Thread(
                                target=self._staging_writer,
                                name=f"agent-staging-{self.command.key}",
                                daemon=True,
                            )
                            writer.start()
                        self._writes.put((packet.offset, end))
                if self._write_error is not None:
                    break
            if writer is not None:
                self._writes.put(None)
                writer.join()
            if self._write_error is not None:
                raise self._write_error
            complete = True
            return True
        finally:
            if writer is not None and writer.is_alive():
                self._writes.put(None)
                writer.join()
            if not complete:
                self.staged.discard()


class _Stream(_ActionWorker):
    """One helper's stream of one action (Section V's send path).

    Reads the node's own chunk of the stripe packet by packet, scales
    each packet by the command's ``coeff`` (unless it is 1), XORs in
    the upstream stage's partial sum for the same offset (unless there
    is no upstream), and sends the result to the next hop — one stage
    of Li et al.'s repair pipelining.  A star or migration sender is
    the chain of length one: coefficient 1 (the destination applies the
    recovery coefficient), no upstream, the destination as next hop.
    The stream reads packet 0 itself; a reader thread reads the rest
    ahead of it, so a one-packet stream runs on its own thread alone.
    """

    def __init__(self, command: SendCommand, store: ChunkStore, agent: "Agent"):
        super().__init__(command)
        self.store = store
        self.agent = agent

    def run(self) -> None:
        command, agent = self.command, self.agent
        size = self.store.size(command.stripe_id)
        if size != command.chunk_size:
            raise AgentError(
                f"chunk size mismatch: stored {size}, command "
                f"{command.chunk_size}"
            )
        packet_size = min(command.packet_size, size)
        offsets = range(0, size, packet_size)
        chunk = self.store.open_read(command.stripe_id)

        def read(offset: int) -> np.ndarray:
            # A fresh buffer per packet: send() hands it over to the
            # transport (DESIGN.md §13), so none is ever refilled.
            buf = np.empty(min(packet_size, size - offset), dtype=np.uint8)
            chunk.read_into(offset, buf)
            return buf

        ahead: "queue.SimpleQueue" = queue.SimpleQueue()
        finished = threading.Event()

        def read_ahead():
            try:
                for offset in offsets[1:]:
                    if finished.is_set():
                        return
                    ahead.put(read(offset))
            except Exception as exc:
                ahead.put(exc)

        reader = None
        try:
            # Nothing can be sent before packet 0 is read, so the stream
            # reads it itself; a reader thread runs ahead (so throttled
            # disk waits overlap the GF math and the NIC) only when
            # there is a packet 1 for it to read while packet 0 is sent.
            ahead.put(read(0))
            if len(offsets) > 1:
                reader = threading.Thread(
                    target=read_ahead,
                    name=f"agent-{agent.node_id}-read",
                    daemon=True,
                )
                reader.start()
            for offset in offsets:
                buf = ahead.get()
                if isinstance(buf, BaseException):
                    raise buf
                if self.aborted:
                    return
                if command.coeff != 1:
                    gf_mul_bytes(command.coeff, buf, out=buf)
                if command.upstream != -1:
                    upstream = self._next_upstream(offset)
                    if upstream is None:
                        return  # aborted or superseded
                    np.bitwise_xor(
                        buf,
                        np.frombuffer(upstream.payload, dtype=np.uint8),
                        out=buf,
                    )
                payload = buf.data  # zero-copy view; no bytes join
                agent._bytes_sent.inc(len(buf), node=agent.node_id)
                agent.network.send(
                    agent.node_id,
                    command.destination,
                    DataPacket(
                        stripe_id=command.stripe_id,
                        chunk_index=command.chunk_index,
                        source=agent.node_id,
                        offset=offset,
                        payload=payload,
                        attempt=command.attempt,
                        epoch=command.epoch,
                        checksum=crc32(payload),
                    ),
                )
        finally:
            if reader is not None:
                finished.set()  # stop the reader if it is still ahead
                reader.join()
            chunk.close()

    def _next_upstream(self, offset: int) -> Optional[DataPacket]:
        """Next valid upstream packet for ``offset``; None on abort."""
        timeout = self.agent.ack_timeout
        while True:
            try:
                upstream = self.packets.get(timeout=timeout)
            except queue.Empty:
                raise AgentError(
                    f"stream {self.command.key} at node {self.agent.node_id}: "
                    f"no upstream packet for offset {offset} within {timeout}s"
                ) from None
            if self.aborted:
                return None
            if (
                upstream.attempt != self.command.attempt
                or upstream.epoch != self.command.epoch
            ):
                continue
            if (
                upstream.checksum is not None
                and crc32(upstream.payload) != upstream.checksum
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
        #: the one per-action registry: each action's assembly (at its
        #: destination) or stream (at a helper), queued ones included
        self._inflight: Dict[ActionKey, _ActionWorker] = {}
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
        #: star and migration stream runs, one at a time (Eq. 4)
        self._send_queue: "queue.SimpleQueue" = queue.SimpleQueue()
        #: gateway chunk ops (ChunkRead/ChunkWrite/ChunkDelete) are
        #: served off the dispatcher thread so a throttled client read
        #: never delays repair traffic dispatch
        self._client_queue: "queue.SimpleQueue" = queue.SimpleQueue()
        #: (key, epoch, attempt) -> the event a star/migration stream
        #: waits on for its destination's WriteComplete
        self._write_acks: Dict[tuple, threading.Event] = {}
        self._ack_lock = threading.Lock()
        self._threads = []
        #: per-action decode/stream threads still running
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
        """Stop the worker loops, stand down whatever assembly or stream
        is still in flight (an assembly discards its staging file), join
        all."""
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
            for worker in self._inflight.values():
                worker.abort()
            self._inflight.clear()
            self._pending.clear()

    def _spawn_worker(self, target, name: str) -> None:
        """Start a per-action thread that :meth:`stop` will join."""
        thread = threading.Thread(target=target, name=name, daemon=True)
        self._workers = [t for t in self._workers if t.is_alive()]
        self._workers.append(thread)
        thread.start()

    def crash(self) -> None:
        """Stand down as if the node's process was killed.

        Aborts every in-flight assembly/stream (discarding staged
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

    def _guard(self, fn, command=None):
        """``fn`` with its failures NACKed as ``command``'s (recorded in
        :attr:`errors` when there is no command)."""

        def runner():
            try:
                fn()
            except Exception as exc:
                if self.crashed:
                    return  # dead nodes don't file reports
                if command is not None:
                    self._nack(
                        command.key,
                        command.attempt,
                        f"{type(exc).__name__}: {exc}",
                        command.epoch,
                        reply_to=command.reply_to,
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

        In-flight assemblies and streams started under an older epoch
        of the same coordinator endpoint are aborted (staged writes
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
            for key, worker in list(self._inflight.items()):
                command = worker.command
                if command.reply_to == coordinator and command.epoch < epoch:
                    worker.abort()
                    del self._inflight[key]
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
            # Not held while blocked on the inbox: a payload may be a
            # view of its sender's buffer (a PUT's object or parity).
            del message

    def _dispatch_one(self, message) -> None:
        if isinstance(message, (ReceiveCommand, SendCommand)):
            if not self._admit_command(message):
                return  # fenced: a stale-epoch coordinator mutates nothing
            if message.packet_size < 1 or message.chunk_size < 1:
                # Off the wire: an assembly would count no offsets and
                # promote its all-zero buffer, a stream would send nothing.
                raise AgentError(
                    f"non-positive size for {message.key}: packet "
                    f"{message.packet_size}, chunk {message.chunk_size}"
                )
        # Gateway chunk ops first: ChunkWrite subclasses DataPacket, so
        # it must be claimed before the generic packet-routing branch.
        if isinstance(message, (ChunkWrite, ChunkRead, ChunkDelete)):
            self._client_queue.put(message)
            return
        if isinstance(message, ReceiveCommand):
            self._start_assembly(message)
        elif isinstance(message, SendCommand):
            self._start_stream(message)
        elif isinstance(message, DataPacket):
            self._route_packet(message)
        elif isinstance(message, WriteComplete):
            # The chunk is durable downstream, so this node's part of the
            # action ends here, not when its worker thread next runs: a
            # command issued after the destination's RepairAck (a later
            # run of the same key and generation) is not a duplicate.
            with self._assembly_lock:
                worker = self._inflight.get(message.key)
                if worker is not None and (
                    _generation(worker.command) == _generation(message)
                ):
                    del self._inflight[message.key]
            with self._ack_lock:
                written = self._write_acks.get(
                    (message.key, message.epoch, message.attempt)
                )
            # Only a star/migration stream waits for one; a chain's last
            # stage is thanked too and has nothing to wake.
            if written is not None:
                written.set()
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

    def _register(self, worker: _ActionWorker) -> None:
        """Make ``worker`` its action's one in-flight worker here.

        A worker of an older attempt or epoch is aborted (superseded);
        the packets that beat the command are handed over.
        """
        key = worker.command.key
        with self._assembly_lock:
            existing = self._inflight.get(key)
            if existing is not None:
                if _generation(existing.command) == _generation(worker.command):
                    raise AgentError(f"duplicate command for {key}")
                existing.abort()
            self._completed.pop(key, None)
            self._inflight[key] = worker
            for packet in self._take_pending(key):
                worker.packets.put(packet)

    def _start_assembly(self, command: ReceiveCommand) -> None:
        if not self._note_attempt(command.key, _generation(command)):
            return
        assembly = _Assembly(command, self.store)
        assembly.span = self.tracer.start_span(
            "assembly",
            node=self.node_id,
            stripe=command.stripe_id,
            chunk=command.chunk_index,
            epoch=command.epoch,
            attempt=command.attempt,
        )
        self._register(assembly)
        self._spawn_worker(
            self._guard(lambda: self._run_assembly(assembly), command),
            name=f"agent-{self.node_id}-decode-{command.key}",
        )

    def _take_pending(self, key: ActionKey) -> List[DataPacket]:
        """The packets that beat ``key``'s command here (lock held)."""
        pending = self._pending.pop(key, None)
        return pending.packets if pending is not None else []

    def _start_stream(self, command: SendCommand) -> None:
        """Register a helper stream and schedule it.

        One scheduling rule: a star or migration stream (``chain_pos ==
        -1``) queues on the node's send worker, one synchronous round
        trip at a time (Eq. 4); a chain stage (``chain_pos >= 0``) gets
        a worker of its own, because it blocks on its upstream — two
        chains crossing this node in opposite order would deadlock on a
        shared worker.
        """
        if not self._note_attempt(command.key, _generation(command)):
            return
        stream = _Stream(command, self.store, self)
        self._register(stream)
        run = self._guard(lambda: self._run_stream(stream), command)
        if command.chain_pos < 0:
            self._send_queue.put(run)
        else:
            self._spawn_worker(
                run, name=f"agent-{self.node_id}-stream-{command.key}"
            )

    def _run_stream(self, stream: _Stream) -> None:
        """Run one stream; a star or migration stream then waits for its
        destination's WriteComplete."""
        if stream.aborted:
            return  # superseded or fenced while queued
        command = stream.command
        round_trip = command.chain_pos < 0
        ack_key = (command.key, command.epoch, command.attempt)
        if round_trip:
            # Registered before the first packet, so the WriteComplete
            # those packets earn always finds it.
            written = threading.Event()
            with self._ack_lock:
                self._write_acks[ack_key] = written
        try:
            stream.run()
            if round_trip and not stream.aborted:
                self._await_write_complete(stream, written)
        finally:
            with self._assembly_lock:
                if self._inflight.get(command.key) is stream:
                    del self._inflight[command.key]
            if round_trip:
                with self._ack_lock:
                    self._write_acks.pop(ack_key, None)

    def _run_assembly(self, assembly: _Assembly) -> None:
        decoded = assembly.run()
        key = assembly.command.key
        attempt = assembly.command.attempt
        epoch = assembly.command.epoch
        promoted = False
        with self._assembly_lock:
            current = self._inflight.get(key) is assembly
            if current:
                del self._inflight[key]
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
            target = self._inflight.get(packet.key)
            if target is None:
                # The Receive/Send command may still be in flight on a
                # pipelined path; buffer until it registers.
                pending = self._pending.setdefault(
                    packet.key, _PendingPackets()
                )
                if not pending.add(packet):
                    raise AgentError(
                        f"pending-packet overflow for {packet.key} at node "
                        f"{self.node_id}: {pending.nbytes} bytes buffered, "
                        "no Receive/Send command arrived"
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
            del message  # as in the dispatcher: hold no payload idle

    def _client_reply(self, reply_to: NodeId, reply) -> None:
        try:
            self.network.send(self.node_id, reply_to, reply)
        except KeyError:
            pass  # gateway gone; nothing to tell

    def _serve_client(self, message) -> None:
        if isinstance(message, ChunkRead):
            try:
                # a mapped view: the reply carries the page cache's
                # bytes, not a chunk-sized copy on this thread's heap
                payload = self.store.read_mapped(
                    message.stripe_id, throttled=True
                )
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
                    checksum=None,
                    nonce=message.nonce,
                ),
            )
            return
        if isinstance(message, ChunkWrite):
            ok, detail = True, ""
            # persisted as received: the payload is the sender's buffer
            # (memory) or the frame's (tcp/shm), checked and written
            # without a copy
            payload = message.payload
            if (
                message.checksum is not None
                and crc32(payload) != message.checksum
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
        """The send worker: star and migration streams, one at a time."""
        while True:
            run = self._send_queue.get()
            if run is None or self.crashed:
                return
            run()

    def _await_write_complete(
        self, stream: _Stream, written: threading.Event
    ) -> None:
        """Synchronous round trip: wait until the destination has durably
        written the repaired chunk.  The wait is cancellable: a crash, a
        stop or an abort (a newer attempt or epoch) abandons it."""
        tick = self.config.poll_interval
        waited = 0.0
        while not written.wait(timeout=tick):
            waited += tick
            if self.crashed or self._stop_event.is_set() or stream.aborted:
                return
            if waited >= self.ack_timeout:
                raise AgentError(f"no WriteComplete within {self.ack_timeout}s")
