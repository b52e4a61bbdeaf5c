"""Shared-memory transport: the ring backend of the framed core.

:class:`ShmNetwork` moves the same wire frames as
:class:`~repro.net.tcp.TcpNetwork`, but through a
``multiprocessing.shared_memory`` ring buffer instead of a socket —
one inbound MPSC ring per process, written by every peer and drained
by a single reader thread.  Same-host repair layouts (one process per
core) skip the kernel socket path entirely: a send is one memcpy into
the ring, a receive is one memcpy out.  Everything that is not about
rings — the ``Transport`` surface, the send sequence, frame
validation, delivery admission, bandwidth emulation and fault
injection — is inherited from :class:`~repro.net.framed.FramedNetwork`.

A peer is ``node id -> ring name``: :meth:`ShmNetwork.listen` creates
this process's inbound ring and returns its name;
:meth:`ShmNetwork.add_peer` points a node id at the ring of the
process hosting it.  Peers attach lazily with backoff, so processes
may start in any order.

Ring layout (all little-endian)::

    [ head u64 | tail u64 | capacity u64 | frames... ]

``head``/``tail`` are monotonic byte cursors (write/read totals); each
frame is ``[length u32][frame bytes]`` with byte-granular wraparound.
Multiple writer *processes* serialize through an ``fcntl.flock`` on a
sidecar lockfile (plus a thread lock in-process, since flock is
per-open-file); the single reader needs no lock — ``head`` is
published after the frame bytes land, ``tail`` after they are copied
out.  A full ring blocks the sender (backpressure, like a full kernel
socket buffer) and drops the frame after ``connect_timeout`` seconds,
mirroring TCP's give-up-on-unreachable-peer behavior.

Ring framing is length-prefixed, so a frame the core rejects — header
or body — is skipped and the ring stays aligned.  The length prefix
itself lives in memory every peer can write, so the reader bound-checks
it; a prefix that cannot be true resynchronises the ring (``tail =
head``) and counts ``net_frames_rejected_total{reason="ring"}``.
"""

from __future__ import annotations

import os
import struct
import tempfile
import threading
import time
from typing import List, Optional, Set, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

try:
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - stripped-down python
    shared_memory = None
    resource_tracker = None

from ..cluster.chunk import NodeId
from ..runtime.faults import FaultInjector
from .framed import FramedNetwork
from .wire import HEADER

#: ring header: head cursor, tail cursor, capacity (bytes each: u64)
_RING_HEADER = struct.Struct("<QQQ")
_LEN = struct.Struct("<I")

#: ring bytes a data frame needs beyond its payload: the length prefix,
#: the frame header and the JSON envelope (~230 bytes for a data packet)
_FRAME_OVERHEAD = 1024

#: sender poll period while the ring is full (backpressure spin)
_FULL_POLL = 0.0002

#: reader poll period while the ring is empty
_EMPTY_POLL = 0.0005


def shm_available() -> bool:
    """True when this platform supports the shared-memory transport."""
    return shared_memory is not None and fcntl is not None


#: segment names created by *this* process; their tracker entries
#: belong to the creator's ``unlink`` and must not be untracked on a
#: same-process attach (loopback wiring), or the tracker complains
#: about a double unregister
_CREATED_HERE: Set[str] = set()


def _untrack(name: str) -> None:
    """Stop the resource tracker from reaping a segment we only attached.

    Python's ``SharedMemory`` registers every attach with the resource
    tracker (not just creates), so a peer process exiting would unlink
    rings it never owned.  Only the creator may unlink.
    """
    if resource_tracker is None:  # pragma: no cover
        return
    if name in _CREATED_HERE:
        return  # our own ring: the entry belongs to the creator handle
    try:
        resource_tracker.unregister(f"/{name.lstrip('/')}", "shared_memory")
    except Exception:  # pragma: no cover - tracker internals moved
        pass


class ShmRing:
    """One MPSC frame ring in a named shared-memory segment.

    Args:
        name: segment name (``listen`` derives it; peers attach by it).
        capacity: data-region bytes when creating; ignored on attach
            (the segment header is authoritative).
        create: create the segment (reader side) or attach (writers).
    """

    def __init__(self, name: str, capacity: int = 8 << 20, create: bool = False):
        if not shm_available():  # pragma: no cover - non-POSIX platform
            raise RuntimeError("shared-memory transport needs POSIX shm+flock")
        self.name = name
        self.created = create
        if create:
            self.shm = shared_memory.SharedMemory(
                name=name, create=True, size=_RING_HEADER.size + capacity
            )
            _CREATED_HERE.add(name)
            _RING_HEADER.pack_into(self.shm.buf, 0, 0, 0, capacity)
            self.capacity = capacity
        else:
            try:
                self.shm = shared_memory.SharedMemory(name=name)
            except ValueError:
                # Linked but not yet sized ("cannot mmap an empty
                # file"): the same not-there-yet as an unwritten header.
                raise FileNotFoundError(
                    f"ring {name} is still being created"
                ) from None
            _untrack(name)
            _, _, self.capacity = _RING_HEADER.unpack_from(self.shm.buf, 0)
            if not self.capacity:
                # Linked, but its creator has not written the header
                # yet: to a lazily attaching peer that is "not there".
                self.shm.close()
                raise FileNotFoundError(f"ring {name} is still being created")
        self._lockpath = os.path.join(
            tempfile.gettempdir(), f"fpr-shm-{name.lstrip('/')}.lock"
        )
        self._lockfd = os.open(self._lockpath, os.O_CREAT | os.O_RDWR, 0o600)
        self._lock = threading.Lock()
        #: reader side: untrustworthy length prefixes skipped so far
        self.resyncs = 0

    # -- cursors -------------------------------------------------------

    def _head(self) -> int:
        return struct.unpack_from("<Q", self.shm.buf, 0)[0]

    def _tail(self) -> int:
        return struct.unpack_from("<Q", self.shm.buf, 8)[0]

    def _set_head(self, value: int) -> None:
        struct.pack_into("<Q", self.shm.buf, 0, value)

    def _set_tail(self, value: int) -> None:
        struct.pack_into("<Q", self.shm.buf, 8, value)

    # -- byte copies with wraparound -----------------------------------

    def _put(self, cursor: int, data) -> int:
        view = memoryview(data)
        nbytes = len(view)
        base = _RING_HEADER.size
        pos = cursor % self.capacity
        first = min(nbytes, self.capacity - pos)
        self.shm.buf[base + pos : base + pos + first] = view[:first]
        if first < nbytes:
            self.shm.buf[base : base + nbytes - first] = view[first:]
        return cursor + nbytes

    def _get(self, cursor: int, nbytes: int) -> bytes:
        base = _RING_HEADER.size
        pos = cursor % self.capacity
        first = min(nbytes, self.capacity - pos)
        if first == nbytes:
            return bytes(self.shm.buf[base + pos : base + pos + nbytes])
        return bytes(self.shm.buf[base + pos : base + pos + first]) + bytes(
            self.shm.buf[base : base + nbytes - first]
        )

    # -- frame API -----------------------------------------------------

    def write(self, parts, timeout: float) -> bool:
        """Append one frame (an iovec of buffers); False on timeout.

        Blocks while the ring lacks space (receiver backpressure).
        Raises ``ValueError`` for a frame that can never fit.
        """
        total = sum(len(p) for p in parts)
        needed = _LEN.size + total
        if needed > self.capacity:
            raise ValueError(
                f"frame of {total} bytes exceeds ring capacity "
                f"{self.capacity}; raise ring_capacity"
            )
        deadline = time.monotonic() + timeout
        with self._lock:
            fcntl.flock(self._lockfd, fcntl.LOCK_EX)
            try:
                while self.capacity - (self._head() - self._tail()) < needed:
                    if time.monotonic() >= deadline:
                        return False
                    time.sleep(_FULL_POLL)
                cursor = self._put(self._head(), _LEN.pack(total))
                for part in parts:
                    cursor = self._put(cursor, part)
                # Publish after the bytes land: the reader never sees a
                # torn frame.
                self._set_head(cursor)
                return True
            finally:
                fcntl.flock(self._lockfd, fcntl.LOCK_UN)

    def read_frames(self, max_frames: int = 64) -> List[bytes]:
        """Pop up to ``max_frames`` complete frames (single consumer).

        ``tail`` is republished after each frame so blocked writers see
        space as soon as it exists.  The length prefix sits in memory
        every peer can write, so it is bound-checked: one that exceeds
        the ring or runs past ``head`` cannot be true, and following it
        would push ``tail`` beyond ``head`` for good.  The reader then
        skips to ``head`` (dropping whatever was in between) and bumps
        :attr:`resyncs` for the owner to count.
        """
        frames: List[bytes] = []
        tail = self._tail()
        while len(frames) < max_frames:
            head = self._head()
            if tail >= head:
                break
            (length,) = _LEN.unpack(self._get(tail, _LEN.size))
            end = tail + _LEN.size + length
            if length > self.capacity or end > head:
                self._set_tail(head)
                self.resyncs += 1
                break
            frames.append(self._get(tail + _LEN.size, length))
            tail = end
            self._set_tail(tail)
        return frames

    def close(self) -> None:
        try:
            os.close(self._lockfd)
        except OSError:  # pragma: no cover
            pass
        try:
            self.shm.close()
        except (OSError, BufferError):  # pragma: no cover
            pass
        if self.created:
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            _CREATED_HERE.discard(self.name)
            try:
                os.unlink(self._lockpath)
            except OSError:  # pragma: no cover
                pass


class _ShmPeer:
    """One remote node: the name of its host process's inbound ring."""

    def __init__(self, node_id: NodeId, ring_name: str):
        self.node_id = node_id
        self.address = ring_name
        self.ring: Optional[ShmRing] = None
        self.lock = threading.Lock()


class ShmNetwork(FramedNetwork):
    """Shared-memory transport with the in-memory ``Network`` interface.

    Args:
        faults: optional fault injector, consulted on every send (and,
            for crash black-holing, on every delivery).
        metrics: optional :class:`~repro.obs.MetricsRegistry`; emits the
            shared ``net_*`` family.
        inbox_capacity: bound on local endpoints' inboxes (0 =
            unbounded); a full inbox stalls the reader thread, which
            fills the ring and blocks senders.
        ring_capacity: data bytes of this process's inbound ring.
        connect_timeout: seconds a send retries attaching a peer's ring
            (the peer process may not have created it yet) and waits
            out a full ring before the frame is dropped
            (``net_frames_dropped_total``).
    """

    def __init__(
        self,
        faults: Optional[FaultInjector] = None,
        metrics=None,
        inbox_capacity: int = 0,
        ring_capacity: int = 8 << 20,
        connect_timeout: float = 30.0,
    ):
        super().__init__(
            faults=faults, metrics=metrics, inbox_capacity=inbox_capacity
        )
        self.ring_capacity = ring_capacity
        self.connect_timeout = connect_timeout
        self._ring: Optional[ShmRing] = None
        self._reader: Optional[threading.Thread] = None

    @property
    def max_packet(self) -> int:
        """Largest data payload whose frame fits a ring of this
        network's capacity (every process of a run is built with the
        same one); the repair driver sizes packets under it."""
        return max(self.ring_capacity - _FRAME_OVERHEAD, 0)

    # -- peer wiring ---------------------------------------------------

    def listen(self, name: Optional[str] = None) -> str:
        """Create this process's inbound ring; returns its name.

        The returned name is what remote processes pass to
        :meth:`add_peer` for every node hosted here.
        """
        if self._ring is not None:
            raise RuntimeError("already listening")
        if self._closed:
            raise RuntimeError("ShmNetwork is closed")
        if name is None:
            name = f"fpr-{os.getpid()}-{id(self) & 0xFFFFFF:06x}"
        self._ring = ShmRing(name, capacity=self.ring_capacity, create=True)
        self._reader = threading.Thread(
            target=self._reader_loop, name="shm-network-reader", daemon=True
        )
        self._reader.start()
        return name

    def add_peer(self, node_id: NodeId, ring_name: str) -> None:
        """Register a remote node reachable via ``ring_name``.

        Attachment is lazy: the ring is opened on the first frame and
        retried with backoff, so peers may be registered before the
        remote process has created its ring.
        """
        if node_id in self._peers:
            raise ValueError(f"peer {node_id} already registered")
        self._register_peer(_ShmPeer(node_id, ring_name))

    def _forget_peer(self, peer: _ShmPeer) -> None:
        if peer.ring is not None:
            peer.ring.close()

    def refresh_peer(self, node_id: NodeId) -> None:
        """Drop a cached ring attachment; the next send re-opens by name.

        Transient peer processes (one-shot gateway clients) unlink and
        re-create their inbound ring on every run.  A mapping cached
        from the previous incarnation still accepts writes — into dead
        memory — so frames vanish without an error.  Unknown peers are
        ignored.
        """
        peer = self._peers.get(node_id)
        if peer is None:
            return
        with peer.lock:
            if peer.ring is not None:
                peer.ring.close()
                peer.ring = None

    def _enqueue(self, peer: _ShmPeer, parts: Tuple[bytes, bytes]) -> bool:
        """Write one frame into a peer's ring; blocks while it is full."""
        ring = self._peer_ring(peer)
        if ring is None:
            return False
        try:
            return ring.write(parts, timeout=self.connect_timeout)
        except OSError:
            return False  # ring torn down underneath us

    def _peer_ring(self, peer: _ShmPeer) -> Optional[ShmRing]:
        """Attach a peer's ring lazily, with backoff (like a TCP dial)."""
        ring = peer.ring
        if ring is not None:
            return ring
        with peer.lock:
            if peer.ring is not None:
                return peer.ring
            deadline = time.monotonic() + self.connect_timeout
            delay = 0.005
            while True:
                try:
                    peer.ring = ShmRing(peer.address)
                    self.net.connections.inc(direction="out")
                    return peer.ring
                except FileNotFoundError:
                    if self._closed or time.monotonic() + delay >= deadline:
                        return None
                    time.sleep(delay)
                    delay = min(delay * 2, 0.2)

    # -- receive -------------------------------------------------------

    def _reader_loop(self) -> None:
        ring = self._ring
        while not self._stop.is_set():
            frames = ring.read_frames()
            if ring.resyncs:
                self.net.frames_rejected.inc(ring.resyncs, reason="ring")
                ring.resyncs = 0
            if not frames:
                self._stop.wait(_EMPTY_POLL)
                continue
            for frame in frames:
                self._handle_frame(frame)

    def _handle_frame(self, frame: bytes) -> None:
        # A frame the core rejects, header or body, is skipped either
        # way: the ring's own length prefix keeps it aligned.
        body = memoryview(frame)[HEADER.size :]
        self._receive(frame[: HEADER.size], lambda _nbytes: body)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Tear the ring layer down (idempotent).

        Local endpoints stay attached: a closed ShmNetwork degrades to
        the in-memory fabric, like a closed TcpNetwork.
        """
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._reader is not None:
            self._reader.join(timeout=10)
            self._reader = None
        for peer in self._peers.values():
            if peer.ring is not None:
                peer.ring.close()
                peer.ring = None
        if self._ring is not None:
            self._ring.close()
            self._ring = None
