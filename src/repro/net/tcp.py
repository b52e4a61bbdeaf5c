"""Blocking-socket TCP transport: the socket backend of the framed core.

:class:`TcpNetwork` moves the same runtime messages as the in-memory
:class:`~repro.runtime.transport.Network`, but across real sockets
between OS processes.  Everything that is not about sockets — the
``Transport`` surface, the send sequence, frame validation, delivery
admission, bandwidth emulation and fault injection — is inherited from
:class:`~repro.net.framed.FramedNetwork`; this module holds only the
per-peer writers, the acceptor and the per-connection readers.

A peer is ``node id -> host:port``.  Concurrency: agent worker threads
call ``send`` synchronously and never touch a socket.  Per peer there
is one bounded frame queue and one writer thread (started by the
peer's first frame) that owns the lazy dial, reconnect/backoff and the
scatter-gather write — a full queue blocks the *sending thread*
(backpressure), mirroring a full kernel socket buffer, and a send to a
peer that is not listening yet returns at once.  Per inbound
connection one reader thread receives each frame straight into the
buffer the message will reference; the syscalls and the CRC release
the GIL, so the streams of a round overlap.  A header the core rejects
drops the connection (a byte stream whose framing lied cannot be
resynced), a rejected body is skipped and the connection lives on.
"""

from __future__ import annotations

import logging
import queue
import random
import socket
import threading
import time
from typing import List, Optional, Set, Tuple

from ..cluster.chunk import NodeId
from ..runtime.faults import FaultInjector
from .framed import FramedNetwork
from .wire import HEADER

_LOG = logging.getLogger(__name__)

#: queue token that wakes an idle writer so it notices ``peer.closing``
_WAKE = object()

#: first reconnect backoff (seconds); doubles up to _BACKOFF_CAP
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0


def reconnect_delay(backoff: float, rng: random.Random) -> float:
    """Equal-jitter sleep for one reconnect attempt.

    Correlated failures make every surviving peer retry the same dead
    endpoint on the same schedule; a pure exponential backoff then
    re-synchronizes them into connection storms at each doubling.
    Equal jitter keeps the exponential envelope but spreads attempts
    uniformly over ``[backoff/2, backoff]``, decorrelating the herd
    while never sleeping more than the deterministic schedule did.
    """
    if backoff <= 0:
        return 0.0
    half = backoff / 2
    return half + rng.uniform(0, half)


def _send_parts(sock: socket.socket, parts) -> None:
    """Scatter-gather write of one frame's buffers, as the sender made
    them (no join copy); a blocking ``sendmsg`` may still write short."""
    views = [memoryview(part) for part in parts if len(part)]
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views.pop(0))
        if sent:
            views[0] = views[0][sent:]


def _recv_exact(sock: socket.socket, view: memoryview) -> int:
    """Fill ``view`` from the socket; short only if the stream ended."""
    got = 0
    while got < len(view):
        count = sock.recv_into(view[got:], 0, socket.MSG_WAITALL)
        if not count:
            break
        got += count
    return got


class _Peer:
    """One remote node: its address, bounded frame queue and writer."""

    def __init__(self, node_id: NodeId, host: str, port: int, capacity: int):
        self.node_id = node_id
        self.address = (host, port)
        self.queue: queue.Queue = queue.Queue(capacity)
        #: set on detach/close: the writer exits once the queue is empty
        self.closing = False
        self.thread: Optional[threading.Thread] = None
        #: touched by the writer thread only
        self.sock: Optional[socket.socket] = None


class TcpNetwork(FramedNetwork):
    """Socket-backed transport with the in-memory ``Network`` interface.

    Args:
        faults: optional fault injector, consulted on every send (and,
            for crash black-holing, on every delivery).
        metrics: optional :class:`~repro.obs.MetricsRegistry`; both the
            inner in-memory fabric and the socket path emit the shared
            ``net_*`` family into it.
        inbox_capacity: bound on local endpoints' inboxes (0 =
            unbounded); a full inbox blocks the delivering side.
        send_queue_capacity: bound on each peer's outgoing frame queue;
            a full queue blocks the sending thread.
        connect_timeout: total seconds of reconnect backoff before a
            frame to an unreachable peer is dropped
            (``net_frames_dropped_total``).
        drain_timeout: seconds :meth:`close` waits for the peers'
            queued frames to flush before force-closing.
    """

    def __init__(
        self,
        faults: Optional[FaultInjector] = None,
        metrics=None,
        inbox_capacity: int = 0,
        send_queue_capacity: int = 64,
        connect_timeout: float = 30.0,
        drain_timeout: float = 10.0,
    ):
        super().__init__(
            faults=faults, metrics=metrics, inbox_capacity=inbox_capacity
        )
        self.send_queue_capacity = send_queue_capacity
        self.connect_timeout = connect_timeout
        self.drain_timeout = drain_timeout
        #: jitters reconnect backoff (see :func:`reconnect_delay`);
        #: swap in a seeded Random for deterministic tests
        self.reconnect_rng = random.Random()
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        #: every live thread this network started; ``close`` joins them
        self._threads: List[threading.Thread] = []
        #: every open connection, dialed or accepted; ``close`` shuts
        #: them down, the thread that owns one closes it
        self._socks: Set[socket.socket] = set()

    # -- peer wiring -----------------------------------------------------

    def listen(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Accept inbound connections; returns the bound (host, port).

        ``port=0`` binds an ephemeral port (tests).  Frames received
        are decoded, validated and delivered to the local endpoint
        their envelope names; undeliverable or unparseable traffic is
        counted and dropped, never raised — a remote peer cannot crash
        this process with bytes.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("TcpNetwork is closed")
            if self._listener is not None:
                raise RuntimeError("already listening")
            self._listener = socket.create_server((host, port))
            self._acceptor = self._spawn(
                self._accept_loop, "tcp-accept", self._listener
            )
        return self._listener.getsockname()[:2]

    def add_peer(self, node_id: NodeId, host: str, port: int) -> None:
        """Register a remote node reachable at ``host:port``.

        Connections are lazy: the peer's writer dials on the first
        frame and redials with exponential backoff on failure, so peers
        may be registered before the remote process is listening.
        """
        if self._closed:
            raise RuntimeError("TcpNetwork is closed")
        if node_id in self._peers:
            raise ValueError(f"peer {node_id} already registered")
        self._register_peer(
            _Peer(node_id, host, port, self.send_queue_capacity)
        )

    def _forget_peer(self, peer: _Peer) -> None:
        peer.closing = True
        try:
            peer.queue.put_nowait(_WAKE)
        except queue.Full:
            pass  # a writer with frames to write is not idle

    def _enqueue(self, peer: _Peer, parts: Tuple[bytes, bytes]) -> bool:
        """Queue one frame's iovec to a peer; blocks while the queue is full."""
        self.net.send_queue_depth.observe(peer.queue.qsize(), node=peer.node_id)
        if peer.thread is None:
            with self._lock:
                if peer.thread is None and not self._closed:
                    peer.thread = self._spawn(
                        self._writer_loop, f"tcp-writer[{peer.node_id}]", peer
                    )
        # Poll so a sender blocked against an abandoned peer notices.
        while not (self._closed or peer.closing):
            try:
                peer.queue.put(parts, timeout=0.5)
                return True
            except queue.Full:
                pass
        return False

    # -- lifecycle -------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Shut the socket layer down (idempotent).

        With ``drain`` (the default), every peer queue is flushed and
        what the kernel already holds for the readers is delivered —
        bounded by ``drain_timeout`` — before connections close;
        without it, queued frames are abandoned.  Every thread this
        network started has been joined on return.  Local endpoints
        are left attached: a closed TcpNetwork degrades to the
        in-memory fabric.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True  # senders are refused: no new writers
        deadline = time.monotonic() + self.drain_timeout
        peers = list(self._peers.values())
        for peer in peers:
            self._forget_peer(peer)
        if drain:
            self._join([p.thread for p in peers if p.thread], deadline)
        listener = self._listener
        if listener is not None:
            # Non-blocking from here on, the acceptor takes what is
            # queued (what our own writers just dialed may still sit in
            # the backlog) and ends; a dial of ours wakes it.
            listener.setblocking(False)
            try:
                socket.create_connection(listener.getsockname()[:2], 1).close()
            except OSError:
                self._shutdown(listener)  # fails its accept() instead
            self._join([self._acceptor], deadline)
            listener.close()
        with self._lock:
            threads, socks = list(self._threads), list(self._socks)
        # A shut-down socket still yields what it had buffered, then
        # EOF: readers finish the frames that arrived, stuck writers fail.
        for sock in socks:
            self._shutdown(sock)
        if drain:
            self._join(threads, deadline)
        self._stop.set()
        self._join(threads, time.monotonic() + self.drain_timeout)

    @staticmethod
    def _shutdown(sock: socket.socket) -> None:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected, or the remote end went first

    @staticmethod
    def _join(threads, deadline: float) -> None:
        for thread in threads:
            thread.join(max(deadline - time.monotonic(), 0.0))

    def _spawn(self, target, name: str, *args) -> threading.Thread:
        """Start a tracked daemon thread (the caller holds ``_lock``)."""
        thread = threading.Thread(
            target=target, args=args, name=name, daemon=True
        )
        self._threads = [t for t in self._threads if t.is_alive()]
        self._threads.append(thread)
        thread.start()
        return thread

    def _release(self, sock: socket.socket, direction: str) -> None:
        self.net.connections.dec(direction=direction)
        with self._lock:
            self._socks.discard(sock)
        sock.close()

    # -- writer side -----------------------------------------------------

    def _writer_loop(self, peer: _Peer) -> None:
        """Drain one peer's frame queue into its (re)connected socket."""
        try:
            while not self._stop.is_set() and not (
                peer.closing and peer.queue.empty()
            ):
                parts = peer.queue.get()
                if parts is _WAKE:
                    continue
                try:
                    self._write_frame(peer, parts)
                except Exception:
                    _LOG.exception("tcp writer to node %s", peer.node_id)
                    self._close_peer_socket(peer)
                    self.net.frames_dropped.inc(node=peer.node_id)
        finally:
            self._close_peer_socket(peer)

    def _write_frame(self, peer: _Peer, parts: Tuple[bytes, bytes]) -> None:
        for _retry in range(2):
            if peer.sock is None and not self._connect(peer):
                break
            try:
                _send_parts(peer.sock, parts)
                return
            except OSError:
                # Connection died mid-write; retry once on a fresh one.
                # Re-sent frames may duplicate at the receiver — the
                # runtime dedupes (packet arrived-sets, attempt tags).
                self._close_peer_socket(peer)
        self.net.frames_dropped.inc(node=peer.node_id)

    def _connect(self, peer: _Peer) -> bool:
        """Dial a peer with exponential backoff; False when given up."""
        backoff = _BACKOFF_BASE
        deadline = time.monotonic() + self.connect_timeout
        while not self._stop.is_set():
            try:
                sock = socket.create_connection(
                    peer.address, timeout=self.connect_timeout
                )
            except OSError:
                delay = reconnect_delay(backoff, self.reconnect_rng)
                if time.monotonic() + delay >= deadline:
                    return False
                self._stop.wait(delay)
                backoff = min(backoff * 2, _BACKOFF_CAP)
                continue
            sock.settimeout(None)
            # A 200-byte command behind a 512 KiB payload must not wait
            # out Nagle + delayed ACK (~40 ms).
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._socks.add(sock)
            peer.sock = sock
            self.net.reconnects.inc(node=peer.node_id)
            self.net.connections.inc(direction="out")
            return True
        return False

    def _close_peer_socket(self, peer: _Peer) -> None:
        if peer.sock is not None:
            sock, peer.sock = peer.sock, None
            self._release(sock, "out")

    # -- reader side -----------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _address = listener.accept()
            except BlockingIOError:
                return  # close() is draining and the backlog is empty
            except OSError:
                # Closed listener: done.  Anything else (ECONNABORTED,
                # EMFILE) is transient: pause, accept again.
                if self._closed or self._stop.wait(_BACKOFF_BASE):
                    return
                continue
            with self._lock:
                self._spawn(self._reader_loop, "tcp-reader", conn)
                self._socks.add(conn)

    def _reader_loop(self, conn: socket.socket) -> None:
        """Receive one connection's frames until it ends or its framing lies."""
        self.net.connections.inc(direction="in")
        header = memoryview(bytearray(HEADER.size))

        def read_body(nbytes: int) -> memoryview:
            # One buffer per frame, filled by the kernel; the decoded
            # message's payload is a view of it (no user-space copy).
            body = memoryview(bytearray(nbytes))
            return body[: _recv_exact(conn, body)].toreadonly()

        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # A stream that ends inside a header lost nothing whole; one
            # that ends mid-body is counted truncated by the core and
            # the next header read ends us.
            while _recv_exact(conn, header) == HEADER.size and self._receive(
                header, read_body
            ):
                pass
        except OSError:
            pass  # remote reset: equivalent to a closed stream
        except Exception:
            _LOG.exception("tcp reader")
            self.net.frames_rejected.inc(reason="reader")
        finally:
            self._release(conn, "in")
