"""Asyncio TCP transport: the socket backend of the framed core.

:class:`TcpNetwork` moves the same runtime messages as the in-memory
:class:`~repro.runtime.transport.Network`, but across real sockets
between OS processes.  Everything that is not about sockets — the
``Transport`` surface, the send sequence, frame validation, delivery
admission, bandwidth emulation and fault injection — is inherited from
:class:`~repro.net.framed.FramedNetwork`; this module holds only the
event loop, the per-peer writers and the stream reader.

A peer is ``node id -> host:port``.  Concurrency: agent worker threads
call ``send`` synchronously; a single background thread runs an
asyncio event loop owning all sockets.  Per peer there is one bounded
frame queue and one writer task with reconnect/backoff — a full queue
blocks the *sending thread* (backpressure), mirroring a full kernel
socket buffer.  The server side reads one frame at a time per
connection: a header the core rejects drops the connection (a byte
stream whose framing lied cannot be resynced), a rejected body is
skipped and the connection lives on.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from collections import deque
from typing import Optional, Set, Tuple

from ..cluster.chunk import NodeId
from ..runtime.faults import FaultInjector
from .framed import FramedNetwork
from .wire import HEADER

#: queue sentinel: flush what precedes it, then shut the writer down
_CLOSE = object()

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


class _Peer:
    """One remote node: its address, frame queue and writer task.

    The queue is a plain ``deque`` fed by sender threads and drained by
    the writer task; a counting semaphore bounds its depth (sender-side
    backpressure) and an :class:`asyncio.Event` — set via
    ``call_soon_threadsafe``, fire-and-forget — wakes the writer.  The
    old design funneled every frame through
    ``run_coroutine_threadsafe(queue.put(...)).result()``, which costs
    a full cross-thread round trip (~1 ms) per frame and dominated
    loopback throughput.
    """

    def __init__(self, node_id: NodeId, host: str, port: int, capacity: int):
        self.node_id = node_id
        self.address = (host, port)
        self.queue: deque = deque()
        self.slots = threading.Semaphore(capacity)
        #: created on the event loop (events bind to the running loop)
        self.wakeup: Optional[asyncio.Event] = None
        self.task: Optional[asyncio.Task] = None
        self.writer: Optional[asyncio.StreamWriter] = None


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
        drain_timeout: seconds :meth:`close` waits per peer for queued
            frames to flush before force-closing.
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
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: Set[asyncio.Task] = set()

    # -- peer wiring -----------------------------------------------------

    def listen(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Accept inbound connections; returns the bound (host, port).

        ``port=0`` binds an ephemeral port (tests).  Frames received
        are decoded, validated and delivered to the local endpoint
        their envelope names; undeliverable or unparseable traffic is
        counted and dropped, never raised — a remote peer cannot crash
        this process with bytes.
        """
        future = asyncio.run_coroutine_threadsafe(
            self._start_server(host, port), self._ensure_loop()
        )
        return future.result(timeout=30)

    def add_peer(self, node_id: NodeId, host: str, port: int) -> None:
        """Register a remote node reachable at ``host:port``.

        Connections are lazy: the peer's writer dials on the first
        frame and redials with exponential backoff on failure, so peers
        may be registered before the remote process is listening.
        """
        if node_id in self._peers:
            raise ValueError(f"peer {node_id} already registered")
        peer = _Peer(node_id, host, port, self.send_queue_capacity)
        future = asyncio.run_coroutine_threadsafe(
            self._install_peer(peer), self._ensure_loop()
        )
        future.result(timeout=30)
        self._register_peer(peer)

    def _forget_peer(self, peer: _Peer) -> None:
        if peer.wakeup is not None and self._loop is not None:
            # _CLOSE bypasses the slot semaphore: a full queue must
            # not block the detach (the writer drains it anyway).
            peer.queue.append(_CLOSE)
            try:
                self._loop.call_soon_threadsafe(peer.wakeup.set)
            except RuntimeError:
                pass  # loop already stopped

    def _enqueue(self, peer: _Peer, parts: Tuple[bytes, bytes]) -> bool:
        """Queue one frame's iovec to a peer; blocks while the queue is full."""
        if peer.wakeup is None:
            return False
        self.net.send_queue_depth.observe(len(peer.queue), node=peer.node_id)
        # Bounded queue: the semaphore is the backpressure.  Poll so a
        # sender blocked against an abandoned peer notices close().
        while not peer.slots.acquire(timeout=0.5):
            if self._closed:
                return False
        peer.queue.append(parts)
        try:
            self._loop.call_soon_threadsafe(peer.wakeup.set)
        except RuntimeError:
            peer.slots.release()
            return False  # loop stopped underneath us (late close)
        return True

    # -- lifecycle -------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Shut the socket layer down (idempotent).

        With ``drain`` (the default), every peer queue is flushed —
        bounded by ``drain_timeout`` per peer — before connections
        close; without it, queued frames are abandoned.  Local
        endpoints are left attached: a closed TcpNetwork degrades to
        the in-memory fabric.
        """
        if self._closed or self._loop is None:
            self._closed = True
            return
        self._closed = True
        future = asyncio.run_coroutine_threadsafe(
            self._shutdown(drain), self._loop
        )
        try:
            future.result(
                timeout=self.drain_timeout * (len(self._peers) + 1) + 5
            )
        except Exception:
            pass  # a wedged drain must not wedge the caller
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._loop.close()
        self._loop = None
        self._thread = None

    # -- event-loop side -------------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        with self._lock:
            if self._closed:
                raise RuntimeError("TcpNetwork is closed")
            if self._loop is None:
                self._loop = asyncio.new_event_loop()
                self._thread = threading.Thread(
                    target=self._loop.run_forever,
                    name="tcp-network-loop",
                    daemon=True,
                )
                self._thread.start()
            return self._loop

    async def _install_peer(self, peer: _Peer) -> None:
        # The wakeup event and task are created on the loop (an
        # asyncio.Event binds to the running loop on first use).
        peer.wakeup = asyncio.Event()
        peer.task = asyncio.ensure_future(self._peer_writer(peer))

    async def _peer_writer(self, peer: _Peer) -> None:
        """Drain one peer's frame queue into its (re)connected socket."""
        try:
            while True:
                while not peer.queue:
                    await peer.wakeup.wait()
                    peer.wakeup.clear()
                parts = peer.queue.popleft()
                if parts is _CLOSE:
                    return
                peer.slots.release()
                await self._write_frame(peer, parts)
        finally:
            await self._close_peer_socket(peer)

    async def _write_frame(self, peer: _Peer, parts: Tuple[bytes, bytes]) -> None:
        head, payload = parts
        for retry in range(2):
            if peer.writer is None and not await self._connect(peer):
                break
            try:
                # Scatter-gather: header+meta and payload go out as the
                # buffers the sender produced — no per-frame join copy.
                peer.writer.write(head)
                if len(payload):
                    peer.writer.write(payload)
                await peer.writer.drain()
                return
            except (ConnectionError, OSError):
                # Connection died mid-write; retry once on a fresh one.
                # Re-sent frames may duplicate at the receiver — the
                # runtime dedupes (packet arrived-sets, attempt tags).
                await self._close_peer_socket(peer)
        self.net.frames_dropped.inc(node=peer.node_id)

    async def _connect(self, peer: _Peer) -> bool:
        """Dial a peer with exponential backoff; False when given up."""
        backoff = _BACKOFF_BASE
        deadline = time.monotonic() + self.connect_timeout
        while True:
            try:
                _reader, writer = await asyncio.open_connection(
                    *peer.address
                )
            except OSError:
                delay = reconnect_delay(backoff, self.reconnect_rng)
                if time.monotonic() + delay >= deadline:
                    return False
                await asyncio.sleep(delay)
                backoff = min(backoff * 2, _BACKOFF_CAP)
                continue
            peer.writer = writer
            self.net.reconnects.inc(node=peer.node_id)
            self.net.connections.inc(direction="out")
            return True

    async def _close_peer_socket(self, peer: _Peer) -> None:
        if peer.writer is None:
            return
        writer, peer.writer = peer.writer, None
        self.net.connections.dec(direction="out")
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _start_server(self, host: str, port: int) -> Tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("already listening")
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def _handle_connection(self, reader, writer) -> None:
        self.net.connections.inc(direction="in")
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    header = await reader.readexactly(HEADER.size)
                except asyncio.IncompleteReadError:
                    return  # peer closed cleanly (or mid-frame: nothing lost)
                parsed = self._parse_header(header)
                if parsed is None:
                    return  # stream can't be resynced; drop the connection
                _code, _crc, meta_len, payload_len = parsed
                try:
                    body = await reader.readexactly(meta_len + payload_len)
                except asyncio.IncompleteReadError as exc:
                    # Stream ended mid-frame: the core counts the short
                    # body as truncated and the next header read ends us.
                    body = exc.partial
                decoded = self._decode_frame(*parsed, body)
                if decoded is None:
                    continue  # skip just this frame; the stream is aligned
                # Never block the loop itself: a paused delivery pauses
                # only this connection's reads (the kernel buffer then
                # fills and stalls the remote writer).
                for delay in self._delivery(*decoded):
                    await asyncio.sleep(delay)
        except (ConnectionError, OSError):
            pass  # remote reset: equivalent to a closed stream
        except asyncio.CancelledError:
            # Swallow the shutdown cancel: asyncio's stream-server
            # done-callback re-raises task.exception() into the loop's
            # exception handler otherwise, spamming stderr on close.
            pass
        finally:
            self._conn_tasks.discard(task)
            self.net.connections.dec(direction="in")
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def _shutdown(self, drain: bool) -> None:
        for peer in self._peers.values():
            if peer.wakeup is None or peer.task is None:
                continue
            if drain:
                peer.queue.append(_CLOSE)
                peer.wakeup.set()
                try:
                    await asyncio.wait_for(peer.task, self.drain_timeout)
                except (asyncio.TimeoutError, asyncio.CancelledError):
                    peer.task.cancel()
            else:
                peer.task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
