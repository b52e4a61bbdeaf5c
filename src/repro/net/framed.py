"""The framed-transport core shared by every wire backend.

:class:`FramedNetwork` is everything about moving runtime messages
between OS processes that does *not* depend on the pipe the frames
cross: the local in-memory fabric for nodes hosted by this process,
the peer table, the whole ``send`` sequence (fault fate, in-flight
corruption, arbiter admission, egress NIC reservation, byte counting,
frame encode), frame validation with its reject counters and the
``checksum=None`` contract, and delivery admission (crash filter,
endpoint lookup, ingress NIC reservation, bounded-inbox offer).

A backend (:class:`~repro.net.tcp.TcpNetwork`,
:class:`~repro.net.shm.ShmNetwork`) supplies only what is genuinely
its own: ``listen``/``add_peer``, :meth:`_enqueue` ("write these iovec
parts to that peer"), :meth:`_forget_peer`, ``close`` — and a reader
thread that hands each frame it takes off its pipe to :meth:`_receive`.

Topology model: each process attaches its *local* node(s) and
registers every remote node as a *peer*.  A send to a peer is framed
and handed to the backend; a send between two local nodes takes the
in-memory path with full NIC emulation.  A node may be both local and
a peer pointing back at this process ("loopback wiring"), in which
case the peer route wins and every message crosses the backend's pipe
— that is how the conformance suite exercises a backend inside one
process.

Emulated bandwidth binds on both sides: a :class:`DataPacket` send
reserves the local sender's egress NIC before the frame is enqueued,
and delivery reserves the local receiver's ingress NIC before the
message reaches the inbox.  Fault injection applies on the sending
side exactly as in memory (tick, crash black-holes, packet
drop/dup/corrupt/delay); the receiving side additionally drops traffic
involving locally known crashed nodes.  Byte-count crash triggers fire
on the sending process only — the receiver never re-counts, so a
trigger fires exactly once per plan.

Frame validation, stated once: a bad *header* means the framing itself
lied — a byte stream cannot be resynchronised and is dropped, a
length-prefixed ring frame is skipped; a bad *body* (CRC or schema)
behind a valid header is always skipped alone, because the validated
lengths keep the stream aligned.
"""

from __future__ import annotations

import queue
import struct
import threading
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..cluster.chunk import NodeId
from ..runtime.faults import FaultInjector
from ..runtime.messages import DataPacket
from ..runtime.throttle import sleep_until
from ..runtime.transport import Endpoint, Network
from .wire import WireError, decode_body, encode_frame_parts, parse_header

#: poll period while a full bounded inbox exerts backpressure
_INBOX_POLL = 0.005


class FramedNetwork:
    """Backend-independent half of a wire transport (see module doc).

    Args:
        faults: optional fault injector, consulted on every send (and,
            for crash black-holing, on every delivery).
        metrics: optional :class:`~repro.obs.MetricsRegistry`; both the
            inner in-memory fabric and the wire path emit the shared
            ``net_*`` family into it.
        inbox_capacity: bound on local endpoints' inboxes (0 =
            unbounded); a full inbox stalls the delivering side.
    """

    def __init__(
        self,
        faults: Optional[FaultInjector] = None,
        metrics=None,
        inbox_capacity: int = 0,
    ):
        # Local nodes live on a private in-memory fabric: attach/endpoint/
        # local sends inherit its exact semantics (throttling, faults,
        # detach black-holes) instead of reimplementing them.
        self._inner = Network(
            faults=faults, metrics=metrics, inbox_capacity=inbox_capacity
        )
        self.metrics = metrics
        self.net = self._inner.net
        #: node id -> the backend's peer record (needs ``.node_id`` and
        #: ``.address``)
        self._peers: Dict[NodeId, object] = {}
        self._detached_peers: Set[NodeId] = set()
        self._lock = threading.Lock()
        self._wire_bytes = 0
        self._closed = False
        #: set by the backend's ``close``: ends every reader-side wait
        self._stop = threading.Event()

    # -- backend hooks -------------------------------------------------

    def _enqueue(self, peer, parts: Tuple[bytes, bytes]) -> bool:
        """Hand one frame's iovec to ``peer``; False if it was abandoned.

        May block (backpressure) while the peer's pipe is full.
        """
        raise NotImplementedError

    def _forget_peer(self, peer) -> None:
        """Release whatever the backend holds for a detached peer."""
        raise NotImplementedError

    # -- Transport interface -------------------------------------------

    @property
    def arbiter(self):
        """QoS policy shared with the local fabric (see :class:`Network`)."""
        return self._inner.arbiter

    @arbiter.setter
    def arbiter(self, arbiter) -> None:
        self._inner.arbiter = arbiter

    @property
    def faults(self) -> Optional[FaultInjector]:
        return self._inner.faults

    @faults.setter
    def faults(self, injector: Optional[FaultInjector]) -> None:
        self._inner.faults = injector

    @property
    def bytes_transferred(self) -> int:
        """Throttled payload bytes moved (local + sent over the wire)."""
        with self._lock:
            return self._inner.bytes_transferred + self._wire_bytes

    def attach(
        self,
        node_id: NodeId,
        bandwidth: Optional[float],
        stop: Optional[threading.Event] = None,
    ) -> Endpoint:
        """Register a node hosted by *this* process."""
        return self._inner.attach(node_id, bandwidth, stop=stop)

    def detach(self, node_id: NodeId) -> Optional[Endpoint]:
        """Remove a node from the topology (local endpoint, peer or both).

        Subsequent sends to it are silently dropped, exactly as on the
        in-memory fabric.  Returns the local endpoint if there was one.
        """
        endpoint: Optional[Endpoint] = None
        known = False
        if node_id in self._inner._endpoints:
            endpoint = self._inner.detach(node_id)
            known = True
        peer = self._peers.pop(node_id, None)
        if peer is not None:
            known = True
            self._detached_peers.add(node_id)
            self._forget_peer(peer)
        if not known:
            raise KeyError(f"node {node_id} not attached")
        return endpoint

    def endpoint(self, node_id: NodeId) -> Endpoint:
        """The *local* endpoint of a node hosted by this process."""
        return self._inner.endpoint(node_id)

    def node_ids(self) -> List[NodeId]:
        """Every node this process can reach: local endpoints + peers."""
        return sorted(set(self._inner.node_ids()) | set(self._peers))

    def peers(self) -> Dict[NodeId, object]:
        """Registered remote nodes and their backend addresses."""
        return {p.node_id: p.address for p in self._peers.values()}

    def scale_bandwidth(self, node_id: NodeId, factor: float) -> None:
        """Degrade a *local* node's NIC rates (slow-NIC fault).

        A remote node's slowdown is ignored here: every process runs
        the same fault plan, and the slowdown binds in the process that
        hosts the node.
        """
        if node_id not in self._inner._endpoints:
            return
        self._inner.scale_bandwidth(node_id, factor)

    def _register_peer(self, peer) -> None:
        """Record a peer the backend just built in :meth:`add_peer`."""
        self._peers[peer.node_id] = peer
        self._detached_peers.discard(peer.node_id)

    # -- send ----------------------------------------------------------

    def send(self, src: NodeId, dst: NodeId, message) -> None:
        """Deliver a message; peers over the wire, local nodes in memory.

        Same contract as :meth:`Network.send`: DataPackets pay for the
        sender's emulated NIC and exert backpressure; crashed, closed
        or detached destinations swallow traffic silently; unknown
        destinations raise ``KeyError``.
        """
        peer = self._peers.get(dst)
        if peer is None:
            if dst in self._detached_peers and dst not in self._inner._endpoints:
                return  # dead remote peer: drop silently
            self._inner.send(src, dst, message)
            return
        faults = self.faults
        if faults is not None:
            faults.tick(self)
        sender = self._inner.endpoint(src)
        if sender.closed:
            return
        if not isinstance(message, DataPacket):
            if faults is not None and not faults.filter_message(src, dst):
                return  # a crashed node neither sends nor receives
            self._transmit(peer, src, encode_frame_parts(src, dst, message))
            return
        if src == dst:
            raise ValueError("loopback data transfer is not modeled")
        copies = 1
        extra_delay = 0.0
        corrupt_payload = None
        if faults is not None:
            fate = faults.on_data_packet(src, dst, message)
            if not fate.deliver:
                return
            copies = fate.copies
            extra_delay = fate.extra_delay
            corrupt_payload = fate.payload
        nbytes = len(message.payload)
        head, payload = encode_frame_parts(src, dst, message)
        if corrupt_payload is not None:
            # Corruption happens "in flight": the frame keeps the CRC of
            # the original bytes, so the receiver's frame CRC rejects it
            # — the wire-level analogue of the in-memory fabric's
            # stale-checksum packets.
            payload = corrupt_payload
        arbiter = self.arbiter
        for _ in range(copies):
            # Sender-side egress only, for the arbiter and the NIC
            # reservation alike: the receiver's ingress is charged in
            # its own process at delivery.
            if arbiter is not None:
                arbiter.admit(
                    message, nbytes, ((src, "out"),),
                    stop=sender.nic_out.stop,
                )
            deadline = sender.nic_out.reserve(nbytes)
            sleep_until(deadline + extra_delay, stop=sender.nic_out.stop)
            with self._lock:
                self._wire_bytes += nbytes
            self.net.bytes_sent.inc(nbytes, node=src)
            self._transmit(peer, src, (head, payload))

    def _transmit(self, peer, src: NodeId, parts: Tuple[bytes, bytes]) -> None:
        if not self._closed and self._enqueue(peer, parts):
            self.net.frames_sent.inc(node=src)
        else:
            self.net.frames_dropped.inc(node=peer.node_id)

    # -- receive -------------------------------------------------------

    def _receive(self, header, read_body: Callable[[int], memoryview]) -> bool:
        """One frame off a backend's pipe: parse header, decode body, deliver.

        ``read_body(nbytes)`` returns the bytes behind the header (fewer
        if the pipe ended).  ``False`` is the module doc's bad *header*
        (the backend drops its stream or skips its frame); a bad *body*
        is counted, skipped alone, and ``True``.
        """
        try:
            code, _epoch, meta_len, payload_len, crc = parse_header(header)
        except (WireError, struct.error):
            self.net.frames_rejected.inc(reason="header")
            return False
        body = read_body(meta_len + payload_len)
        if len(body) != meta_len + payload_len:
            self.net.frames_rejected.inc(reason="truncated")
            return True
        try:
            src, dst, message = decode_body(
                code, crc, body[:meta_len], body[meta_len:]
            )
        except WireError:
            self.net.frames_rejected.inc(reason="body")
            return True
        if isinstance(message, DataPacket) and message.checksum is not None:
            # The frame CRC validated these exact payload bytes;
            # clearing the app-level checksum lets assemblies and
            # chain stages skip an identical crc32 pass per payload.  (The
            # in-memory fabric keeps checksums: its faults corrupt
            # packets after construction, past any wire-level check.)
            message = replace(message, checksum=None)
        self._delivery(src, dst, message)
        return True

    def _delivery(self, src: NodeId, dst: NodeId, message) -> None:
        """Admit one decoded message to the local endpoint it names.

        Waits out the ingress NIC reservation, then a full bounded
        inbox, on the stop event (``close`` abandons the message): a
        stalled reader fills its pipe, which blocks the remote sender.
        """
        faults = self.faults
        if faults is not None and not faults.filter_message(src, dst):
            return  # locally known crashed node: black hole
        try:
            endpoint = self._inner.endpoint(dst)
        except KeyError:
            self.net.frames_dropped.inc(node=dst)
            return  # misrouted or detached-here destination
        if endpoint.closed:
            return
        if isinstance(message, DataPacket):
            nbytes = len(message.payload)
            # Receiver-side ingress reservation: the emulated NIC cap
            # binds here even though the sender is another process.
            delay = endpoint.nic_in.reserve(nbytes) - time.monotonic()
            if delay > 0 and self._stop.wait(delay):
                return
            self.net.bytes_received.inc(nbytes, node=dst)
        while True:
            try:
                endpoint.inbox.put(message, timeout=_INBOX_POLL)
                break
            except queue.Full:
                # Bounded inbox: stalling the backend's reader is the
                # backpressure — its pipe fills and blocks the sender.
                if self._stop.is_set():
                    return
        self.net.frames_received.inc(node=dst)
        self.net.inbox_depth.set(endpoint.inbox.qsize(), node=dst)
