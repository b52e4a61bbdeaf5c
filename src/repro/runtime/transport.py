"""In-process network transport with NIC bandwidth emulation.

Stands in for the EC2 instances' network in the paper's testbed.
Every node gets an inbox queue and a pair of NIC rate limiters
(ingress/egress); delivering a :class:`DataPacket` reserves both the
sender's egress and the receiver's ingress for the packet duration,
so cross-traffic at a node serializes exactly as on a real NIC.
Control messages (commands, ACKs) are delivered unthrottled.

A :class:`~repro.runtime.faults.FaultInjector` may be attached; it is
consulted on every send and can black-hole crashed endpoints, drop,
duplicate, delay or corrupt data packets, and degrade NIC rates.
Crashed or closed endpoints swallow traffic silently — exactly what a
sender sees when the remote process is gone — so failure detection is
the coordinator's job, not the transport's.

This module is one of two backends behind the :class:`Transport`
protocol; :class:`repro.net.tcp.TcpNetwork` is the other, moving the
same messages over real sockets between OS processes.  Both emit the
same ``net_*`` metric family (:class:`NetInstruments`) so dashboards
and the trace/metrics reconciliation work identically over either.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, List, Optional, Protocol, Set, runtime_checkable

from ..cluster.chunk import NodeId
from ..obs.metrics import MetricsRegistry
from .faults import FaultInjector, corrupted
from .messages import DataPacket
from .throttle import RateLimiter, reserve_transfer, sleep_until


@runtime_checkable
class Transport(Protocol):
    """What the coordinator and agents require of a network backend.

    Structural: the in-memory :class:`Network` and the socket-backed
    :class:`repro.net.tcp.TcpNetwork` both satisfy it without
    inheriting anything (``isinstance(net, Transport)`` checks conform
    at runtime).  Semantics every backend must honor:

    * ``send`` delivers in per-(src, dst) FIFO order;
    * :class:`~repro.runtime.messages.DataPacket` sends pay for
      emulated NIC bandwidth and exert backpressure on the sender;
    * sends to crashed, closed or detached endpoints vanish silently
      (black hole), sends to *unknown* nodes raise ``KeyError``;
    * an attached :class:`~repro.runtime.faults.FaultInjector` is
      consulted on every send.
    """

    faults: Optional[FaultInjector]

    def attach(
        self,
        node_id: NodeId,
        bandwidth: Optional[float],
        stop: Optional[threading.Event] = None,
    ) -> "Endpoint": ...

    def detach(self, node_id: NodeId) -> "Endpoint": ...

    def endpoint(self, node_id: NodeId) -> "Endpoint": ...

    def node_ids(self) -> List[NodeId]: ...

    def scale_bandwidth(self, node_id: NodeId, factor: float) -> None: ...

    def send(self, src: NodeId, dst: NodeId, message) -> None: ...


class NetInstruments:
    """The ``net_*`` metric family every transport backend emits.

    One shared definition keeps names, help strings and label shapes
    identical across backends, so the fault matrix and trace/metrics
    reconciliation run unchanged over sockets.
    """

    def __init__(self, metrics: Optional[MetricsRegistry]):
        m = metrics if metrics is not None else MetricsRegistry()
        self.frames_sent = m.counter(
            "net_frames_sent_total", "wire frames (messages) sent, by node"
        )
        self.frames_received = m.counter(
            "net_frames_received_total",
            "wire frames (messages) delivered into inboxes, by node",
        )
        self.frames_rejected = m.counter(
            "net_frames_rejected_total",
            "frames refused at the receiver (bad magic/version/CRC), by reason",
        )
        self.frames_dropped = m.counter(
            "net_frames_dropped_total",
            "frames abandoned by the sender (peer unreachable), by node",
        )
        self.bytes_sent = m.counter(
            "net_bytes_sent_total", "data payload bytes sent, by node"
        )
        self.bytes_received = m.counter(
            "net_bytes_received_total", "data payload bytes received, by node"
        )
        self.connections = m.gauge(
            "net_connections", "open transport connections, by direction"
        )
        self.reconnects = m.counter(
            "net_reconnects_total", "connection (re)establishments, by node"
        )
        self.send_queue_depth = m.histogram(
            "net_send_queue_depth",
            "per-peer send-queue depth sampled at each enqueue",
            buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self.inbox_depth = m.gauge(
            "net_inbox_depth", "receiver inbox depth after each delivery, by node"
        )


class Endpoint:
    """One node's attachment to the network.

    ``inbox_capacity`` bounds the inbox (0 = unbounded): when full, a
    delivery blocks the *sender* — the same backpressure an OS socket
    buffer exerts — so overload behaves identically on the in-memory
    and TCP backends.
    """

    def __init__(
        self,
        node_id: NodeId,
        bandwidth: Optional[float],
        stop: Optional[threading.Event] = None,
        metrics=None,
        inbox_capacity: int = 0,
    ):
        self.node_id = node_id
        self.inbox_capacity = max(int(inbox_capacity), 0)
        self.inbox: "queue.Queue" = queue.Queue(maxsize=self.inbox_capacity)
        self.nic_in = RateLimiter(
            bandwidth,
            name=f"nic_in[{node_id}]",
            stop=stop,
            metrics=metrics,
            labels={"device": "nic_in", "node": node_id},
        )
        self.nic_out = RateLimiter(
            bandwidth,
            name=f"nic_out[{node_id}]",
            stop=stop,
            metrics=metrics,
            labels={"device": "nic_out", "node": node_id},
        )
        self.closed = False

    def close(self) -> None:
        """Mark the endpoint dead; subsequent sends to it are dropped."""
        self.closed = True


class Network:
    """Registry of endpoints plus the send primitive.

    Args:
        faults: optional fault injector consulted on every send.
        metrics: optional :class:`~repro.obs.MetricsRegistry`; records
            per-node byte counters, transfer throttle waits, and inbox
            queue depths.
        inbox_capacity: bound on every endpoint's inbox (0 = unbounded);
            a full inbox blocks the sender (backpressure).
    """

    def __init__(
        self,
        faults: Optional[FaultInjector] = None,
        metrics=None,
        inbox_capacity: int = 0,
    ):
        self._endpoints: Dict[NodeId, Endpoint] = {}
        self._detached: Set[NodeId] = set()
        self._lock = threading.Lock()
        self.faults = faults
        self.metrics = metrics
        self.inbox_capacity = inbox_capacity
        #: optional QoS policy (:class:`repro.gateway.TrafficArbiter`,
        #: duck-typed): every throttled transfer is admitted through it,
        #: naming the two NICs it is about to reserve, before competing
        #: for them
        self.arbiter = None
        #: total throttled payload bytes moved (telemetry)
        self.bytes_transferred = 0
        #: shared net_* metric family (same shape as the TCP backend)
        self.net = NetInstruments(metrics)
        self._sent_counter = None
        self._recv_counter = None
        self._wait_hist = None
        self._inbox_gauge = None
        if metrics is not None:
            self._sent_counter = metrics.counter(
                "transport_bytes_sent_total",
                "throttled payload bytes leaving each node's NIC",
            )
            self._recv_counter = metrics.counter(
                "transport_bytes_received_total",
                "throttled payload bytes arriving at each node's NIC",
            )
            self._wait_hist = metrics.histogram(
                "transport_throttle_wait_seconds",
                "emulated transfer duration paid per data packet",
            )
            self._inbox_gauge = metrics.gauge(
                "transport_inbox_depth",
                "receiver inbox depth sampled after each data delivery",
            )

    def attach(
        self,
        node_id: NodeId,
        bandwidth: Optional[float],
        stop: Optional[threading.Event] = None,
    ) -> Endpoint:
        """Register a node; returns its endpoint.

        ``stop`` makes the endpoint's NIC throttling interruptible on
        shutdown (see :class:`~repro.runtime.throttle.RateLimiter`).
        """
        with self._lock:
            if node_id in self._endpoints:
                raise ValueError(f"node {node_id} already attached")
            endpoint = Endpoint(
                node_id,
                bandwidth,
                stop=stop,
                metrics=self.metrics,
                inbox_capacity=self.inbox_capacity,
            )
            self._endpoints[node_id] = endpoint
            self._detached.discard(node_id)
            return endpoint

    def node_ids(self) -> List[NodeId]:
        """Ids of every currently attached node."""
        with self._lock:
            return sorted(self._endpoints)

    def detach(self, node_id: NodeId) -> Endpoint:
        """Remove a node (crashed or decommissioned) from the topology.

        The endpoint is closed; in-flight sends targeting it are
        silently dropped instead of raising, so surviving agents are
        not torn down by a peer's death.  A replacement node may then
        :meth:`attach` under the same id.
        """
        with self._lock:
            try:
                endpoint = self._endpoints.pop(node_id)
            except KeyError:
                raise KeyError(f"node {node_id} not attached") from None
            self._detached.add(node_id)
        endpoint.close()
        return endpoint

    def endpoint(self, node_id: NodeId) -> Endpoint:
        try:
            return self._endpoints[node_id]
        except KeyError:
            raise KeyError(f"node {node_id} not attached") from None

    def scale_bandwidth(self, node_id: NodeId, factor: float) -> None:
        """Degrade a node's NIC rates in place (slow-NIC fault)."""
        endpoint = self._endpoints.get(node_id)
        if endpoint is None:
            return
        for limiter in (endpoint.nic_in, endpoint.nic_out):
            if not limiter.unlimited:
                limiter.rate *= factor

    def _deliver(self, receiver: Endpoint, message) -> None:
        """Put a message in an inbox; blocks while the inbox is full."""
        receiver.inbox.put(message)
        self.net.frames_received.inc(node=receiver.node_id)
        self.net.inbox_depth.set(
            receiver.inbox.qsize(), node=receiver.node_id
        )

    def send(self, src: NodeId, dst: NodeId, message) -> None:
        """Deliver a message; DataPackets pay for bandwidth.

        The sender thread blocks for the emulated transfer duration
        (back-pressure), then the packet appears in the receiver inbox.
        Sends involving crashed, closed or detached endpoints vanish
        silently (black hole).
        """
        faults = self.faults
        if faults is not None:
            faults.tick(self)
        sender = self.endpoint(src)
        receiver = self._endpoints.get(dst)
        if receiver is None:
            if dst in self._detached:
                return  # dead peer: drop silently
            raise KeyError(f"node {dst} not attached")
        if sender.closed or receiver.closed:
            return
        if isinstance(message, DataPacket):
            if src == dst:
                raise ValueError("loopback data transfer is not modeled")
            copies = 1
            extra_delay = 0.0
            if faults is not None:
                fate = faults.on_data_packet(src, dst, message)
                if not fate.deliver:
                    return
                copies = fate.copies
                extra_delay = fate.extra_delay
                if fate.payload is not None:
                    message = corrupted(message, fate.payload)
            nbytes = len(message.payload)
            arbiter = self.arbiter
            links = ((src, "out"), (dst, "in"))
            for _ in range(copies):
                if arbiter is not None:
                    arbiter.admit(
                        message, nbytes, links, stop=sender.nic_out.stop
                    )
                deadline = reserve_transfer(
                    sender.nic_out, receiver.nic_in, nbytes
                )
                if self._wait_hist is not None:
                    wait = deadline + extra_delay - time.monotonic()
                    self._wait_hist.observe(max(wait, 0.0))
                sleep_until(deadline + extra_delay, stop=sender.nic_out.stop)
                with self._lock:
                    self.bytes_transferred += nbytes
                if self._sent_counter is not None:
                    self._sent_counter.inc(nbytes, node=src)
                    self._recv_counter.inc(nbytes, node=dst)
                self.net.frames_sent.inc(node=src)
                self.net.bytes_sent.inc(nbytes, node=src)
                self.net.bytes_received.inc(nbytes, node=dst)
                self._deliver(receiver, message)
                if self._inbox_gauge is not None:
                    self._inbox_gauge.set(
                        receiver.inbox.qsize(), node=dst
                    )
            return
        # Control path.  (Crashed-node *data* sends are dropped inside
        # on_data_packet so byte-triggered crashes still see the bytes.)
        if faults is not None and not faults.filter_message(src, dst):
            return  # a crashed node neither sends nor receives
        self.net.frames_sent.inc(node=src)
        self._deliver(receiver, message)
