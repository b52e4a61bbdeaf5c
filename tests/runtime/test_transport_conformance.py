"""Transport conformance: one contract, three backends.

Every test in :class:`TestTransportContract` runs against the
in-memory fabric, a loopback-wired :class:`~repro.net.TcpNetwork`
(each node registered as a peer of the network's own listen port, so
every message crosses a real socket) and a loopback-wired
:class:`~repro.net.ShmNetwork` (each node registered as a peer of the
network's own ring, so every message crosses shared memory).  The
runtime must not be able to tell the backends apart: ordering, payload
fidelity, backpressure, silent-drop and error semantics all match.

Backend-only behaviors (stream rejection, reconnection, ring framing)
are exercised in the backend-specific classes below; the coordinator
kill/resume walk runs once per wire backend in :class:`TestKillResume`.
"""

import dataclasses
import socket
import threading
import time
import zlib
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro import RepairSession, apply_pipelining
from repro.cluster import StorageCluster
from repro.core.planner import FastPRPlanner
from repro.ec import make_codec
from repro.net import ShmNetwork, TcpNetwork, shm_available
from repro.obs import MetricsRegistry
from repro.net.framed import FramedNetwork
from repro.runtime import (
    COORDINATOR_ID,
    CoordinatorCrash,
    CoordinatorCrashFault,
    FaultPlan,
    LinkFault,
    RepairJournal,
    RuntimeConfig,
    Scrubber,
)
from repro.runtime.driver import run_repair
from repro.runtime.faults import FaultInjector
from repro.runtime.agent import Agent
from repro.runtime.datanode import ChunkStore
from repro.gateway import GATEWAY_ID
from repro.runtime.messages import (
    ACK_FAILED,
    ChunkRead,
    ChunkReadReply,
    ChunkWrite,
    ChunkWriteReply,
    DataPacket,
    GetRequest,
    Heartbeat,
    InventoryQuery,
    InventoryReply,
    Ping,
    Pong,
    ReceiveCommand,
    RepairAck,
    SlicePacket,
    SliceReport,
    StatReply,
)
from repro.runtime.testbed import EmulatedTestbed
from repro.runtime.throttle import RateLimiter

#: tight timings so fencing/recovery happen in test time
FAST = RuntimeConfig(
    ack_timeout=2.0,
    join_timeout=5.0,
    min_deadline=0.8,
    backoff_base=0.05,
    backoff_cap=0.2,
    probe_timeout=0.5,
    heartbeat_interval=0.1,
    poll_interval=0.05,
    journal_fsync="never",
    inventory_timeout=2.0,
)


@pytest.fixture(autouse=True)
def no_tcp_thread_outlives_its_network(tcp_threads_joined):
    yield


class Backend:
    """Builds one transport backend and wires its topology."""

    def __init__(self, kind: str):
        self.kind = kind
        self.networks = []

    def make(self, **kwargs):
        if self.kind == "tcp":
            net = TcpNetwork(**kwargs)
        elif self.kind == "shm":
            net = ShmNetwork(**kwargs)
        else:
            from repro.runtime.transport import Network

            net = Network(**kwargs)
        self.networks.append(net)
        return net

    def wire(self, net, node_ids):
        """Make ``node_ids`` reachable; on tcp/shm, across the wire."""
        if self.kind == "tcp":
            host, port = net.listen()
            for node_id in node_ids:
                net.add_peer(node_id, host, port)
        elif self.kind == "shm":
            name = net.listen()
            for node_id in node_ids:
                net.add_peer(node_id, name)

    def close(self):
        for net in self.networks:
            if isinstance(net, (TcpNetwork, ShmNetwork)):
                net.close()


#: the backends that frame messages (everything but the memory fabric)
WIRE_BACKENDS = [
    "tcp",
    pytest.param(
        "shm",
        marks=pytest.mark.skipif(
            not shm_available(), reason="needs POSIX shm + flock"
        ),
    ),
]


@pytest.fixture(params=["memory", *WIRE_BACKENDS])
def backend(request):
    b = Backend(request.param)
    yield b
    b.close()


def drain(endpoint, count, timeout=10.0, skip=(Heartbeat,)):
    """Pull ``count`` non-heartbeat messages off an inbox."""
    got = []
    deadline = time.monotonic() + timeout
    while len(got) < count:
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"only {len(got)}/{count} messages arrived"
        message = endpoint.inbox.get(timeout=remaining)
        if not isinstance(message, skip):
            got.append(message)
    return got


class TestTransportContract:
    def test_per_peer_ordering(self, backend):
        net = backend.make()
        net.attach(0, None)
        net.attach(1, None)
        backend.wire(net, [1])
        for i in range(100):
            net.send(0, 1, Pong(node_id=0, nonce=i))
        got = drain(net.endpoint(1), 100)
        assert [m.nonce for m in got] == list(range(100))

    def test_data_payload_bit_exact_and_counted(self, backend):
        net = backend.make()
        net.attach(0, 1e9)
        net.attach(1, 1e9)
        backend.wire(net, [1])
        payload = bytes(range(256)) * 20
        net.send(0, 1, DataPacket(3, 1, 0, 0, payload, attempt=2, epoch=1))
        (got,) = drain(net.endpoint(1), 1)
        assert got.payload == payload
        assert (got.stripe_id, got.chunk_index, got.attempt) == (3, 1, 2)
        assert net.bytes_transferred == len(payload)

    def test_bounded_inbox_backpressures_without_loss(self, backend):
        net = backend.make(inbox_capacity=4)
        net.attach(0, None)
        net.attach(1, None)
        backend.wire(net, [1])
        endpoint = net.endpoint(1)
        assert endpoint.inbox.maxsize == 4
        got, overflow = [], []

        def consume():
            for _ in range(32):
                if endpoint.inbox.qsize() > 4:
                    overflow.append(endpoint.inbox.qsize())
                got.append(endpoint.inbox.get(timeout=10.0))
                time.sleep(0.01)  # slower than the sender

        consumer = threading.Thread(target=consume)
        consumer.start()
        for i in range(32):
            net.send(0, 1, Pong(node_id=0, nonce=i))
        consumer.join(timeout=15.0)
        assert not consumer.is_alive()
        assert [m.nonce for m in got] == list(range(32))
        assert not overflow  # the bound held the whole time

    def test_detached_destination_swallows_silently(self, backend):
        net = backend.make()
        net.attach(0, None)
        net.attach(1, None)
        backend.wire(net, [1])
        net.detach(1)
        net.send(0, 1, Ping(nonce=1))  # must not raise

    def test_unknown_destination_raises(self, backend):
        net = backend.make()
        net.attach(0, None)
        with pytest.raises(KeyError):
            net.send(0, 99, Ping(nonce=1))

    def test_net_metrics_emitted(self, backend):
        registry = MetricsRegistry()
        net = backend.make(metrics=registry)
        net.attach(0, 1e9)
        net.attach(1, 1e9)
        backend.wire(net, [1])
        net.send(0, 1, DataPacket(0, 0, 0, 0, b"x" * 100))
        net.send(0, 1, Ping(nonce=1))
        drain(net.endpoint(1), 2)
        assert net.net.frames_sent.total() >= 2
        assert net.net.frames_received.total() >= 2
        assert net.net.bytes_sent.total() == 100

    def test_slice_packet_survives_backend_bit_exact(self, backend):
        # SlicePacket is a DataPacket specialization; every backend
        # must carry the slice-protocol fields and the payload intact.
        net = backend.make()
        net.attach(0, 1e9)
        net.attach(1, 1e9)
        backend.wire(net, [1])
        payload = bytes(range(256)) * 16
        net.send(
            0,
            1,
            SlicePacket(
                stripe_id=3,
                chunk_index=1,
                source=0,
                offset=4096,
                payload=payload,
                attempt=2,
                epoch=1,
                checksum=zlib.crc32(payload),
                slice_index=1,
                num_slices=4,
                chain_pos=2,
            ),
        )
        (got,) = drain(net.endpoint(1), 1)
        assert isinstance(got, SlicePacket)
        assert got.payload == payload
        # The memory fabric carries the per-packet checksum verbatim;
        # the wire backends drop it (the frame CRC covers meta+payload)
        # — either way the payload integrity contract holds.
        assert got.checksum in (None, zlib.crc32(payload))
        assert (got.slice_index, got.num_slices, got.chain_pos) == (1, 4, 2)
        assert (got.stripe_id, got.chunk_index, got.offset) == (3, 1, 4096)
        assert (got.attempt, got.epoch) == (2, 1)
        assert net.bytes_transferred == len(payload)

    def test_slice_stream_ordered_per_peer(self, backend):
        # A chain hop consumes upstream partial sums strictly in slice
        # order; the transport must never reorder them.
        net = backend.make()
        net.attach(0, 1e9)
        net.attach(1, 1e9)
        backend.wire(net, [1])
        num_slices = 32
        for index in range(num_slices):
            payload = bytes([index]) * 512
            net.send(
                0,
                1,
                SlicePacket(
                    stripe_id=0,
                    chunk_index=0,
                    source=0,
                    offset=index * 512,
                    payload=payload,
                    checksum=zlib.crc32(payload),
                    slice_index=index,
                    num_slices=num_slices,
                ),
            )
        got = drain(net.endpoint(1), num_slices)
        assert [p.slice_index for p in got] == list(range(num_slices))
        assert all(p.payload == bytes([p.slice_index]) * 512 for p in got)

    def test_slice_report_roundtrip(self, backend):
        # The destination's per-slice progress stream reaches the
        # coordinator with its timing intact.
        net = backend.make()
        net.attach(0, None)
        net.attach(COORDINATOR_ID, None)
        backend.wire(net, [COORDINATOR_ID])
        net.send(
            0,
            COORDINATOR_ID,
            SliceReport(
                stripe_id=7,
                chunk_index=2,
                node_id=0,
                slice_index=3,
                num_slices=8,
                attempt=1,
                epoch=2,
                elapsed=0.125,
            ),
        )
        (got,) = drain(net.endpoint(COORDINATOR_ID), 1)
        assert isinstance(got, SliceReport)
        assert got.key == (7, 2)
        assert (got.node_id, got.slice_index, got.num_slices) == (0, 3, 8)
        assert (got.attempt, got.epoch) == (1, 2)
        assert got.elapsed == pytest.approx(0.125)

    def test_epoch_fencing_nacks_stale_commands(self, backend, tmp_path):
        net = backend.make()
        net.attach(COORDINATOR_ID, None)
        net.attach(1, 1e9)
        backend.wire(net, [1, COORDINATOR_ID])
        store = ChunkStore(tmp_path / "n1", 1, RateLimiter(1e9))
        agent = Agent(1, store, net, coordinator_id=COORDINATOR_ID,
                      config=FAST)
        agent.start()
        try:
            coord = net.endpoint(COORDINATOR_ID)
            net.send(COORDINATOR_ID, 1, InventoryQuery(epoch=5, nonce=1))
            (reply,) = drain(coord, 1)
            assert isinstance(reply, InventoryReply)
            assert reply.epoch == 5
            # An older coordinator's mutating command must bounce.
            net.send(
                COORDINATOR_ID, 1,
                ReceiveCommand(0, 0, 64, 16, sources={2: 1}, epoch=3),
            )
            (ack,) = drain(coord, 1)
            assert isinstance(ack, RepairAck)
            assert ack.status == ACK_FAILED
            assert "stale epoch" in ack.detail
            assert not store.stripes()  # nothing mutated
        finally:
            agent.stop()

    def test_fault_fates_bind_identically(self, backend):
        # Duplicate, corrupt and delay fates on DataPackets: the wire
        # backends share one send sequence and it must read like the
        # memory fabric's — one arbiter admission and one byte count
        # per copy that leaves the NIC, whatever happens to it next.
        plan = FaultPlan(links=[
            LinkFault(duplicate=1.0, dst=1),
            LinkFault(corrupt=1.0, dst=2),
            LinkFault(delay=0.05, dst=3),
        ])
        net = backend.make(
            faults=FaultInjector(plan), metrics=MetricsRegistry()
        )
        admitted = []
        links = set()

        class Arbiter:
            def admit(self, message, nbytes, links_, stop=None):
                admitted.append(nbytes)
                links.update(links_)

        net.arbiter = Arbiter()
        for node_id in range(4):
            net.attach(node_id, 1e9)
        backend.wire(net, [1, 2, 3])
        net.faults.start()
        payload = bytes(range(256)) * 4

        def packet():
            return DataPacket(
                0, 0, 0, 0, payload, checksum=zlib.crc32(payload)
            )

        net.send(0, 1, packet())
        twice = drain(net.endpoint(1), 2)
        assert [bytes(p.payload) for p in twice] == [payload, payload]

        net.send(0, 2, packet())
        net.send(0, 2, Pong(node_id=0, nonce=5))
        if backend.kind == "memory":
            # Delivered with a checksum gone stale: the receiving
            # assembly is what refuses it.
            bad, after = drain(net.endpoint(2), 2)
            assert zlib.crc32(bad.payload) != bad.checksum
        else:
            # Corrupted "in flight": the frame CRC refuses it, that one
            # frame is skipped and the stream stays aligned.
            (after,) = drain(net.endpoint(2), 1)
            assert net.net.frames_rejected.value(reason="body") == 1
        assert after.nonce == 5

        began = time.monotonic()
        net.send(0, 3, packet())
        assert time.monotonic() - began >= 0.05  # the sender pays the delay
        (late,) = drain(net.endpoint(3), 1)
        assert bytes(late.payload) == payload
        assert net.endpoint(3).inbox.empty()

        assert admitted == [len(payload)] * 4
        # The memory fabric names both NICs it reserves; a wire backend
        # only the sender's egress (the receiver charges its own side).
        assert (0, "out") in links
        ingress = {(dst, "in") for dst in (1, 2, 3)}
        assert links - {(0, "out")} == (
            ingress if backend.kind == "memory" else set()
        )
        assert net.bytes_transferred == 4 * len(payload)
        assert net.net.bytes_sent.value(node=0) == 4 * len(payload)

    # -- gateway wire messages (type codes 15-27) ----------------------

    def test_gateway_chunk_transfer_checksum_contract(self, backend):
        # ChunkWrite/ChunkReadReply are DataPacket subclasses: payload
        # must cross every backend bit-exact, and receivers must honor
        # the checksum contract — the memory fabric hands the attached
        # CRC through verbatim, while tcp/shm verify it at the frame
        # level and strip the field to None.  Gateway code treats
        # ``checksum is None`` as transport-verified.
        net = backend.make()
        net.attach(GATEWAY_ID, 1e9)
        net.attach(1, 1e9)
        backend.wire(net, [1, GATEWAY_ID])
        payload = bytes(range(256)) * 17
        net.send(GATEWAY_ID, 1, ChunkWrite(
            stripe_id=9, chunk_index=4, source=GATEWAY_ID, offset=0,
            payload=payload, checksum=zlib.crc32(payload),
            nonce=31, reply_to=GATEWAY_ID,
        ))
        (got,) = drain(net.endpoint(1), 1)
        assert isinstance(got, ChunkWrite)
        assert bytes(got.payload) == payload
        assert (got.stripe_id, got.chunk_index) == (9, 4)
        assert (got.nonce, got.reply_to) == (31, GATEWAY_ID)
        if backend.kind == "memory":
            assert got.checksum == zlib.crc32(payload)
        else:
            assert got.checksum is None
        net.send(1, GATEWAY_ID, ChunkReadReply(
            stripe_id=9, chunk_index=4, source=1, offset=0,
            payload=payload, checksum=zlib.crc32(payload), nonce=32,
        ))
        (reply,) = drain(net.endpoint(GATEWAY_ID), 1)
        assert isinstance(reply, ChunkReadReply)
        assert bytes(reply.payload) == payload
        assert reply.ok and reply.nonce == 32
        assert reply.checksum in (None, zlib.crc32(payload))

    def test_gateway_control_messages_cross_backend(self, backend):
        # Control-plane object messages (no payload): field fidelity,
        # including the stripes-tuple coercion on StatReply.
        net = backend.make()
        net.attach(GATEWAY_ID, None)
        net.attach(1, None)
        backend.wire(net, [1, GATEWAY_ID])
        net.send(1, GATEWAY_ID, GetRequest(
            key="videos/a b.mp4", nonce=7, reply_to=1
        ))
        (request,) = drain(net.endpoint(GATEWAY_ID), 1)
        assert isinstance(request, GetRequest)
        assert (request.key, request.nonce, request.reply_to) == (
            "videos/a b.mp4", 7, 1
        )
        net.send(GATEWAY_ID, 1, StatReply(
            key="videos/a b.mp4", nonce=7, size=123456, chunk_size=4096,
            scheme="rs(9,6)", stripes=(5, 6, 7),
        ))
        (stat,) = drain(net.endpoint(1), 1)
        assert isinstance(stat, StatReply)
        assert stat.stripes == (5, 6, 7)  # tuple, not list, post-wire
        assert (stat.size, stat.chunk_size, stat.scheme) == (
            123456, 4096, "rs(9,6)"
        )

    def test_agent_serves_chunk_write_then_read(self, backend, tmp_path):
        # The full gateway<->datanode chunk RPC against a live Agent:
        # write a chunk, read it back, byte-identical — over every
        # backend.  A read for a chunk the node never stored answers
        # ok=False instead of going silent (the degraded-read trigger).
        net = backend.make()
        net.attach(GATEWAY_ID, 1e9)
        net.attach(1, 1e9)
        backend.wire(net, [1, GATEWAY_ID])
        store = ChunkStore(tmp_path / "n1", 1, RateLimiter(1e9))
        agent = Agent(1, store, net, coordinator_id=COORDINATOR_ID,
                      config=FAST)
        agent.start()
        try:
            inbox = net.endpoint(GATEWAY_ID)
            payload = bytes((i * 7) % 256 for i in range(4096))
            net.send(GATEWAY_ID, 1, ChunkWrite(
                stripe_id=2, chunk_index=3, source=GATEWAY_ID, offset=0,
                payload=payload, checksum=zlib.crc32(payload),
                nonce=1, reply_to=GATEWAY_ID,
            ))
            (ack,) = drain(inbox, 1)
            assert isinstance(ack, ChunkWriteReply)
            assert ack.ok and ack.nonce == 1
            net.send(GATEWAY_ID, 1, ChunkRead(
                stripe_id=2, chunk_index=3, nonce=2, reply_to=GATEWAY_ID
            ))
            (reply,) = drain(inbox, 1)
            assert isinstance(reply, ChunkReadReply)
            assert reply.ok and reply.nonce == 2
            assert bytes(reply.payload) == payload
            net.send(GATEWAY_ID, 1, ChunkRead(
                stripe_id=99, chunk_index=0, nonce=3, reply_to=GATEWAY_ID
            ))
            (missing,) = drain(inbox, 1)
            assert not missing.ok
            assert missing.nonce == 3
            assert bytes(missing.payload) == b""
        finally:
            agent.stop()


class TestTcpOnly:
    """Socket-path behaviors with no in-memory analogue."""

    def _loopback(self):
        net = TcpNetwork(metrics=MetricsRegistry())
        net.attach(0, None)
        net.attach(1, None)
        host, port = net.listen()
        net.add_peer(1, host, port)
        return net, host, port

    def test_corrupt_stream_rejected_connection_survives(self):
        net, host, port = self._loopback()
        try:
            with socket.create_connection((host, port)) as sock:
                sock.sendall(b"GET / HTTP/1.1\r\n" + b"\x00" * 64)
            deadline = time.monotonic() + 5.0
            while net.net.frames_rejected.total() == 0:
                assert time.monotonic() < deadline, "rejection not counted"
                time.sleep(0.01)
            # The poisoned connection is dropped, but the transport
            # still delivers frames arriving on healthy connections.
            net.send(0, 1, Pong(node_id=0, nonce=7))
            (got,) = drain(net.endpoint(1), 1)
            assert got.nonce == 7
        finally:
            net.close()

    def test_truncated_frame_rejected(self):
        net, host, port = self._loopback()
        try:
            from repro.net import encode_frame

            frame = encode_frame(0, 1, Pong(node_id=0, nonce=1))
            with socket.create_connection((host, port)) as sock:
                sock.sendall(frame[:-5])  # header promises more bytes
            deadline = time.monotonic() + 5.0
            while net.net.frames_rejected.total() == 0:
                assert time.monotonic() < deadline, "rejection not counted"
                time.sleep(0.01)
        finally:
            net.close()

    def test_peer_registered_before_listener_connects_lazily(self):
        # Backoff absorbs startup races: the frame sent before anyone
        # listens arrives once the server comes up.
        sender = TcpNetwork(connect_timeout=10.0)
        receiver = TcpNetwork()
        try:
            sender.attach(0, None)
            receiver.attach(1, None)
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                port = probe.getsockname()[1]
            sender.add_peer(1, "127.0.0.1", port)
            sender.send(0, 1, Pong(node_id=0, nonce=3))
            time.sleep(0.3)  # a few failed dials happen first
            receiver.listen("127.0.0.1", port)
            (got,) = drain(receiver.endpoint(1), 1)
            assert got.nonce == 3
        finally:
            sender.close()
            receiver.close()

    def test_close_drains_queued_frames(self):
        net, host, port = self._loopback()
        for i in range(50):
            net.send(0, 1, Pong(node_id=0, nonce=i))
        net.close(drain=True)
        # Delivery happened before the sockets went down.
        got = drain(net.endpoint(1), 50, timeout=5.0)
        assert [m.nonce for m in got] == list(range(50))

    # -- what the blocking-socket backend owes that asyncio used to do --

    def _accepted(self, net, count=1, timeout=5.0):
        """The sockets ``net`` accepted, once there are ``count``."""
        dialed = {p.sock for p in net._peers.values()}
        deadline = time.monotonic() + timeout
        while True:
            with net._lock:
                accepted = [s for s in net._socks if s not in dialed]
            if len(accepted) >= count:
                return accepted
            assert time.monotonic() < deadline, "connection not accepted"
            time.sleep(0.01)

    def test_socket_options_asyncio_used_to_set(self):
        net, _host, _port = self._loopback()
        try:
            assert net._listener.getsockopt(
                socket.SOL_SOCKET, socket.SO_REUSEADDR
            )
            net.send(0, 1, Pong(node_id=0, nonce=1))
            drain(net.endpoint(1), 1)
            dialed = net._peers[1].sock
            (accepted,) = self._accepted(net)
            for sock in (dialed, accepted):
                assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            net.close()

    def test_writers_start_on_first_frame_and_close_joins_every_thread(self):
        def names(prefix):
            return [
                t.name for t in threading.enumerate()
                if t.name.startswith(prefix)
            ]

        net = TcpNetwork()
        try:
            net.attach(0, None)
            host, port = net.listen()
            for node_id in range(1, 13):
                net.attach(node_id, None)
                net.add_peer(node_id, host, port)
            assert names("tcp-writer") == []  # 12 peers, no idle threads
            net.send(0, 5, Pong(node_id=0, nonce=1))
            drain(net.endpoint(5), 1)
            assert names("tcp-writer") == ["tcp-writer[5]"]
            assert names("tcp-reader") == ["tcp-reader"]
            threads = list(net._threads)
            assert len(threads) == 3  # acceptor, one reader, one writer
        finally:
            net.close()
        assert not any(t.is_alive() for t in threads)
        assert names("tcp-") == []

    def test_racing_first_frames_start_one_writer_per_peer(self):
        # More senders than cores, all racing each peer's first frame
        # under a short switch interval: a lost update on the lazy
        # writer start would show as a second writer (reordering) or a
        # frame that never leaves.
        import sys

        senders, peers, each = 8, [1, 2, 3, 4], 40
        net = TcpNetwork(send_queue_capacity=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            host, port = net.listen()
            net.attach(0, None)
            for node_id in peers:
                net.attach(node_id, None)
                net.add_peer(node_id, host, port)
            barrier = threading.Barrier(senders)

            def run(sender):
                barrier.wait(timeout=10.0)
                for seq in range(each):
                    for node_id in peers:
                        net.send(0, node_id, Pong(node_id=sender, nonce=seq))

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(senders)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            writers = Counter(
                t.name for t in net._threads if t.name.startswith("tcp-writer")
            )
            assert writers == {f"tcp-writer[{n}]": 1 for n in peers}
            for node_id in peers:
                got = drain(net.endpoint(node_id), senders * each, timeout=30.0)
                for sender in range(senders):
                    mine = [m.nonce for m in got if m.node_id == sender]
                    assert mine == list(range(each)), (node_id, sender)
        finally:
            sys.setswitchinterval(interval)
            net.close()

    def test_reader_exception_costs_one_connection_and_is_counted(
        self, monkeypatch
    ):
        net, host, port = self._loopback()
        try:
            real = net._receive

            def receive(header, read_body):
                if bytes(header[:4]) == b"BOOM":
                    raise ZeroDivisionError("a bug, not a bad frame")
                return real(header, read_body)

            monkeypatch.setattr(net, "_receive", receive)
            net.send(0, 1, Pong(node_id=0, nonce=1))
            drain(net.endpoint(1), 1)
            with socket.create_connection((host, port)) as sock:
                sock.sendall(b"BOOM" + b"\x00" * 20)
                assert sock.recv(1) == b""  # our connection was closed
            assert net.net.frames_rejected.value(reason="reader") == 1
            net.send(0, 1, Pong(node_id=0, nonce=2))  # the other one lives
            (got,) = drain(net.endpoint(1), 1)
            assert got.nonce == 2
            assert net.net.reconnects.total() == 1
        finally:
            net.close()

    def test_writer_exception_drops_one_frame_and_is_counted(
        self, monkeypatch
    ):
        import repro.net.tcp as tcp

        net, _host, _port = self._loopback()
        try:
            real = tcp._send_parts
            calls = []

            def send_parts(sock, parts):
                calls.append(parts)
                if len(calls) == 2:
                    raise ZeroDivisionError("a bug, not a dead socket")
                return real(sock, parts)

            monkeypatch.setattr(tcp, "_send_parts", send_parts)
            net.send(0, 1, Pong(node_id=0, nonce=1))
            drain(net.endpoint(1), 1)  # 3 rides a new connection: no race
            for nonce in (2, 3):
                net.send(0, 1, Pong(node_id=0, nonce=nonce))
            (got,) = drain(net.endpoint(1), 1)
            assert got.nonce == 3
            assert net.net.frames_dropped.value(node=1) == 1
            assert net.net.reconnects.value(node=1) == 2  # fresh socket
            assert net._peers[1].thread.is_alive()
        finally:
            net.close()

    def test_large_frame_through_minimal_socket_buffers(self):
        # Partial sendmsg on one side, short recv_into on the other:
        # the event loop's buffering used to hide both.
        net = TcpNetwork(metrics=MetricsRegistry())
        try:
            net.attach(0, None)
            net.attach(1, None)
            host, port = net.listen()
            # Accepted sockets inherit the listener's receive buffer.
            net._listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1)
            net.add_peer(1, host, port)
            net.send(0, 1, Pong(node_id=0, nonce=1))
            drain(net.endpoint(1), 1)
            dialed = net._peers[1].sock
            dialed.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1)
            (accepted,) = self._accepted(net)
            assert dialed.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF) < 16384
            assert accepted.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF) < 16384
            payload = bytes(range(251)) * (4 * (1 << 20) // 251 + 1)
            payload = payload[: 4 << 20]
            net.send(0, 1, DataPacket(2, 1, 0, 0, payload, attempt=1))
            net.send(0, 1, Pong(node_id=0, nonce=2))
            got, after = drain(net.endpoint(1), 2, timeout=30.0)
            assert got.payload == payload  # the frame CRC passed, too
            assert after.nonce == 2
            assert net.net.frames_rejected.total() == 0
            assert net.net.reconnects.total() == 1
        finally:
            net.close()

    def test_fuzzed_streams_only_reject_or_drop_the_connection(self):
        # The TCP slice of the wire-fuzz item: whatever bytes a stranger
        # writes to the listener, every reader ends by itself with its
        # rejects counted, and the healthy connection keeps delivering.
        from hypothesis import given, settings, strategies as st

        from repro.net import encode_frame
        from repro.net.wire import HEADER, MAGIC, WIRE_VERSION

        payload = bytes(range(256))
        valid = [
            encode_frame(0, 1, Pong(node_id=0, nonce=77)),
            encode_frame(0, 1, DataPacket(1, 2, 0, 0, payload, epoch=3)),
            encode_frame(0, 9, Ping(nonce=5)),  # no such endpoint here
        ]
        u32 = st.integers(0, 2**32 - 1)
        shaped = st.builds(
            lambda magic, version, code, epoch, meta, pay, crc, body: (
                HEADER.pack(magic, version, code, epoch, meta, pay, crc)
                + body
            ),
            st.sampled_from([MAGIC, MAGIC, b"FPR2"]),
            st.sampled_from([WIRE_VERSION, WIRE_VERSION, 0, 2]),
            st.integers(0, 40),
            u32,
            st.one_of(st.integers(0, 64), st.just((1 << 20) + 1)),
            st.one_of(st.integers(0, 512), st.just((1 << 30) + 1)),
            u32,
            st.binary(max_size=600),
        )
        mutated = st.builds(
            lambda frame, at, byte, cut, tail: (
                frame[: at % len(frame)]
                + bytes([byte])
                + frame[at % len(frame) + 1 :]
            )[: len(frame) - cut] + tail,
            st.sampled_from(valid),
            st.integers(0, 10_000),
            st.integers(0, 255),
            st.sampled_from([0, 0, 1, 30]),
            st.binary(max_size=40),
        )
        stream = st.lists(
            st.one_of(st.binary(max_size=200), shaped, mutated,
                      st.sampled_from(valid)),
            min_size=1, max_size=4,
        ).map(b"".join)

        net, host, port = self._loopback()
        inbox = net.endpoint(1).inbox
        nonces = iter(range(1000, 10**9))

        def healthy_frame_arrives():
            nonce = next(nonces)
            net.send(0, 1, Pong(node_id=0, nonce=nonce))
            deadline = time.monotonic() + 10.0
            while True:  # fuzz input may hold deliverable frames too
                got = inbox.get(timeout=deadline - time.monotonic())
                if isinstance(got, Pong) and got.nonce == nonce:
                    return

        @settings(max_examples=80, deadline=None)
        @given(stream)
        def feed(data):
            with socket.create_connection((host, port)) as sock:
                sock.sendall(data)
            deadline = time.monotonic() + 10.0
            while net.net.connections.value(direction="in") > 1:
                assert time.monotonic() < deadline, "reader did not end"
                time.sleep(0.002)
            assert net.net.frames_rejected.value(reason="reader") == 0
            healthy_frame_arrives()

        try:
            healthy_frame_arrives()  # the healthy connection, dialed once
            feed()
            assert net.net.reconnects.total() == 1
            assert net.net.frames_rejected.total() > 0
        finally:
            net.close()

    def test_undrained_bounded_inbox_blocks_the_sender_losslessly(self):
        # inbox full -> reader stalls -> kernel buffers fill -> writer
        # blocks in sendmsg -> peer queue fills -> the sender blocks.
        net = TcpNetwork(
            metrics=MetricsRegistry(), inbox_capacity=2, send_queue_capacity=4
        )
        total, payload = 256, b"\xa5" * (128 << 10)  # 32 MiB: > any buffer
        sent = []

        def sender():
            for index in range(total):
                net.send(0, 1, DataPacket(0, 0, 0, index, payload))
                sent.append(index)

        thread = threading.Thread(target=sender)
        try:
            net.attach(0, None)
            net.attach(1, None)
            host, port = net.listen()
            net.add_peer(1, host, port)
            thread.start()
            stalled_at, since = -1, time.monotonic()
            while time.monotonic() - since < 0.5:  # no progress for 0.5 s
                if len(sent) != stalled_at:
                    stalled_at, since = len(sent), time.monotonic()
                time.sleep(0.02)
            assert thread.is_alive() and 2 + 4 < stalled_at < total
            assert net.endpoint(1).inbox.qsize() == 2  # the bound held
            assert net._peers[1].queue.full()
            got = drain(net.endpoint(1), total, timeout=30.0)
            thread.join(timeout=10.0)
            assert not thread.is_alive()  # released by the drain
            assert [p.offset for p in got] == list(range(total))
            assert net.net.frames_dropped.total() == 0
            assert net.net.frames_rejected.total() == 0
        finally:
            net.close(drain=False)
            thread.join(timeout=10.0)

    def test_listener_closed_mid_stream_and_reopened(self):
        sender = TcpNetwork(metrics=MetricsRegistry(), connect_timeout=10.0)
        first, second = TcpNetwork(), TcpNetwork()
        try:
            sender.attach(0, None)
            first.attach(1, None)
            second.attach(1, None)
            host, port = first.listen()
            sender.add_peer(1, host, port)
            for nonce in range(20):
                sender.send(0, 1, Pong(node_id=0, nonce=nonce))
            got = drain(first.endpoint(1), 20)
            assert [m.nonce for m in got] == list(range(20))
            first.close()
            # A write into the dead connection may be lost without an
            # error (TCP reports the reset on a later write): keep
            # sending, as the runtime's retries do, across the reopen.
            for nonce in range(20, 30):
                sender.send(0, 1, Pong(node_id=0, nonce=nonce))
                time.sleep(0.02)
            second.listen(host, port)  # SO_REUSEADDR: no TIME_WAIT wait
            for nonce in range(30, 60):
                sender.send(0, 1, Pong(node_id=0, nonce=nonce))
                time.sleep(0.01)
            sender.close(drain=True)
            inbox, after = second.endpoint(1).inbox, []
            deadline = time.monotonic() + 10.0
            while not after or after[-1] != 59:
                after.append(inbox.get(timeout=deadline - time.monotonic()).nonce)
            assert sender.net.reconnects.value(node=1) >= 2
            # Whatever the dead connection swallowed, the new one
            # carries no frame twice and none out of order.
            assert after == sorted(set(after))
            assert set(range(30, 60)) <= set(after)
            assert first.endpoint(1).inbox.empty()
        finally:
            sender.close()
            first.close()
            second.close()


@pytest.mark.skipif(not shm_available(), reason="needs POSIX shm + flock")
class TestShmOnly:
    """Ring-path behaviors with no in-memory or socket analogue."""

    def test_ring_wraparound_preserves_frames(self):
        from repro.net import ShmRing

        ring = ShmRing("fpr-test-wrap", capacity=1 << 12, create=True)
        try:
            sent = []
            for i in range(64):  # far more bytes than one ring fill
                frame = bytes([i]) * (200 + i)
                sent.append(frame)
                assert ring.write([frame], timeout=1.0)
                for got in ring.read_frames():
                    assert got == sent.pop(0)
            assert not sent
        finally:
            ring.close()

    def test_oversized_frame_raises(self):
        from repro.net import ShmRing

        ring = ShmRing("fpr-test-big", capacity=1 << 10, create=True)
        try:
            with pytest.raises(ValueError, match="ring capacity"):
                ring.write([b"x" * (1 << 11)], timeout=0.1)
        finally:
            ring.close()

    def test_full_ring_blocks_then_drops_after_timeout(self):
        from repro.net import ShmRing

        net = ShmNetwork(connect_timeout=0.2)
        sink = ShmRing("fpr-test-full", capacity=1 << 12, create=True)
        try:
            net.attach(0, None)
            # A peer whose ring is never drained: sends fill it, block
            # for connect_timeout, then count as dropped.
            net.add_peer(2, "fpr-test-full")
            for i in range(64):  # far more bytes than the sink holds
                net.send(0, 2, Pong(node_id=0, nonce=i))
                if net.net.frames_dropped.total() > 0:
                    break
            assert net.net.frames_dropped.total() > 0
        finally:
            sink.close()
            net.close()

    def test_corrupt_frame_skipped_stream_survives(self):
        net = ShmNetwork()
        try:
            net.attach(0, None)
            net.attach(1, None)
            name = net.listen()
            net.add_peer(1, name)
            from repro.net import ShmRing

            writer = ShmRing(name)
            try:
                writer.write([b"\x00" * 40], timeout=1.0)  # bad magic
            finally:
                writer.close()
            net.send(0, 1, Pong(node_id=0, nonce=9))
            (got,) = drain(net.endpoint(1), 1)
            assert got.nonce == 9
            assert net.net.frames_rejected.total() == 1
        finally:
            net.close()


    def test_garbage_length_prefix_resyncs_ring(self):
        # The u32 length prefix lives in memory every peer can write.
        # One that cannot be true must not drag ``tail`` past ``head``
        # (the reader would never see another frame): the ring skips
        # to ``head``, counts it, and keeps reading.
        import struct

        net = ShmNetwork(metrics=MetricsRegistry())
        try:
            net.attach(0, None)
            net.attach(1, None)
            name = net.listen()
            net.add_peer(1, name)
            from repro.net import ShmRing

            rogue = ShmRing(name)
            try:
                head = rogue._head()
                rogue._set_head(
                    rogue._put(head, struct.pack("<I", 0xFFFFFFF0))
                )
            finally:
                rogue.close()
            deadline = time.monotonic() + 5.0
            while net.net.frames_rejected.value(reason="ring") == 0:
                assert time.monotonic() < deadline, "resync not counted"
                time.sleep(0.01)
            net.send(0, 1, Pong(node_id=0, nonce=11))
            (got,) = drain(net.endpoint(1), 1)
            assert got.nonce == 11
            assert net._reader.is_alive()
            assert net.net.frames_rejected.value(reason="ring") == 1
        finally:
            net.close()


class TestSharedCore:
    def test_backends_do_not_fork_the_core(self):
        # One send sequence, one topology surface: if a backend grows
        # its own copy again, this is where it shows.
        assert TcpNetwork.send is ShmNetwork.send is FramedNetwork.send
        for name in ("attach", "detach", "endpoint", "scale_bandwidth"):
            assert name not in vars(TcpNetwork), name
            assert name not in vars(ShmNetwork), name


class TestKillResume:
    @pytest.mark.parametrize("backend", WIRE_BACKENDS, indirect=True)
    def test_coordinator_crash_and_recovery(self, backend, tmp_path):
        cluster = StorageCluster.random(
            num_nodes=8,
            num_stripes=10,
            n=5,
            k=3,
            num_hot_standby=0,
            seed=5,
            chunk_size=1 << 14,
        )
        cluster.node(0).mark_soon_to_fail()
        net = backend.make(metrics=MetricsRegistry())
        backend.wire(net, list(cluster.nodes) + [COORDINATOR_ID])
        testbed = EmulatedTestbed(
            cluster,
            make_codec("rs(5,3)"),
            packet_size=1 << 12,
            workdir=tmp_path / "bed",
            config=FAST,
            journal_path=tmp_path / "repair.journal",
            network=net,
        )
        try:
            testbed.start()
            testbed.load_random_data(seed=5)
            plan = FastPRPlanner(seed=5).plan(cluster, 0)
            plan.validate(cluster)
            testbed.kill_coordinator_after(3)
            with pytest.raises(CoordinatorCrash):
                testbed.execute(plan)
            successor = testbed.restart_coordinator()
            assert successor.epoch == 1
            result = testbed.resume()
            assert result.chunks_repaired + result.recovered_chunks == (
                plan.total_chunks
            )
            testbed.verify_plan(plan, result)
            assert Scrubber(testbed).scan().clean
            # The repair's frames really crossed the backend's pipe.
            assert net.net.frames_received.total() > 0
        finally:
            testbed.shutdown()


# ----------------------------------------------------------------------
# the one repair driver, over every backend
# ----------------------------------------------------------------------


def drive(backend_kind, workdir, pipelining="off", faults=None):
    """One ``run_repair`` over a loopback-wired backend, agents in-process.

    Returns ``(plan, result, verified, restarts, successor epoch,
    journal records)``; the journal is the driver's default one.
    """
    backend = Backend(backend_kind)
    cluster = StorageCluster.random(
        num_nodes=8, num_stripes=10, n=5, k=3, num_hot_standby=0, seed=5,
        chunk_size=1 << 14,
    )
    cluster.node(0).mark_soon_to_fail()
    net = backend.make(metrics=MetricsRegistry())
    backend.wire(net, list(cluster.nodes) + [COORDINATOR_ID])
    slices = 4 if pipelining == "chain" else 0
    testbed = EmulatedTestbed(
        cluster,
        make_codec("rs(5,3)"),
        packet_size=1 << 12,
        workdir=workdir / "bed",
        config=dataclasses.replace(FAST, pipeline_slices=slices),
        journal_path=workdir / "repair.journal" if faults is None else None,
        faults=faults,
        network=net,
    )
    try:
        with testbed:
            testbed.load_random_data(seed=5)
            plan = apply_pipelining(FastPRPlanner(seed=5).plan(cluster, 0), pipelining)
            result, verified, restarts = run_repair(testbed, plan)
            return (
                plan,
                result,
                verified,
                restarts,
                testbed.coordinator.epoch,
                RepairJournal.replay(testbed.journal_path),
            )
    finally:
        backend.close()


BACKENDS = ["memory", *WIRE_BACKENDS]


class TestOneDriver:
    def test_driver_is_not_forked(self):
        # One construction site each for a run's coordinators and one
        # mismatch scan: a second driver shows up here first.
        src = Path(repro.__file__).parent
        sites = {"MultiCoordinator(": [], "Coordinator.recover(": [],
                 "ChunkMismatch(": []}
        for path in src.rglob("*.py"):
            if path.name == "multicoord.py":
                continue
            text = path.read_text()
            for needle, found in sites.items():
                found.extend([path.name] * text.count(needle))
        assert sites == {needle: ["driver.py"] for needle in sites}
        assert not hasattr(RepairSession, "_run_memory")
        assert not hasattr(RepairSession, "_run_wire")
        assert not any(
            "repro.net" in line or "..net" in line
            for path in (src / "runtime").glob("*.py")
            for line in path.read_text().splitlines()
            if line.lstrip().startswith(("from ", "import "))
        )

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_injected_coordinator_crash_recovers_in_place(self, kind, tmp_path):
        faults = FaultPlan(
            coordinator_crashes=[CoordinatorCrashFault(after_records=3)]
        )
        plan, result, verified, restarts, epoch, records = drive(
            kind, tmp_path, faults=faults
        )
        assert restarts == 1
        assert epoch == 1  # the successor; agents fenced epoch 0
        assert result.chunks_repaired + result.recovered_chunks == (
            plan.total_chunks
        )
        assert verified == plan.total_chunks
        # The crash plan alone turned journaling on, at the default path.
        assert sorted({r.epoch for r in records}) == [0, 1]

    @pytest.mark.parametrize("pipelining", ["off", "chain"])
    def test_every_backend_runs_the_same_repair(self, pipelining, tmp_path):
        runs = {}
        for kind in ["memory", "tcp"] + ["shm"] * shm_available():
            plan, result, verified, restarts, _epoch, records = drive(
                kind, tmp_path / kind, pipelining
            )
            kinds = [type(r).__name__ for r in records]
            # ACK arrival order inside a round is timing, not protocol:
            # compare the round skeleton in order plus per-kind totals.
            inner = ("ActionCompleted", "SliceCompleted")
            runs[kind] = (
                sorted((a.stripe_id, a.chunk_index) for a in result.executed_actions),
                [k for k in kinds if k not in inner],
                Counter(kinds),
                verified,
                restarts,
            )
        assert runs["memory"][3] == plan.total_chunks
        if pipelining == "chain":
            chained = sum(1 for a in plan.actions() if a.pipelined)
            assert runs["memory"][2]["SliceCompleted"] == 4 * chained > 0
        for kind, run in runs.items():
            assert run == runs["memory"], kind
