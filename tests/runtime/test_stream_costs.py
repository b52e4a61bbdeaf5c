"""Per-chunk, not per-packet, fixed costs on the repair data path.

A chunk stream opens its source chunk and its staging file once, no
matter how many packets it is cut into; every assembly stages into a
file of its own, so a superseded assembly standing down late cannot
damage its retry; and an abort takes effect at the next packet, not
behind the backlog.
"""

import os
import threading
import time
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.ec.galois import gf_addmul_bytes
from repro.obs.metrics import MetricsRegistry
from repro.runtime import datanode
from repro.runtime.agent import Agent, _Assembly, _Relay
from repro.runtime.datanode import ChunkStore
from repro.runtime.messages import (
    DataPacket,
    ReceiveCommand,
    RelayCommand,
    RepairAck,
    SendCommand,
)
from repro.runtime.throttle import RateLimiter
from repro.runtime.transport import Network

COORD = -1
PACKET = 1024


def _chunk(seed: int, size: int) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def _packets(chunk: bytes, source: int, attempt: int, packet: int = PACKET):
    """``chunk`` as the DataPackets of stripe 5, chunk index 2."""
    return [
        DataPacket(
            5,
            2,
            source,
            offset,
            chunk[offset : offset + packet],
            attempt=attempt,
            checksum=zlib.crc32(chunk[offset : offset + packet]),
        )
        for offset in range(0, len(chunk), packet)
    ]


def _store(tmp_path, node_id=1) -> ChunkStore:
    return ChunkStore(tmp_path / f"n{node_id}", node_id, RateLimiter(None))


def _staging_files(store: ChunkStore):
    return sorted(p.name for p in store.root.glob("*.part*"))


def _wait(predicate, what: str, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.002)


# ----------------------------------------------------------------------
# a superseded assembly cannot discard its retry's staged packets
# ----------------------------------------------------------------------


class TestStaleDiscard:
    def test_superseded_assembly_leaves_the_retry_alone(self, tmp_path):
        """The silent-corruption recipe: A (attempt 0) stands down
        *after* its retry B has staged offset 0."""
        store = _store(tmp_path)
        chunk = _chunk(1, 8 * PACKET)
        first = ReceiveCommand(5, 2, len(chunk), PACKET, sources={0: 1})
        retry = ReceiveCommand(
            5, 2, len(chunk), PACKET, sources={0: 1}, attempt=1
        )
        a, b = _Assembly(first, store), _Assembly(retry, store)
        threads = [
            threading.Thread(target=assembly.run, daemon=True)
            for assembly in (a, b)
        ]
        for thread in threads:
            thread.start()
        a.packets.put(_packets(chunk, 0, attempt=0)[0])
        feed = _packets(chunk, 0, attempt=1)
        b.packets.put(feed[0])
        _wait(lambda: b.staging_seconds > 0, "B to stage offset 0")
        a.abort()
        threads[0].join(timeout=10.0)
        assert not threads[0].is_alive()
        for packet in feed[1:]:
            b.packets.put(packet)
        threads[1].join(timeout=10.0)
        assert not threads[1].is_alive()
        b.staged.promote()
        assert store.read(5) == chunk
        assert store.promotions == {5: 1}
        assert _staging_files(store) == []

    def test_retry_behind_a_backlogged_assembly(self, tmp_path):
        """Agent level: attempt 0 is superseded while it still has a
        backlog queued; the retry's chunk must come out whole."""
        net = Network()
        coord = net.attach(COORD, None)
        for node_id in (0, 1, 2):
            net.attach(node_id, None)
        store = _store(tmp_path)
        agent = Agent(1, store, net, COORD)
        earlier_threads = set(threading.enumerate())
        agent.start()
        try:
            packet = 256 * 1024
            size = 4 * packet
            mine, other = _chunk(2, size), _chunk(3, size)
            sources = {0: 1, 2: 1}
            net.send(COORD, 1, ReceiveCommand(5, 2, size, packet, sources))
            # Attempt 0 hears from one source only, many times over: a
            # backlog (one CRC pass each) that it can never complete.
            backlog = _packets(mine, 0, attempt=0, packet=packet)
            for _ in range(100):
                for stale in backlog:
                    net.send(0, 1, stale)
            net.send(
                COORD,
                1,
                ReceiveCommand(5, 2, size, packet, sources, attempt=1),
            )
            retry_mine = _packets(mine, 0, attempt=1, packet=packet)
            retry_other = _packets(other, 2, attempt=1, packet=packet)
            net.send(0, 1, retry_mine[0])
            net.send(2, 1, retry_other[0])

            def staged_offset_0() -> bool:
                for path in store.root.glob("*.part*"):
                    try:
                        if path.read_bytes()[:packet] != bytes(packet):
                            return True
                    except FileNotFoundError:
                        pass
                return False

            def decoders() -> int:
                return sum(
                    "-decode-" in t.name
                    for t in set(threading.enumerate()) - earlier_threads
                )

            _wait(staged_offset_0, "the retry to stage offset 0")
            _wait(lambda: decoders() == 1, "attempt 0 to stand down")
            for rest in retry_mine[1:] + retry_other[1:]:
                net.send(rest.source, 1, rest)
            ack = coord.inbox.get(timeout=10.0)
            while not isinstance(ack, RepairAck):
                ack = coord.inbox.get(timeout=10.0)
            assert ack == RepairAck(5, 2, 1, attempt=1)
            expected = np.frombuffer(mine, dtype=np.uint8).copy()
            gf_addmul_bytes(expected, 1, np.frombuffer(other, dtype=np.uint8))
            assert store.read(5) == expected.tobytes()
            assert store.promotions == {5: 1}
            assert _staging_files(store) == []
            assert not agent.errors
        finally:
            agent.stop()

    def test_agent_sweeps_orphaned_staging_files(self, tmp_path):
        store = _store(tmp_path)
        store.put(3, b"kept")
        store.write_packet(4, 0, b"dead", 4, staged=True)
        store.open_staged(4, 4, tag="e0a7").close()
        assert len(_staging_files(store)) == 2
        net = Network()
        net.attach(COORD, None)
        net.attach(1, None)
        Agent(1, store, net, COORD)
        assert _staging_files(store) == []
        assert store.read(3) == b"kept"


# ----------------------------------------------------------------------
# abort takes effect at the next packet
# ----------------------------------------------------------------------


class TestAbortAheadOfBacklog:
    def test_assembly_abort_skips_the_backlog(self, tmp_path):
        store = _store(tmp_path)
        chunk = _chunk(4, 32 * PACKET)
        command = ReceiveCommand(5, 2, len(chunk), PACKET, sources={0: 1})
        assembly = _Assembly(command, store)
        for packet in _packets(chunk, 0, attempt=0)[:-1]:
            assembly.packets.put(packet)
        assembly.abort()
        assert assembly.run() is False
        assert assembly.bytes_received == 0
        assert _staging_files(store) == []

    def test_relay_abort_skips_the_backlog(self, tmp_path):
        store = _store(tmp_path)
        chunk = _chunk(5, 32 * PACKET)
        store.put(5, chunk)
        sent = []
        agent = SimpleNamespace(
            node_id=1,
            ack_timeout=5.0,
            network=SimpleNamespace(send=lambda *args: sent.append(args)),
            _bytes_sent=MetricsRegistry().counter("agent_bytes_sent_total"),
        )
        command = RelayCommand(
            5, 2, destination=3, packet_size=PACKET, chunk_size=len(chunk),
            coeff=7, first=False, upstream=0,
        )
        relay = _Relay(command, store, agent)
        for packet in _packets(chunk, 0, attempt=0):
            relay.packets.put(packet)
        relay.abort()
        relay.run()
        assert sent == []


# ----------------------------------------------------------------------
# one open per stream, whatever the packet count
# ----------------------------------------------------------------------


@pytest.fixture
def opens(monkeypatch):
    """Count ``os.open`` calls on chunk and staging files, by file name."""
    counts = {}
    real_open = os.open

    def counting_open(path, *args, **kwargs):
        name = os.path.basename(os.fspath(path))
        if name.startswith("stripe_"):
            counts[name] = counts.get(name, 0) + 1
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(datanode.os, "open", counting_open)
    return counts


@pytest.fixture
def cluster(tmp_path):
    """Five agents (0-3 hold chunks, 4 repairs) plus a coordinator."""
    net = Network()
    coord = net.attach(COORD, None)
    agents = {}
    for node_id in range(5):
        net.attach(node_id, None)
        agents[node_id] = Agent(node_id, _store(tmp_path, node_id), net, COORD)
        agents[node_id].start()
    yield net, coord, agents
    for agent in agents.values():
        agent.stop()


def _await_ack(coord) -> RepairAck:
    while True:
        message = coord.inbox.get(timeout=10.0)
        if isinstance(message, RepairAck):
            return message


@pytest.mark.parametrize("num_packets", [16, 64])
class TestOneOpenPerStream:
    def test_migration(self, cluster, opens, num_packets):
        net, coord, agents = cluster
        chunk = _chunk(6, num_packets * PACKET)
        agents[0].store.put(5, chunk)
        net.send(
            COORD, 4, ReceiveCommand(5, 2, len(chunk), PACKET, sources={0: 1})
        )
        net.send(COORD, 0, SendCommand(5, 2, 4, PACKET))
        _await_ack(coord)
        assert agents[4].store.read(5) == chunk
        assert opens == {"stripe_5.chunk": 1, "stripe_5.chunk.part.e0a0": 1}

    def test_star_reconstruction(self, cluster, opens, num_packets):
        net, coord, agents = cluster
        size = num_packets * PACKET
        coeffs = {0: 3, 1: 7, 2: 11}
        expected = np.zeros(size, dtype=np.uint8)
        for node_id, coeff in coeffs.items():
            chunk = _chunk(10 + node_id, size)
            agents[node_id].store.put(5, chunk)
            gf_addmul_bytes(
                expected, coeff, np.frombuffer(chunk, dtype=np.uint8)
            )
        net.send(COORD, 4, ReceiveCommand(5, 2, size, PACKET, sources=coeffs))
        for node_id in coeffs:
            net.send(COORD, node_id, SendCommand(5, 2, 4, PACKET))
        _await_ack(coord)
        assert agents[4].store.read(5) == expected.tobytes()
        # Three source chunks share a file name across their stores.
        assert opens == {"stripe_5.chunk": 3, "stripe_5.chunk.part.e0a0": 1}

    def test_chained_relay(self, cluster, opens, num_packets):
        net, coord, agents = cluster
        size = num_packets * PACKET
        coeffs = {0: 3, 1: 7, 2: 11}
        expected = np.zeros(size, dtype=np.uint8)
        for node_id, coeff in coeffs.items():
            chunk = _chunk(20 + node_id, size)
            agents[node_id].store.put(5, chunk)
            gf_addmul_bytes(
                expected, coeff, np.frombuffer(chunk, dtype=np.uint8)
            )
        # Downstream first, as the coordinator registers a chain.
        net.send(COORD, 4, ReceiveCommand(5, 2, size, PACKET, sources={2: 1}))
        for node_id, downstream in ((2, 4), (1, 2), (0, 1)):
            net.send(
                COORD,
                node_id,
                RelayCommand(
                    5, 2, destination=downstream, packet_size=PACKET,
                    chunk_size=size, coeff=coeffs[node_id],
                    first=node_id == 0, upstream=node_id - 1,
                ),
            )
        _await_ack(coord)
        assert agents[4].store.read(5) == expected.tobytes()
        assert opens == {"stripe_5.chunk": 3, "stripe_5.chunk.part.e0a0": 1}
