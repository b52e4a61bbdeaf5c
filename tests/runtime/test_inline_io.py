"""Helper threads only where they overlap something.

A stream's read-ahead thread overlaps reading packet i+1 with sending
packet i, and an assembly's staging writer overlaps writing one region
with decoding the next.  A one-packet action has nothing to overlap:
its source reads the chunk on the stream's own thread and its
destination writes the chunk on the decode thread.  A multi-packet
action keeps both helpers, and a failed inline read or write is NACKed
like any other.
"""

import threading
import zlib

import numpy as np
import pytest

from repro.cluster import StorageCluster
from repro.core import FastPRPlanner, RepairScenario
from repro.ec import make_codec
from repro.ec.galois import gf_addmul_bytes
from repro.runtime import RuntimeConfig
from repro.runtime.agent import Agent
from repro.runtime.datanode import ChunkReader, ChunkWriter
from repro.runtime.messages import (
    ACK_FAILED,
    DataPacket,
    ReceiveCommand,
    RepairAck,
    SendCommand,
)
from repro.runtime.testbed import EmulatedTestbed
from repro.runtime.transport import Network

from .test_stream_costs import COORD, _await_ack, _chunk, _store
from .test_stream_costs import cluster  # noqa: F401 - a fixture

PACKET = 4096


@pytest.fixture
def started(monkeypatch):
    """Names of the threads started from here on, in start order."""
    names = []
    real_start = threading.Thread.start

    def recording_start(thread):
        names.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return names


def _helpers(names):
    reads = sum(name.endswith("-read") for name in names)
    staging = sum(name.startswith("agent-staging-") for name in names)
    return reads, staging


@pytest.mark.parametrize("num_packets", [1, 4])
class TestHelperThreads:
    def test_star_reconstruction(self, cluster, started, num_packets):
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
            net.send(COORD, node_id, SendCommand(5, 2, 4, PACKET, size))
        assert _await_ack(coord) == RepairAck(5, 2, 4)
        assert agents[4].store.read(5) == expected.tobytes()
        if num_packets == 1:
            assert _helpers(started) == (0, 0)
        else:  # one read-ahead per source, one writer behind the decode
            assert _helpers(started) == (len(coeffs), 1)

    def test_migration(self, cluster, started, num_packets):
        net, coord, agents = cluster
        chunk = _chunk(6, num_packets * PACKET)
        agents[0].store.put(5, chunk)
        net.send(
            COORD, 4, ReceiveCommand(5, 2, len(chunk), PACKET, sources={0: 1})
        )
        net.send(COORD, 0, SendCommand(5, 2, 4, PACKET, len(chunk)))
        assert _await_ack(coord) == RepairAck(5, 2, 4)
        assert agents[4].store.read(5) == chunk
        expected = (0, 0) if num_packets == 1 else (1, 1)
        assert _helpers(started) == expected


class TestInlineFailuresAreNacked:
    def test_failed_write_nacks_and_leaves_no_staging_file(
        self, tmp_path, monkeypatch
    ):
        def failing_write(self, offset, data):
            raise OSError("disk full")

        monkeypatch.setattr(ChunkWriter, "write", failing_write)
        net = Network()
        coord = net.attach(COORD, None)
        net.attach(0, None)
        net.attach(1, None)
        store = _store(tmp_path, 1)
        agent = Agent(1, store, net, COORD)
        agent.start()
        try:
            chunk = _chunk(7, PACKET)
            net.send(
                COORD, 1, ReceiveCommand(5, 2, PACKET, PACKET, sources={0: 1})
            )
            net.send(
                0,
                1,
                DataPacket(5, 2, 0, 0, chunk, checksum=zlib.crc32(chunk)),
            )
            ack = _await_ack(coord)
        finally:
            agent.stop()
        assert ack.status == ACK_FAILED
        assert (ack.key, ack.node_id) == ((5, 2), 1)
        assert "disk full" in ack.detail
        assert not store.has(5)
        assert list(store.root.glob("*.part*")) == []
        assert not agent.errors

    def test_failed_read_nacks(self, tmp_path, monkeypatch):
        def failing_read(self, offset, out):
            raise OSError("bad sector")

        monkeypatch.setattr(ChunkReader, "read_into", failing_read)
        net = Network()
        coord = net.attach(COORD, None)
        destination = net.attach(4, None)
        net.attach(0, None)
        store = _store(tmp_path, 0)
        store.put(5, _chunk(8, PACKET))
        agent = Agent(0, store, net, COORD)
        agent.start()
        try:
            net.send(COORD, 0, SendCommand(5, 2, 4, PACKET, PACKET))
            ack = _await_ack(coord)
        finally:
            agent.stop()
        assert ack.status == ACK_FAILED
        assert (ack.key, ack.node_id) == ((5, 2), 0)
        assert "bad sector" in ack.detail
        assert destination.inbox.empty()
        assert not agent.errors


def test_one_packet_drain_starts_one_thread_per_assembly(tmp_path, started):
    """The drain-cpu-mem rig's shape (20 nodes, 27 RS(9,6) stripes, the
    FastPR scattered plan for the most-loaded node) at 64 KiB chunks,
    one packet a chunk: the agents start the decode thread of each
    assembly and nothing else."""
    chunk = 64 * 1024
    storage = StorageCluster.random(
        20, 27, 9, 6, seed=7,
        disk_bandwidth=100e9, network_bandwidth=125e9, chunk_size=chunk,
    )
    stf = max(
        storage.storage_node_ids(),
        key=lambda node: (storage.load_of(node), -node),
    )
    storage.node(stf).mark_soon_to_fail()
    bed = EmulatedTestbed(
        storage,
        make_codec("rs(9,6)"),
        workdir=tmp_path / "bed",
        config=RuntimeConfig(journal_fsync="never"),
    )
    bed.start()
    try:
        bed.load_random_data(seed=7)
        plan = FastPRPlanner(
            scenario=RepairScenario.SCATTERED, seed=7
        ).plan(storage, stf)
        del started[:]
        result = bed.execute(plan, packet_size=chunk)
        agent_threads = [name for name in started if name.startswith("agent-")]
        bed.verify_plan(plan, result)
    finally:
        bed.shutdown()
    assemblies = list(plan.actions())
    streams = sum(len(action.sources) for action in assemblies)
    assert len(assemblies) == 16 and streams == 66
    assert len(agent_threads) == len(assemblies)
    assert all("-decode-" in name for name in agent_threads)
