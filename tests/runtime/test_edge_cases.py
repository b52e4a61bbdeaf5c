"""Failure-injection and boundary tests for the runtime."""

import queue
import time

import pytest

from repro.runtime.agent import Agent, AgentError
from repro.runtime.datanode import ChunkStore
from repro.runtime.messages import (
    DataPacket,
    ReceiveCommand,
    RepairAck,
    SendCommand,
    WriteComplete,
)
from repro.runtime.throttle import RateLimiter
from repro.runtime.transport import Network

COORD = -1


def build_rig(tmp_path, node_ids=(0, 1), ack_timeout=120.0):
    net = Network()
    coord = net.attach(COORD, None)
    agents = {}
    for node_id in node_ids:
        net.attach(node_id, None)
        store = ChunkStore(tmp_path / f"n{node_id}", node_id, RateLimiter(None))
        agents[node_id] = Agent(
            node_id, store, net, COORD, ack_timeout=ack_timeout
        )
        agents[node_id].start()
    return net, coord, agents


def stop_all(agents):
    for agent in agents.values():
        agent.stop()


def transfer(net, src, dst, stripe, payload, packet_size):
    net.send(
        COORD,
        dst,
        ReceiveCommand(stripe, 0, len(payload), packet_size, sources={src: 1}),
    )
    net.send(
        COORD, src, SendCommand(stripe, 0, dst, packet_size, len(payload))
    )


class TestBoundaries:
    def test_packet_larger_than_chunk(self, tmp_path):
        net, coord, agents = build_rig(tmp_path)
        try:
            payload = b"q" * 100
            agents[0].store.put(5, payload)
            transfer(net, 0, 1, 5, payload, packet_size=10_000)
            assert coord.inbox.get(timeout=10) == RepairAck(5, 0, 1)
            assert agents[1].store.read(5) == payload
        finally:
            stop_all(agents)

    def test_chunk_not_divisible_by_packet(self, tmp_path):
        net, coord, agents = build_rig(tmp_path)
        try:
            payload = bytes(range(256)) * 3 + b"xy"  # 770 bytes
            agents[0].store.put(6, payload)
            transfer(net, 0, 1, 6, payload, packet_size=256)
            coord.inbox.get(timeout=10)
            assert agents[1].store.read(6) == payload
        finally:
            stop_all(agents)

    def test_single_byte_chunk(self, tmp_path):
        net, coord, agents = build_rig(tmp_path)
        try:
            agents[0].store.put(7, b"Z")
            transfer(net, 0, 1, 7, b"Z", packet_size=64)
            coord.inbox.get(timeout=10)
            assert agents[1].store.read(7) == b"Z"
        finally:
            stop_all(agents)

    def test_concurrent_assemblies_one_destination(self, tmp_path):
        net, coord, agents = build_rig(tmp_path, node_ids=(0, 1, 2))
        try:
            a = b"a" * 2048
            b = b"b" * 2048
            agents[0].store.put(1, a)
            agents[2].store.put(2, b)
            net.send(COORD, 1, ReceiveCommand(1, 0, 2048, 512, sources={0: 1}))
            net.send(COORD, 1, ReceiveCommand(2, 0, 2048, 512, sources={2: 1}))
            net.send(COORD, 0, SendCommand(1, 0, 1, 512, 2048))
            net.send(COORD, 2, SendCommand(2, 0, 1, 512, 2048))
            keys = {coord.inbox.get(timeout=10).key for _ in range(2)}
            assert keys == {(1, 0), (2, 0)}
            assert agents[1].store.read(1) == a
            assert agents[1].store.read(2) == b
        finally:
            stop_all(agents)


class TestFailureInjection:
    def test_sender_times_out_without_receiver(self, tmp_path):
        # The destination never got a ReceiveCommand: its dispatcher
        # buffers the stray packets, and the sender's synchronous round
        # trip times out and NACKs the coordinator.
        net, coord, agents = build_rig(tmp_path, ack_timeout=0.5)
        try:
            agents[0].store.put(9, b"x" * 128)
            net.send(COORD, 0, SendCommand(9, 0, 1, 64, 128))
            ack = coord.inbox.get(timeout=10)
            assert isinstance(ack, RepairAck)
            assert not ack.ok
            assert ack.key == (9, 0)
            assert "WriteComplete" in ack.detail
            # Neither agent recorded a local error: the failure was
            # reported where it can be acted on.
            assert not agents[0].errors
            assert not agents[1].errors
        finally:
            stop_all(agents)

    def test_duplicate_receive_command_nacked(self, tmp_path):
        net, coord, agents = build_rig(tmp_path)
        try:
            cmd = ReceiveCommand(3, 0, 128, 64, sources={0: 1})
            net.send(COORD, 1, cmd)
            net.send(COORD, 1, cmd)
            ack = coord.inbox.get(timeout=10)
            assert not ack.ok
            assert ack.key == (3, 0)
            assert "duplicate" in ack.detail
            assert not agents[1].errors
        finally:
            stop_all(agents)

    def test_next_run_of_a_key_after_write_complete_is_no_duplicate(
        self, tmp_path
    ):
        """A fresh coordinator reissues a finished key at the same
        (epoch, attempt).  The source's stream ended with its
        WriteComplete, even if its worker has not yet run to clean up:
        the new SendCommand must register, not be NACKed as a duplicate.
        """
        net = Network()
        net.attach(COORD, None)
        net.attach(0, None)
        store = ChunkStore(tmp_path / "n0", 0, RateLimiter(None))
        store.put(6, b"s" * 128)
        agent = Agent(0, store, net, COORD)  # no worker threads run
        send = SendCommand(6, 0, 1, 64, 128)
        agent._dispatch_one(send)
        agent._dispatch_one(WriteComplete(6, 0))
        agent._dispatch_one(send)
        assert agent._inflight[(6, 0)].command == send
        with pytest.raises(AgentError, match="duplicate"):
            agent._dispatch_one(send)  # a true duplicate still is one

    def test_send_of_missing_chunk_nacked(self, tmp_path):
        net, coord, agents = build_rig(tmp_path)
        try:
            net.send(COORD, 1, ReceiveCommand(4, 0, 128, 64, sources={0: 1}))
            net.send(COORD, 0, SendCommand(4, 0, 1, 64, 128))
            ack = coord.inbox.get(timeout=10)
            assert not ack.ok
            assert ack.key == (4, 0)
            assert ack.node_id == 0
            assert not agents[0].errors
        finally:
            stop_all(agents)

    def test_dispatcher_survives_bad_message(self, tmp_path):
        net, coord, agents = build_rig(tmp_path)
        try:
            net.endpoint(1).inbox.put(object())  # garbage
            payload = b"ok" * 64
            agents[0].store.put(8, payload)
            transfer(net, 0, 1, 8, payload, packet_size=32)
            assert coord.inbox.get(timeout=10).key == (8, 0)
            assert any("unknown message" in str(e) for e in agents[1].errors)
        finally:
            stop_all(agents)
