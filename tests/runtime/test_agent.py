"""Tests for the repair agent's protocol handling."""

import queue
import time

import numpy as np
import pytest

from repro.ec.galois import KERNEL, gf_mul
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


@pytest.fixture
def rig(tmp_path):
    """Two agents (0 sender, 1 receiver) plus a coordinator endpoint."""
    net = Network()
    coord = net.attach(COORD, None)
    agents = {}
    for node_id in (0, 1):
        net.attach(node_id, None)
        store = ChunkStore(tmp_path / f"n{node_id}", node_id, RateLimiter(None))
        agents[node_id] = Agent(node_id, store, net, COORD)
        agents[node_id].start()
    yield net, coord, agents
    for agent in agents.values():
        agent.stop()


def wait_ack(coord, timeout=10.0):
    return coord.inbox.get(timeout=timeout)


def test_agent_metrics_say_which_gf_kernel_runs(rig):
    _, _, agents = rig
    gauge = agents[1].metrics.get("ec_kernel_info")
    assert gauge.samples() == [{"labels": {"backend": KERNEL}, "value": 1.0}]


class TestMigrationPath:
    def test_chunk_moves_and_acks(self, rig):
        net, coord, agents = rig
        payload = bytes(range(256)) * 16  # 4096 bytes
        agents[0].store.put(7, payload)
        net.send(
            COORD,
            1,
            ReceiveCommand(
                stripe_id=7,
                chunk_index=2,
                chunk_size=len(payload),
                packet_size=1024,
                sources={0: 1},
            ),
        )
        net.send(
            COORD,
            0,
            SendCommand(
                stripe_id=7,
                chunk_index=2,
                destination=1,
                packet_size=1024,
                chunk_size=len(payload),
            ),
        )
        ack = wait_ack(coord)
        assert ack == RepairAck(7, 2, 1)
        assert agents[1].store.read(7) == payload
        assert not agents[0].errors and not agents[1].errors

    def test_single_packet_no_pipelining(self, rig):
        net, coord, agents = rig
        payload = b"z" * 512
        agents[0].store.put(3, payload)
        net.send(
            COORD,
            1,
            ReceiveCommand(3, 0, len(payload), len(payload), sources={0: 1}),
        )
        net.send(COORD, 0, SendCommand(3, 0, 1, len(payload), len(payload)))
        wait_ack(coord)
        assert agents[1].store.read(3) == payload


class TestReconstructionPath:
    def test_coefficients_applied(self, tmp_path):
        net = Network()
        coord = net.attach(COORD, None)
        agents = {}
        for node_id in (0, 1, 2):
            net.attach(node_id, None)
            store = ChunkStore(tmp_path / f"n{node_id}", node_id, RateLimiter(None))
            agents[node_id] = Agent(node_id, store, net, COORD)
            agents[node_id].start()
        try:
            a = bytes([5] * 128)
            b = bytes([9] * 128)
            agents[0].store.put(4, a)
            agents[1].store.put(4, b)
            coeffs = {0: 3, 1: 7}
            net.send(
                COORD, 2, ReceiveCommand(4, 1, 128, 64, sources=coeffs)
            )
            net.send(COORD, 0, SendCommand(4, 1, 2, 64, 128))
            net.send(COORD, 1, SendCommand(4, 1, 2, 64, 128))
            ack = coord.inbox.get(timeout=10)
            assert ack.key == (4, 1)
            expected = gf_mul(3, 5) ^ gf_mul(7, 9)
            assert agents[2].store.read(4) == bytes([expected] * 128)
        finally:
            for agent in agents.values():
                agent.stop()


class TestSynchronousRoundTrip:
    def test_sender_waits_for_write_complete(self, rig):
        net, coord, agents = rig
        payload = b"a" * 2048
        agents[0].store.put(1, payload)
        agents[0].store.put(2, payload)
        for stripe in (1, 2):
            net.send(
                COORD, 1, ReceiveCommand(stripe, 0, 2048, 512, sources={0: 1})
            )
            net.send(COORD, 0, SendCommand(stripe, 0, 1, 512, 2048))
        acks = {wait_ack(coord).key for _ in range(2)}
        assert acks == {(1, 0), (2, 0)}


class TestErrors:
    def test_early_packet_buffers_until_command(self, rig):
        """Packets racing ahead of their ReceiveCommand are not lost."""
        net, coord, agents = rig
        payload = b"e" * 256
        # Data first (as can happen on a pipelined path)...
        net.send(0, 1, DataPacket(9, 0, 0, 0, payload))
        time.sleep(0.05)
        assert not agents[1].errors
        # ...then the command arrives and drains the buffer.
        net.send(
            COORD, 1, ReceiveCommand(9, 0, 256, 256, sources={0: 1})
        )
        ack = wait_ack(coord)
        assert ack.key == (9, 0)
        assert agents[1].store.read(9) == payload

    def test_stop_is_idempotent(self, rig):
        net, coord, agents = rig
        agents[0].stop()
        agents[0].stop()
