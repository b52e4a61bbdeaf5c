"""Chunk bytes cross the gateway uncopied.

A PUT encodes from views of the object's own buffer, agents write the
payload they receive and answer reads with mapped views of their chunk
files, and a GET's one copy of the object is its final join.  The
memory bounds below are tracemalloc peaks (numpy and bytes allocations
of every thread; file mappings are not heap), so they hold on any
host.  Every backend must still move the same bytes.
"""

import gc
import hashlib
import os
import random
import time
import tracemalloc

import pytest

from repro.cluster import StorageCluster
from repro.ec import make_codec
from repro.gateway import GATEWAY_ID, ObjectStore
from repro.net.shm import ShmNetwork, shm_available
from repro.net.tcp import TcpNetwork
from repro.runtime.testbed import EmulatedTestbed

MIB = 1 << 20
#: allocations a PUT or GET may make beyond its payload-sized buffers
#: (messages, manifests, digests, thread bookkeeping)
SLACK = 256 * 1024


def build(workdir, chunk, wire=None):
    """An in-process testbed and gateway; ``wire`` ("tcp"/"shm") routes
    every message through that backend's frames instead of memory."""
    codec = make_codec("rs(9,6)")
    cluster = StorageCluster.random(
        12,
        0,
        codec.n,
        codec.k,
        seed=5,
        disk_bandwidth=100e9,
        network_bandwidth=125e9,
        chunk_size=chunk,
    )
    network = None if wire is None else wired(wire, cluster)
    testbed = EmulatedTestbed(
        cluster, codec, workdir=workdir / "bed", network=network
    )
    store = ObjectStore(cluster, codec, testbed.network, chunk_size=chunk)
    return cluster, codec, testbed, store


def traced_peak(operation):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = operation()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBounds:
    @pytest.fixture
    def rig(self, tmp_path):
        cluster, codec, testbed, store = build(tmp_path, MIB)
        with testbed, store:
            payload = random.Random(1).randbytes(codec.k * MIB)
            # warm every lazy structure (kernel, pools, agents' files)
            store.put("warm", payload)
            assert store.get("warm") == payload
            yield cluster, codec, store, payload

    def test_put_allocates_only_the_parity(self, rig):
        _, codec, store, payload = rig
        _, peak = traced_peak(lambda: store.put("x", payload))
        assert peak <= (codec.n - codec.k) * MIB + SLACK
        assert store.get("x") == payload

    def test_nothing_of_a_put_outlives_it(self, rig):
        """The agents drop each handled ChunkWrite, whose payload views
        the PUT's parity, instead of holding it until their next
        message."""
        _, _, store, payload = rig
        tracemalloc.start()
        try:
            store.put("x", payload)
            deadline = time.monotonic() + 5.0
            while tracemalloc.get_traced_memory()[0] > SLACK:
                assert time.monotonic() < deadline, "parity still held"
                time.sleep(0.01)
        finally:
            tracemalloc.stop()

    def test_healthy_get_allocates_only_the_object(self, rig):
        _, _, store, payload = rig
        store.put("x", payload)
        data, peak = traced_peak(lambda: store.get_result("x"))
        assert data.data == payload and not data.degraded
        assert peak <= len(payload) + SLACK

    def test_ragged_object_reads_back_without_its_padding(self, rig):
        _, codec, store, payload = rig
        ragged = payload[: codec.k * MIB - 12345] + payload[:4321]
        store.put("ragged", ragged)
        assert store.get("ragged") == ragged
        assert store.stat("ragged").size == len(ragged)


class TestMappedReplies:
    """A ChunkRead reply is a view of the chunk file as it was mapped:
    no later overwrite, promotion or delete changes it (and none
    truncates the inode under it, which would be SIGBUS)."""

    def test_replies_keep_their_bytes(self, tmp_path):
        chunk = 4096
        cluster, codec, testbed, store = build(tmp_path, chunk)
        with testbed, store:
            first = bytes(range(256)) * (codec.k * chunk // 256)
            ref = store.put("obj", first).stripes[0]
            replies = store._fetch_chunks(ref, range(codec.n))
            assert sorted(replies) == list(range(codec.n))
            assert all(
                isinstance(payload, memoryview) and payload.readonly
                for payload in replies.values()
            )
            # overwrite chunk 0 in place of the old file, promote a
            # staged chunk over chunk 1, then delete the whole object
            node0, node1 = ref.placement[0], ref.placement[1]
            testbed.stores[node0].put(ref.stripe_id, bytes(chunk))
            staged = testbed.stores[node1].open_staged(ref.stripe_id, chunk)
            staged.write(0, b"\xff" * chunk)
            staged.promote()
            assert testbed.stores[node1].read(ref.stripe_id) == b"\xff" * chunk
            store.delete("obj")
            assert not testbed.stores[node0].has(ref.stripe_id)
            for index, payload in replies.items():
                digest = hashlib.sha256(payload).hexdigest()
                assert digest == ref.digests[index]


def open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_dropped_replies_give_their_descriptors_back(tmp_path):
    """A live mapped ChunkRead reply holds a ``dup`` of its chunk file's
    descriptor (``mmap.mmap`` keeps one): once a burst of healthy and
    degraded GETs is over and its results are dropped, the process
    holds as many descriptors as before it."""
    chunk = 8192
    cluster, codec, testbed, store = build(tmp_path, chunk)
    with testbed, store:
        rng = random.Random(4)
        objects = {f"o/{i}": rng.randbytes(codec.k * chunk) for i in range(4)}
        manifests = {key: store.put(key, data) for key, data in objects.items()}
        for key, data in objects.items():
            assert store.get(key) == data  # warm lazy files and threads
        gc.collect()
        before = open_descriptors()
        for _ in range(5):
            for key in objects:
                assert not store.get_result(key).degraded
        victim = manifests["o/0"].stripes[0].placement[0]
        cluster.node(victim).mark_soon_to_fail()
        for _ in range(5):
            for key in objects:
                store.get_result(key)
        assert store.get_result("o/0").degraded
        gc.collect()
        deadline = time.monotonic() + 5.0
        while open_descriptors() != before:
            assert time.monotonic() < deadline, (
                f"{open_descriptors() - before} descriptors still open"
            )
            time.sleep(0.01)
            gc.collect()


WIRE = [
    "tcp",
    pytest.param(
        "shm",
        marks=pytest.mark.skipif(
            not shm_available(), reason="needs POSIX shm + flock"
        ),
    ),
]


def wired(kind, cluster):
    nodes = [*cluster.nodes, GATEWAY_ID]
    if kind == "tcp":
        net = TcpNetwork()
        host, port = net.listen()
        for node_id in nodes:
            net.add_peer(node_id, host, port)
    else:
        net = ShmNetwork()
        name = net.listen()
        for node_id in nodes:
            net.add_peer(node_id, name)
    return net


@pytest.mark.parametrize("kind", WIRE)
def test_put_get_over_the_wire_is_byte_identical(kind, tmp_path):
    """The same objects, stripes and digests as the memory fabric, and
    healthy and degraded GETs return the PUT's bytes."""
    chunk = 8192
    rng = random.Random(3)
    objects = {
        "one": rng.randbytes(6 * chunk),
        "ragged": rng.randbytes(13 * chunk + 77),
        "empty": b"",
    }

    def run(workdir, wire):
        _, _, testbed, store = build(workdir, chunk, wire=wire)
        try:
            with testbed, store:
                manifests = {
                    key: store.put(key, data) for key, data in objects.items()
                }
                for key, data in objects.items():
                    assert store.get(key) == data
                victim = manifests["ragged"].stripes[0].placement[0]
                testbed.cluster.node(victim).mark_soon_to_fail()
                degraded = store.get_result("ragged")
                assert degraded.degraded
                assert degraded.data == objects["ragged"]
                return {k: m.sha256 for k, m in manifests.items()}
        finally:
            if wire is not None:
                testbed.network.close()

    assert run(tmp_path / kind, kind) == run(tmp_path / "memory", None)
