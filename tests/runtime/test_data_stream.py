"""The seeded data set: every consumer of one ``(cluster, codec, seed)``
triple walks the same :func:`iter_encoded_stripes` bytes.

Agents in other processes re-derive their chunks from the stream and
the driver hashes expected bytes from it, so the bytes are a contract
across versions: the digests below were taken from the original
``random.Random.getrandbits`` loader and must never move.
"""

import hashlib
import itertools
import random
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import StorageCluster
from repro.ec import make_codec
from repro.runtime.datanode import ChunkStore
from repro.runtime.driver import (
    _mersenne_twister,
    _random_chunk,
    iter_encoded_stripes,
)
from repro.runtime.testbed import EmulatedTestbed


def stream_digest(scheme, chunk_size, num_stripes, num_nodes, seed):
    codec = make_codec(scheme)
    cluster = StorageCluster.random(
        num_nodes, num_stripes, codec.n, codec.k, seed=3, chunk_size=chunk_size
    )
    digest = hashlib.sha256()
    for stripe, coded in iter_encoded_stripes(cluster, codec, seed):
        digest.update(stripe.stripe_id.to_bytes(4, "little"))
        for chunk in coded:
            digest.update(chunk)
    return digest.hexdigest()


@pytest.mark.parametrize(
    "scheme,chunk_size,num_stripes,num_nodes,seed,expected",
    [
        (
            "rs(9,6)", 1001, 20, 12, 0,
            "91c6ec13a1563aa6b069913dbf69440905b2ad21b6d175685051733db774a55e",
        ),
        (
            "rs(9,6)", 1001, 20, 12, 12345678901234567890,
            "e9b014bea4146298eadd2b74a80ddc8aff7c1eb331fcdb85f9683346371b8415",
        ),
        (
            "rs(6,4)", 3, 37, 8, 7,
            "adbda538721e0a7fb19f6fc65cb5bcc2dfe953f6c1cd45a81e7b8af404f6236f",
        ),
        (
            "lrc(6,2,2)", 4099, 18, 12, 1,
            "bb900ac999a103b5e78d72a1fd90e49661fc900e76d4820a3408e769804ee0af",
        ),
    ],
)
def test_stream_bytes_are_pinned(
    scheme, chunk_size, num_stripes, num_nodes, seed, expected
):
    assert stream_digest(scheme, chunk_size, num_stripes, num_nodes, seed) == expected


# ----------------------------------------------------------------------
# the draw: numpy's MT19937 in place of getrandbits
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.none(), st.integers(0, 2**160)),
    advance=st.integers(0, 1300),
    sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=8),
)
def test_draws_equal_getrandbits_draw_for_draw(seed, advance, sizes):
    # seed=None seeds from OS entropy: the twister copies whatever state
    # ``python`` holds, and ``advance`` puts it anywhere in the 624-word
    # block.
    python = random.Random(seed)
    for _ in range(advance):
        python.getrandbits(32)
    twister = _mersenne_twister(python)
    for size in sizes:
        expected = python.getrandbits(8 * size).to_bytes(size, "little")
        assert _random_chunk(twister, size) == expected
    state = twister.state["state"]
    assert tuple(int(w) for w in state["key"]) + (state["pos"],) == (
        python.getstate()[1]
    )


# ----------------------------------------------------------------------
# the loader: bounded memory, overlapped writes, failures surface
# ----------------------------------------------------------------------

CHUNK = 64 * 1024


def make_testbed(tmp_path, num_stripes):
    cluster = StorageCluster.random(
        12,
        num_stripes,
        9,
        6,
        seed=5,
        disk_bandwidth=1e9,
        network_bandwidth=1e9,
        chunk_size=CHUNK,
    )
    return EmulatedTestbed(cluster, make_codec("rs(9,6)"), workdir=tmp_path)


def test_load_holds_a_few_stripes_at_a_time(tmp_path):
    testbed = make_testbed(tmp_path, num_stripes=32)
    try:
        tracemalloc.start()
        try:
            testbed.load_random_data(seed=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Two stripes with the loaders, and the next one's data, stacked
        # copy and parities while it is encoded: about five stripes' coded
        # bytes.  A 16-stripe window held 22.
        assert peak < 6 * 9 * CHUNK
        assert len(testbed._checksums) == 32 * 9
    finally:
        testbed.shutdown()


def test_checksums_and_stores_match_the_stream(tmp_path):
    # Loaders share the stores; switching threads often gives a lost
    # update a chance to show.
    testbed = make_testbed(tmp_path, num_stripes=24)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        testbed.load_random_data(seed=8)
    finally:
        sys.setswitchinterval(interval)
    try:
        coded = {
            stripe.stripe_id: chunks
            for stripe, chunks in iter_encoded_stripes(
                testbed.cluster, testbed.codec, seed=8
            )
        }
        expected = {
            (stripe_id, index): hashlib.sha256(chunk).hexdigest()
            for stripe_id, chunks in coded.items()
            for index, chunk in enumerate(chunks)
        }
        # the same contents in the same (stream) order
        assert list(testbed._checksums.items()) == list(expected.items())
        for stripe_id, chunks in coded.items():
            placement = testbed.cluster.stripe(stripe_id).placement
            for index, node in enumerate(placement):
                store = testbed.stores[node]
                assert store._sizes[stripe_id] == CHUNK
                assert store.read(stripe_id) == chunks[index]
    finally:
        testbed.shutdown()


def test_failed_write_surfaces_and_no_loader_survives(tmp_path, monkeypatch):
    testbed = make_testbed(tmp_path, num_stripes=12)
    calls = itertools.count()
    put = ChunkStore.put

    def failing_put(store, stripe_id, data, throttled=False):
        if next(calls) == 40:
            raise OSError(28, "No space left on device")
        put(store, stripe_id, data, throttled)

    monkeypatch.setattr(ChunkStore, "put", failing_put)
    try:
        with pytest.raises(OSError, match="No space left"):
            testbed.load_random_data(seed=4)
        assert not [
            t for t in threading.enumerate() if t.name.startswith("data-loader")
        ]
    finally:
        testbed.shutdown()


def test_no_stripes_no_loaders(tmp_path, monkeypatch):
    testbed = make_testbed(tmp_path, num_stripes=0)
    # a pool starts its threads on submit
    submitted = []
    monkeypatch.setattr(
        ThreadPoolExecutor, "submit", lambda pool, *args: submitted.append(args)
    )
    try:
        testbed.load_random_data(seed=4)
        assert submitted == [] and testbed._checksums == {}
    finally:
        testbed.shutdown()
