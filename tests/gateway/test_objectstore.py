"""ObjectStore over a live in-memory testbed: PUT/GET/degraded reads.

These tests run the real RPC path — gateway endpoint -> agent chunk
handlers -> gateway — on the in-memory transport, with tiny chunks so
every object spans multiple stripes.  The hypothesis property at the
bottom is the ISSUE's satellite: degraded-read bytes equal
healthy-read bytes for *every* single-node erasure in RS(9,6).
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import StorageCluster
from repro.core.planner import FastPRPlanner, apply_plan
from repro.ec import make_codec
from repro.ec.galois import KERNEL
from repro.gateway import (
    CLIENT_ID,
    GATEWAY_ID,
    GatewayError,
    GatewayServer,
    ManifestError,
    ObjectClient,
    ObjectStore,
)
from repro.obs import MetricsRegistry
from repro.runtime.faults import FaultInjector, FaultPlan, LinkFault
from repro.runtime.testbed import EmulatedTestbed

CHUNK = 1024
NODES = 12
SCHEME = "rs(9,6)"


def build_rig(workdir, seed=5):
    codec = make_codec(SCHEME)
    cluster = StorageCluster.random(
        NODES,
        2,
        codec.n,
        codec.k,
        seed=seed,
        disk_bandwidth=1e9,
        network_bandwidth=1e9,
        chunk_size=CHUNK,
    )
    metrics = MetricsRegistry()
    testbed = EmulatedTestbed(cluster, codec, workdir=workdir, metrics=metrics)
    return cluster, codec, testbed, metrics


@pytest.fixture
def rig(tmp_path):
    cluster, codec, testbed, metrics = build_rig(tmp_path)
    with testbed:
        store = ObjectStore(
            cluster,
            codec,
            testbed.network,
            chunk_size=CHUNK,
            metrics=metrics,
        )
        yield cluster, codec, store, metrics
        store.close()


def counter_total(metrics, name):
    for metric in metrics:
        if metric.name == name:
            return int(metric.total())
    return 0


def test_store_metrics_say_which_gf_kernel_runs(tmp_path):
    cluster, codec, testbed, _ = build_rig(tmp_path)
    own = MetricsRegistry()
    with testbed:
        ObjectStore(
            cluster, codec, testbed.network, chunk_size=CHUNK, metrics=own
        ).close()
    assert own.get("ec_kernel_info").value(backend=KERNEL) == 1


class TestPutGet:
    def test_round_trip_multi_stripe(self, rig):
        cluster, codec, store, metrics = rig
        data = bytes(i % 251 for i in range(2 * codec.k * CHUNK + 513))
        manifest = store.put("media/clip", data)
        assert manifest.size == len(data)
        assert len(manifest.stripes) == 3  # two full stripes + tail
        for ref in manifest.stripes:
            assert len(ref.placement) == codec.n
            assert len(set(ref.placement)) == codec.n
        assert store.get("media/clip") == data
        assert counter_total(metrics, "gateway_puts_total") == 1
        assert counter_total(metrics, "gateway_gets_total") == 1
        assert counter_total(metrics, "gateway_bytes_out_total") == len(data)

    def test_manifest_digests_hash_the_chunks_each_node_holds(
        self, tmp_path
    ):
        """PUT hashes a stripe's n chunks in parallel; each digest must
        still belong to the chunk written at its own index."""
        cluster, codec, testbed, _ = build_rig(tmp_path)
        with testbed, ObjectStore(
            cluster, codec, testbed.network, chunk_size=CHUNK
        ) as store:
            data = bytes(i % 241 for i in range(2 * codec.k * CHUNK))
            manifest = store.put("lined-up", data)
            for s, ref in enumerate(manifest.stripes):
                held = [
                    testbed.stores[node].read(ref.stripe_id)
                    for node in ref.placement
                ]
                offset = s * codec.k * CHUNK
                for i in range(codec.k):
                    assert held[i] == data[
                        offset + i * CHUNK:offset + (i + 1) * CHUNK
                    ]
                assert list(ref.digests) == [
                    hashlib.sha256(chunk).hexdigest() for chunk in held
                ]

    def test_small_object_pads_one_stripe(self, rig):
        _, codec, store, _ = rig
        data = b"tiny"
        manifest = store.put("small", data)
        assert len(manifest.stripes) == 1
        assert store.get("small") == data  # padding trimmed on read

    def test_reput_overwrites(self, rig):
        _, _, store, _ = rig
        store.put("obj", b"first version")
        store.put("obj", b"second, longer version" * 100)
        assert store.get("obj") == b"second, longer version" * 100
        assert store.keys() == ["obj"]

    def test_failed_overwrite_leaves_the_old_object_readable(self, tmp_path):
        cluster, codec, testbed, _ = build_rig(tmp_path)
        with testbed, ObjectStore(
            cluster, codec, testbed.network, chunk_size=CHUNK, timeout=2.0
        ) as store:
            old = bytes(i % 241 for i in range(2 * codec.k * CHUNK))
            store.put("obj", old)
            held = {n: set(s.stripes()) for n, s in testbed.stores.items()}
            # The next stripe's first node NACKs its ChunkWrite: the
            # gateway's CRC no longer matches the bytes that arrive.
            nacker = store._choose_placement(codec.n)[0]
            testbed.network.faults = FaultInjector(FaultPlan(links=[
                LinkFault(corrupt=1.0, src=GATEWAY_ID, dst=nacker)
            ]))
            with pytest.raises(GatewayError, match="rejected chunk write"):
                store.put("obj", b"new version" * 1000)
            testbed.network.faults = None
            assert store.get("obj") == old
            # ... and the new version's chunks are gone again.
            assert {
                n: set(s.stripes()) for n, s in testbed.stores.items()
            } == held

    def test_missing_key_raises(self, rig):
        _, _, store, _ = rig
        with pytest.raises(ManifestError):
            store.get("nope")
        with pytest.raises(ManifestError):
            store.stat("nope")
        with pytest.raises(ManifestError):
            store.delete("nope")

    def test_empty_key_rejected(self, rig):
        _, _, store, _ = rig
        with pytest.raises(GatewayError):
            store.put("", b"data")

    def test_delete_removes_object(self, rig):
        _, codec, store, _ = rig
        store.put("doomed", b"x" * (codec.k * CHUNK))
        acked = store.delete("doomed")
        assert acked == codec.n  # every chunk delete acknowledged
        assert store.keys() == []
        with pytest.raises(ManifestError):
            store.get("doomed")

    def test_stripes_registered_in_cluster(self, rig):
        cluster, _, store, _ = rig
        before = cluster.num_stripes
        manifest = store.put("tracked", b"y" * (2 * CHUNK))
        assert cluster.num_stripes == before + len(manifest.stripes)


class TestDegradedReads:
    def data_victim(self, manifest):
        """A node holding a *data* chunk of the first stripe."""
        return manifest.stripes[0].placement[0]

    def test_stf_node_read_around(self, rig):
        cluster, codec, store, metrics = rig
        data = bytes(range(256)) * (codec.k * CHUNK // 256)
        manifest = store.put("hot", data)
        victim = self.data_victim(manifest)
        cluster.node(victim).mark_soon_to_fail()
        result = store.get_result("hot")
        assert result.data == data
        assert result.degraded
        assert result.degraded_stripes >= 1
        assert counter_total(metrics, "gateway_degraded_reads_total") >= 1

    @staticmethod
    def count_fanouts(store):
        """Sizes of the ``_rpc_many`` waves ``store`` issues from now on."""
        waves = []
        rpc_many = store._rpc_many

        def counting(calls, timeout=None):
            waves.append(len(calls))
            return rpc_many(calls, timeout=timeout)

        store._rpc_many = counting
        return waves

    def test_stf_stripe_is_read_in_one_fan_out(self, rig):
        cluster, codec, store, _ = rig
        data = bytes(range(256)) * (codec.k * CHUNK // 256)
        manifest = store.put("hot", data)
        cluster.node(self.data_victim(manifest)).mark_soon_to_fail()
        waves = self.count_fanouts(store)
        result = store.get_result("hot")
        assert result.data == data and result.degraded
        # k chunks asked for at once: k - 1 data and one parity.
        assert waves == [codec.k]

    def test_failed_reply_in_the_wave_still_tops_up(self, tmp_path):
        cluster, codec, testbed, metrics = build_rig(tmp_path)
        with testbed, ObjectStore(
            cluster, codec, testbed.network, chunk_size=CHUNK, metrics=metrics
        ) as store:
            data = bytes(range(256)) * (codec.k * CHUNK // 256)
            ref = store.put("hot", data).stripes[0]
            cluster.node(ref.placement[0]).mark_soon_to_fail()
            # A data chunk and the first parity are gone from disk:
            # both replies of the wave come back ok=False.
            for index in (1, codec.k):
                testbed.stores[ref.placement[index]].delete(ref.stripe_id)
            waves = self.count_fanouts(store)
            result = store.get_result("hot")
            assert result.data == data and result.degraded
            # The wave, then one substitute at a time for its two holes.
            assert waves == [codec.k, 1, 1]
            assert not store._readable(ref.placement[1])
            assert not store._readable(ref.placement[codec.k])
            assert counter_total(metrics, "gateway_degraded_reads_total") == 1

    def test_lost_and_rotted_replies_in_one_wave_are_told_apart(
        self, tmp_path
    ):
        """One wave: a lost reply, a rotted one, the rest good.  Both bad
        nodes are suspected and decoded around, and no good chunk is
        blamed — each reply meets its own index's digest."""
        cluster, codec, testbed, metrics = build_rig(tmp_path)
        with testbed, ObjectStore(
            cluster, codec, testbed.network, chunk_size=CHUNK, metrics=metrics
        ) as store:
            data = bytes(i % 239 for i in range(codec.k * CHUNK))
            ref = store.put("mixed", data).stripes[0]
            lost, rotted = 1, 2
            chunks = testbed.stores[ref.placement[rotted]]
            rot = bytearray(chunks.read(ref.stripe_id))
            rot[CHUNK // 3] ^= 0x80
            chunks.put(ref.stripe_id, bytes(rot))
            waves = []
            rpc_many = store._rpc_many

            def losing(calls, timeout=None):
                replies = rpc_many(calls, timeout=timeout)
                if not waves:
                    replies = [
                        None if request.chunk_index == lost else reply
                        for (_, request), reply in zip(calls, replies)
                    ]
                waves.append(len(calls))
                return replies

            store._rpc_many = losing
            result = store.get_result("mixed")
            assert result.data == data and result.degraded
            assert waves == [codec.k, 1, 1]
            assert not store._readable(ref.placement[lost])
            assert not store._readable(ref.placement[rotted])
            assert all(
                store._readable(ref.placement[i])
                for i in range(codec.k) if i not in (lost, rotted)
            )
            assert counter_total(metrics, "gateway_degraded_reads_total") == 1

    def test_reads_go_direct_again_after_the_drain(self, tmp_path):
        cluster, codec, testbed, metrics = build_rig(tmp_path)
        with testbed, ObjectStore(
            cluster, codec, testbed.network, chunk_size=CHUNK, metrics=metrics
        ) as store:
            testbed.load_random_data(seed=6)
            data = bytes(range(256)) * (codec.k * CHUNK // 256)
            victim = self.data_victim(store.put("hot", data))
            cluster.node(victim).mark_soon_to_fail()
            assert store.get_result("hot").degraded
            # The drain finishes and its placements are committed: the
            # manifest still names the drained node, the catalog does not.
            plan = FastPRPlanner(seed=0).plan(cluster, victim)
            testbed.execute(plan)
            apply_plan(cluster, plan)
            cluster.decommission(victim)
            result = store.get_result("hot")
            assert result.data == data
            assert not result.degraded
            assert counter_total(metrics, "gateway_degraded_reads_total") == 1

    def test_failed_node_read_around(self, rig):
        cluster, codec, store, _ = rig
        data = b"\xa5" * (codec.k * CHUNK + 17)
        manifest = store.put("cold", data)
        victim = self.data_victim(manifest)
        cluster.node(victim).mark_failed()
        result = store.get_result("cold")
        assert result.data == data
        assert result.degraded

    def test_parity_only_loss_is_not_degraded(self, rig):
        cluster, codec, store, _ = rig
        data = b"p" * (codec.k * CHUNK)
        manifest = store.put("par", data)
        # single stripe: fail a node holding only a parity chunk
        victim = manifest.stripes[0].placement[codec.k]
        cluster.node(victim).mark_soon_to_fail()
        result = store.get_result("par")
        assert result.data == data
        assert not result.degraded

    def test_healthy_read_is_not_degraded(self, rig):
        _, codec, store, _ = rig
        data = b"h" * (codec.k * CHUNK * 2)
        store.put("fine", data)
        assert not store.get_result("fine").degraded


class TestCorruptionIsLocalised:
    """A chunk whose bytes no longer match its manifest digest costs a
    degraded read around its node, never the GET."""

    @pytest.mark.parametrize("where", ["at_rest", "in_flight"])
    def test_corrupt_data_chunk_is_decoded_around(self, tmp_path, where):
        cluster, codec, testbed, _ = build_rig(tmp_path)
        with testbed, ObjectStore(
            cluster, codec, testbed.network, chunk_size=CHUNK
        ) as store:
            data = bytes(i % 239 for i in range(codec.k * CHUNK))
            ref = store.put("rot", data).stripes[0]
            victim = ref.placement[0]  # holds data chunk 0
            if where == "at_rest":
                chunks = testbed.stores[victim]
                rotted = bytearray(chunks.read(ref.stripe_id))
                rotted[CHUNK // 2] ^= 0x01
                chunks.put(ref.stripe_id, bytes(rotted))
            else:
                testbed.network.faults = FaultInjector(FaultPlan(links=[
                    LinkFault(corrupt=1.0, src=victim, dst=GATEWAY_ID)
                ]))
            result = store.get_result("rot")
            assert result.data == data
            assert result.degraded
            assert not store._readable(victim)


class TestGatewayServerInProcess:
    """Client -> gateway object protocol over the memory transport."""

    def test_client_put_get_stat_delete(self, tmp_path):
        cluster, codec, testbed, metrics = build_rig(tmp_path)
        with testbed:
            server = GatewayServer(
                cluster,
                codec,
                testbed.network,
                chunk_size=CHUNK,
                metrics=metrics,
            )
            client = ObjectClient(testbed.network)
            try:
                data = bytes(i % 97 for i in range(codec.k * CHUNK + 99))
                put = client.put("remote/obj", data)
                assert put.ok and put.size == len(data)
                got = client.get("remote/obj")
                assert bytes(got.payload) == data
                assert not got.degraded
                stat = client.stat("remote/obj")
                assert stat.size == len(data)
                assert stat.scheme == SCHEME
                assert tuple(stat.stripes) == tuple(put.stripes)
                client.delete("remote/obj")
                with pytest.raises(GatewayError):
                    client.get("remote/obj")
            finally:
                client.close()
                server.close()

    def test_degraded_get_flagged_over_the_wire(self, tmp_path):
        cluster, codec, testbed, metrics = build_rig(tmp_path)
        with testbed:
            server = GatewayServer(
                cluster, codec, testbed.network, chunk_size=CHUNK
            )
            client = ObjectClient(testbed.network)
            try:
                data = b"\x42" * (codec.k * CHUNK)
                put = client.put("deg/obj", data)
                manifest = server.stat("deg/obj")
                victim = manifest.stripes[0].placement[0]
                cluster.node(victim).mark_soon_to_fail()
                got = client.get("deg/obj")
                assert bytes(got.payload) == data
                assert got.degraded
            finally:
                client.close()
                server.close()

    def test_corrupted_put_is_refused_not_stored(self, tmp_path):
        # The in-memory fabric corrupts a payload after the message is
        # built, past any frame CRC: only the PutRequest's own checksum
        # can tell the gateway that the bytes are not the client's.
        cluster, codec, testbed, _ = build_rig(tmp_path)
        with testbed:
            server = GatewayServer(
                cluster, codec, testbed.network, chunk_size=CHUNK
            )
            client = ObjectClient(testbed.network)
            try:
                held = {n: set(s.stripes()) for n, s in testbed.stores.items()}
                testbed.network.faults = FaultInjector(FaultPlan(links=[
                    LinkFault(corrupt=1.0, src=CLIENT_ID, dst=GATEWAY_ID)
                ]))
                data = bytes(i % 89 for i in range(codec.k * CHUNK + 7))
                with pytest.raises(
                    GatewayError, match="payload checksum mismatch"
                ):
                    client.put("bent/obj", data)
                assert testbed.network.faults.stats["corrupted"] == 1
                testbed.network.faults = None
                assert server.keys() == []
                assert {
                    n: set(s.stripes()) for n, s in testbed.stores.items()
                } == held
            finally:
                client.close()
                server.close()


# ---------------------------------------------------------------------------
# ISSUE satellite: for every single-node erasure in RS(9,6), a degraded
# read returns exactly the bytes a healthy read would.


@pytest.fixture(scope="module")
def prop_rig(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("gateway-prop")
    cluster, codec, testbed, metrics = build_rig(workdir, seed=11)
    with testbed:
        store = ObjectStore(
            cluster,
            codec,
            testbed.network,
            chunk_size=CHUNK,
            metrics=metrics,
        )
        yield cluster, codec, store
        store.close()


@settings(max_examples=8, deadline=None)
@given(data=st.binary(min_size=1, max_size=3 * 6 * CHUNK))
def test_degraded_read_matches_healthy_read_for_every_erasure(
    prop_rig, data
):
    cluster, codec, store = prop_rig
    store.put("prop/object", data)
    manifest = store.stat("prop/object")
    assert store.get("prop/object") == data  # healthy baseline
    victims = sorted({n for ref in manifest.stripes for n in ref.placement})
    for victim in victims:
        cluster.node(victim).mark_soon_to_fail()
        store._suspects.clear()
        try:
            result = store.get_result("prop/object")
        finally:
            cluster.node(victim).mark_healthy()
        assert result.data == data
        # degraded exactly where the victim held a data chunk
        expected = sum(
            1
            for ref in manifest.stripes
            if victim in ref.placement[: manifest.k]
        )
        assert result.degraded_stripes == expected
