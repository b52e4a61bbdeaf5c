"""ObjectStore over a live in-memory testbed: PUT/GET/degraded reads.

These tests run the real RPC path — gateway endpoint -> agent chunk
handlers -> gateway — on the in-memory transport, with tiny chunks so
every object spans multiple stripes.  The hypothesis property at the
bottom is the ISSUE's satellite: degraded-read bytes equal
healthy-read bytes for *every* single-node erasure in RS(9,6).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import StorageCluster
from repro.core.planner import FastPRPlanner, apply_plan
from repro.ec import make_codec
from repro.ec.galois import KERNEL
from repro.gateway import (
    GatewayError,
    GatewayServer,
    ManifestError,
    ObjectClient,
    ObjectStore,
)
from repro.obs import MetricsRegistry
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
