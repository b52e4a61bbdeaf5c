"""The transfer granularity of a run: chosen, overridden, journaled, bounded.

With no ``packet_size`` the driver takes
:func:`repro.core.analysis.optimal_packet_size` of the cluster (capped
at what one frame of the transport carries); an explicit size behaves
as it always did; a resumed run keeps the size it journaled; and the
packets an agent buffers ahead of their command are bounded in bytes.
"""

import threading
import zlib
from collections import Counter

import pytest

from repro.cluster import StorageCluster
from repro.core import (
    FastPRPlanner,
    optimal_packet_size,
    profile_from_cluster,
)
from repro.ec import make_codec
from repro.net.shm import ShmNetwork, shm_available
from repro.runtime import CoordinatorCrash, RuntimeConfig
from repro.runtime.agent import MAX_PENDING_CHUNKS, Agent, AgentError
from repro.runtime.datanode import ChunkStore
from repro.runtime.driver import RepairDriver
from repro.runtime.journal import PlanCommitted, RepairJournal
from repro.runtime.messages import DataPacket
from repro.runtime.testbed import EmulatedTestbed
from repro.runtime.throttle import RateLimiter
from repro.runtime.transport import Network

KIB = 1024
CHUNK = 256 * KIB

FAST = RuntimeConfig(
    ack_timeout=5.0,
    min_deadline=2.0,
    poll_interval=0.05,
    journal_fsync="never",
)


class CountingNetwork(Network):
    """The in-memory fabric, recording every data packet it is handed."""

    def __init__(self, **kw):
        super().__init__(**kw)
        #: (src, dst, stripe_id) -> payload sizes, in send order
        self.streams = {}
        self._count_lock = threading.Lock()

    def send(self, src, dst, message):
        if isinstance(message, DataPacket):
            with self._count_lock:
                self.streams.setdefault(
                    (src, dst, message.stripe_id), []
                ).append(len(message.payload))
        super().send(src, dst, message)


def make_cluster(disk=100e6, nic=10e6, chunk=CHUNK):
    cluster = StorageCluster.random(
        num_nodes=10,
        num_stripes=6,
        n=5,
        k=3,
        seed=21,
        disk_bandwidth=disk,
        network_bandwidth=nic,
        chunk_size=chunk,
    )
    cluster.node(0).mark_soon_to_fail()
    return cluster


def make_testbed(tmp_path, cluster, network=None, **kw):
    testbed = EmulatedTestbed(
        cluster,
        make_codec("rs(5,3)"),
        workdir=tmp_path / "bed",
        config=FAST,
        network=network,
        **kw,
    )
    testbed.start()
    testbed.load_random_data(seed=1)
    return testbed


def expected_streams(plan):
    return sum(len(action.sources) for action in plan.actions())


class TestDefaultFromTheBudget:
    def test_execute_sends_chunk_over_rule_packets_per_stream(self, tmp_path):
        cluster = make_cluster()
        rule = optimal_packet_size(profile_from_cluster(cluster))
        assert rule == 64 * KIB  # 10 MB/s NICs: not chunk/16, not the chunk
        network = CountingNetwork()
        testbed = make_testbed(tmp_path, cluster, network)
        try:
            assert testbed.packet_size == rule
            plan = FastPRPlanner(seed=3).plan(cluster, 0)
            result = testbed.execute(plan)
            testbed.verify_plan(plan, result)
        finally:
            testbed.shutdown()
        assert len(network.streams) == expected_streams(plan)
        for sizes in network.streams.values():
            assert sizes == [rule] * (CHUNK // rule)

    def test_explicit_size_is_what_goes_on_the_wire(self, tmp_path):
        """An override puts chunk/size packets of exactly that size on
        every stream, whatever the rule would have picked."""
        cluster = make_cluster()
        network = CountingNetwork()
        testbed = make_testbed(
            tmp_path, cluster, network, packet_size=CHUNK // 16
        )
        try:
            plan = FastPRPlanner(seed=3).plan(cluster, 0)
            testbed.verify_plan(plan, testbed.execute(plan))
            per_run = dict(network.streams)
            network.streams = {}
            for action in plan.actions():
                testbed.stores[action.destination].delete(action.stripe_id)
            testbed.verify_plan(
                plan, testbed.execute(plan, packet_size=CHUNK // 2)
            )
        finally:
            testbed.shutdown()
        streams = expected_streams(plan)
        assert Counter(map(tuple, per_run.values())) == {
            (CHUNK // 16,) * 16: streams
        }
        assert Counter(map(tuple, network.streams.values())) == {
            (CHUNK // 2,) * 2: streams
        }


class TestResumeKeepsTheJournaledSize:
    def test_recovered_run_ignores_todays_bandwidths(self, tmp_path):
        """The journal, not the rule, sizes a resumed run's packets:
        the successor is built over a cluster whose bandwidths would
        now choose whole-chunk packets."""
        cluster = make_cluster()
        journal = tmp_path / "repair.journal"
        network = CountingNetwork()
        testbed = make_testbed(
            tmp_path, cluster, network, journal_path=journal
        )
        try:
            journaled = testbed.packet_size
            plan = FastPRPlanner(seed=3).plan(cluster, 0)
            testbed.kill_coordinator_after(2)  # plan + first round start
            with pytest.raises(CoordinatorCrash):
                testbed.execute(plan)
            committed = [
                r for r in RepairJournal.replay(journal)
                if isinstance(r, PlanCommitted)
            ]
            assert [r.packet_size for r in committed] == [journaled]

            cluster.disk_bandwidth = cluster.network_bandwidth = 100e9
            today = optimal_packet_size(profile_from_cluster(cluster))
            assert today == CHUNK != journaled
            testbed.packet_size = today  # what a restarted process computes
            network.streams = {}
            testbed.restart_coordinator()
            result = testbed.resume()
            testbed.verify_plan(plan, result)
        finally:
            testbed.shutdown()
        assert network.streams
        for sizes in network.streams.values():
            assert set(sizes) == {journaled}
        assert [
            r.packet_size
            for r in RepairJournal.replay(journal)
            if isinstance(r, PlanCommitted)
        ] == [journaled, journaled]


@pytest.mark.skipif(not shm_available(), reason="no shared memory here")
class TestTransportFrameLimit:
    RING = 64 * KIB

    def driver(self, tmp_path, **kw):
        cluster = make_cluster(disk=100e9, nic=125e9)
        network = ShmNetwork(ring_capacity=self.RING)
        try:
            return RepairDriver(
                network, cluster, make_codec("rs(5,3)"), tmp_path, **kw
            ), network
        except BaseException:
            network.close()
            raise

    def test_rule_is_capped_at_the_ring(self, tmp_path):
        driver, network = self.driver(tmp_path)
        try:
            # Unthrottled devices would pick the whole 256 KiB chunk.
            assert driver.packet_size == 32 * KIB
            assert driver.packet_size <= network.max_packet < self.RING
        finally:
            network.close()

    def test_override_that_cannot_fit_fails_at_construction(self, tmp_path):
        with pytest.raises(ValueError) as error:
            self.driver(tmp_path, packet_size=self.RING)
        network = ShmNetwork(ring_capacity=self.RING)
        try:
            assert str(self.RING) in str(error.value)
            assert str(network.max_packet) in str(error.value)
        finally:
            network.close()

    def test_per_run_override_is_checked_too(self, tmp_path):
        driver, network = self.driver(tmp_path)
        try:
            with pytest.raises(ValueError, match="does not fit"):
                driver.execute(None, packet_size=self.RING)
        finally:
            network.close()

    def test_largest_packet_really_fits_the_ring(self):
        """``max_packet`` is honest: a slice packet of that size, with
        its header and envelope, is accepted by a ring of that capacity."""
        from repro.net.shm import ShmRing
        from repro.net.wire import encode_frame_parts
        from repro.runtime.messages import SlicePacket

        network = ShmNetwork(ring_capacity=self.RING)
        ring = ShmRing(f"fpr-test-{id(self) & 0xFFFFFF:06x}", self.RING, create=True)
        try:
            packet = SlicePacket(
                2**31, 255, 2**31, 2**40, bytes(network.max_packet),
                attempt=2**16, epoch=2**31, checksum=2**32 - 1,
                slice_index=2**20, num_slices=2**20, chain_pos=255,
            )
            assert ring.write(encode_frame_parts(2**31, 2**31, packet), 1.0)
        finally:
            ring.close()
            network.close()


class TestPendingPacketsBoundedInBytes:
    """Packets that beat their command are buffered up to
    ``MAX_PENDING_CHUNKS`` chunks' worth of bytes, not 4096 packets."""

    def agent(self, tmp_path):
        net = Network()
        net.attach(-1, None)
        net.attach(1, None)
        store = ChunkStore(tmp_path / "n1", 1, RateLimiter(None))
        return Agent(1, store, net, -1)

    @staticmethod
    def packet(offset, payload, source=0):
        return DataPacket(
            5, 2, source, offset, payload, checksum=zlib.crc32(payload)
        )

    def test_large_packets_overflow_long_before_4096(self, tmp_path):
        agent = self.agent(tmp_path)
        payload = bytes(CHUNK)  # whole-chunk packets, as the rule may pick
        for source in range(MAX_PENDING_CHUNKS):
            agent._route_packet(self.packet(0, payload, source))
        with pytest.raises(AgentError, match="pending-packet overflow"):
            agent._route_packet(self.packet(0, payload, MAX_PENDING_CHUNKS))
        assert agent._pending[(5, 2)].nbytes == MAX_PENDING_CHUNKS * CHUNK

    def test_every_source_of_a_wide_stripe_may_run_ahead(self, tmp_path):
        """16 sources sending a 64-packet chunk each, all of it before
        the command: far over the old count's spirit, well within
        16 chunks of bytes."""
        agent = self.agent(tmp_path)
        payload = bytes(4 * KIB)
        for offset in range(0, CHUNK, len(payload)):
            for source in range(16):
                agent._route_packet(self.packet(offset, payload, source))
        pending = agent._pending[(5, 2)]
        assert pending.nbytes == 16 * CHUNK
        assert pending.extent == CHUNK
        assert len(pending.packets) == 16 * 64
