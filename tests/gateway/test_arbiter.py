"""TrafficArbiter: the DESIGN.md §15 QoS invariants, unit-level.

The arbiter's contract, per link: client transfers are never delayed;
on a link whose clients use their floor the background classes are
paced to ``(1 - client_floor) * rate``, on a link no client byte
touches they run at line rate, and in between they get what the client
leaves; an idle background class lends its split.  The arithmetic is
pinned in virtual time — the arbiter's clock and sleep are swapped for
a counter, so a returned wait is the whole admission delay and no test
sleeps — with ``burst=0`` buckets unless a test says otherwise (wait ==
nbytes / effective rate, exactly).  One fabric-level case at the bottom
runs real threads through a :class:`~repro.runtime.transport.Network`.
"""

import sys
import threading
import time

import pytest

from repro.gateway import CLASSES, TrafficArbiter, traffic_class
from repro.obs import MetricsRegistry
from repro.runtime.messages import (
    ChunkRead,
    ChunkReadReply,
    ChunkWrite,
    DataPacket,
    GetRequest,
    Heartbeat,
    PutRequest,
)
from repro.runtime.transport import Network

RATE = 1000.0  # bytes/s; tiny on purpose so waits are large and exact

#: two transfers that share no NIC, and one that shares A's egress
LINK_A = ((1, "out"), (2, "in"))
LINK_B = ((3, "out"), (4, "in"))
LINK_A_OUT_ONLY = ((1, "out"), (4, "in"))

REPAIR = DataPacket(1, 0, 0, 0, b"")
CLIENT = ChunkRead(stripe_id=1, chunk_index=0, nonce=1, reply_to=-1)


class Sweep:
    """A scrub-class message (no wire message carries the class yet)."""

    TRAFFIC_CLASS = "scrub"


class VirtualTime:
    """The arbiter's clock and sleep as a counter."""

    def __init__(self):
        self.now = 100.0

    def clock(self):
        return self.now

    def sleep(self, seconds, event):
        if event is not None and event.is_set():
            return True
        self.now += seconds
        return False


def make(client_floor=0.5, **kwargs):
    """An arbiter running in virtual time; ``arbiter.time.now`` is it."""
    kwargs.setdefault("burst", 0)
    arbiter = TrafficArbiter(RATE, client_floor=client_floor, **kwargs)
    arbiter.time = VirtualTime()
    arbiter._clock = arbiter.time.clock
    arbiter._sleep = arbiter.time.sleep
    return arbiter


class TestTrafficClass:
    def test_gateway_messages_are_client(self):
        for message in (
            ChunkWrite(1, 0, 0, 0, b"x", nonce=1, reply_to=-1),
            ChunkRead(stripe_id=1, chunk_index=0, nonce=1, reply_to=-1),
            PutRequest(0, 0, 0, 0, b"x", key="k", nonce=1, reply_to=-1),
            GetRequest(key="k", nonce=1, reply_to=-1),
        ):
            assert traffic_class(message) == "client"

    def test_repair_traffic_is_repair(self):
        assert traffic_class(DataPacket(1, 0, 0, 0, b"x")) == "repair"

    def test_unclassified_defaults_to_repair(self):
        assert traffic_class(Heartbeat(node_id=1)) == "repair"
        assert traffic_class(object()) == "repair"

    def test_classes_are_closed(self):
        assert set(CLASSES) == {"client", "repair", "scrub"}


class TestClientNeverDelayed:
    def test_client_admit_is_free_at_any_size(self):
        arbiter = make()
        message = GetRequest(key="k", nonce=1, reply_to=-1)
        # 10^6x the per-second rate: still zero imposed latency.
        assert arbiter.admit(message, int(RATE * 1e6), LINK_A) == 0.0

    def test_client_admit_is_free_under_repair_pressure(self):
        arbiter = make()
        with arbiter.register("repair"), arbiter.register("scrub"):
            arbiter.admit(REPAIR, 10_000, LINK_A)  # deep repair token debt
            arbiter.admit(Sweep(), 10_000, LINK_A)
            assert arbiter.admit(CLIENT, 10_000, LINK_A) == 0.0
            assert arbiter.admit(CLIENT, 10_000, LINK_A) == 0.0


class TestBackgroundClamp:
    def test_repair_runs_at_line_rate_while_client_idle(self):
        # Idle client + idle scrub lend everything: share == 1.0.
        arbiter = make(client_floor=0.5)
        assert arbiter.admit(REPAIR, 1000, LINK_A) == pytest.approx(
            1000 / RATE
        )

    def test_recent_client_admit_counts_as_busy(self):
        # No flow object, just client bytes: they alone make a link busy
        # (here for 100 000 / (0.5 * RATE) = 200 s).
        arbiter = make(client_floor=0.5)
        arbiter.admit(CLIENT, 100_000, LINK_A)
        assert arbiter.admit(REPAIR, 1000, LINK_A) == pytest.approx(
            1000 / (RATE * 0.5)
        )

    def test_repair_on_a_client_busy_link_is_paced_to_its_share(self):
        arbiter = make(client_floor=0.7)
        arbiter.admit(CLIENT, 100_000, LINK_A)
        began = arbiter.time.now
        for _ in range(5):
            arbiter.admit(REPAIR, 1000, LINK_A)
        assert arbiter.time.now - began == pytest.approx(
            5 * 1000 / (RATE * 0.3)
        )

    def test_repair_on_a_disjoint_link_is_not_delayed(self):
        # burst = one transfer, so the first on each link rides it and
        # the second shows what the link refilled in the second between.
        arbiter = make(client_floor=0.5, burst=1000)
        arbiter.admit(CLIENT, 100_000, LINK_A)
        assert arbiter.admit(REPAIR, 1000, LINK_A) == 0.0
        assert arbiter.admit(REPAIR, 1000, LINK_B) == 0.0
        arbiter.time.now += 1.0
        assert arbiter.admit(REPAIR, 1000, LINK_B) == 0.0
        assert arbiter.admit(REPAIR, 1000, LINK_A) == pytest.approx(1.0)

    def test_a_transfer_waits_for_the_slowest_of_its_links(self):
        arbiter = make(client_floor=0.5)
        arbiter.admit(CLIENT, 100_000, LINK_A)
        # (1, "out") is client-busy, (4, "in") is not.
        assert arbiter.admit(REPAIR, 1000, LINK_A_OUT_ONLY) == pytest.approx(
            1000 / (RATE * 0.5)
        )

    @pytest.mark.parametrize("client_bytes", [100, 400])
    def test_client_demand_below_the_floor_leaves_repair_the_rest(
        self, client_bytes
    ):
        # The link carries the client's bytes and repair's 1000 in the
        # time both need at line rate: repair got ``rate - demand``.
        arbiter = make(client_floor=0.5)
        arbiter.admit(CLIENT, client_bytes, LINK_A)
        assert arbiter.admit(REPAIR, 1000, LINK_A) == pytest.approx(
            (1000 + client_bytes) / RATE
        )

    def test_wait_is_cut_short_when_the_links_client_goes_idle(self):
        # 500 client bytes keep the link busy for 1 s.  2000 repair
        # bytes would take 4 s at the clamped 500 B/s; the arbiter
        # sleeps only to the end of the busy second (500 B), then
        # re-evaluates at line rate (1500 B in 1.5 s).
        arbiter = make(client_floor=0.5)
        arbiter.admit(CLIENT, 500, LINK_A)
        assert arbiter.admit(REPAIR, 2000, LINK_A) == pytest.approx(2.5)

    def test_registered_client_flow_alone_clamps_nothing(self):
        arbiter = make(client_floor=0.5)
        with arbiter.register("client"):
            wait = arbiter.admit(REPAIR, 1000, LINK_A)
        assert wait == pytest.approx(1000 / RATE)

    def test_zero_floor_never_clamps(self):
        arbiter = make(client_floor=0.0)
        assert arbiter.admit(CLIENT, 100_000, LINK_A) == 0.0
        assert arbiter.admit(REPAIR, 1000, LINK_A) == pytest.approx(
            1000 / RATE
        )

    def test_busy_scrub_halves_the_repair_share(self):
        arbiter = make(client_floor=0.5)
        arbiter.admit(CLIENT, 100_000, LINK_A)
        with arbiter.register("scrub"):
            wait = arbiter.admit(REPAIR, 1000, LINK_A)
        # Both background classes busy: each gets (1 - floor) / 2.
        assert wait == pytest.approx(1000 / (RATE * 0.25))

    def test_scrub_and_repair_split_the_link_they_share(self):
        arbiter = make(client_floor=0.5)
        arbiter.admit(Sweep(), 1, LINK_A)  # scrub bytes on A only
        assert arbiter.admit(REPAIR, 1000, LINK_A) == pytest.approx(
            1000 / (RATE * 0.5)
        )
        assert arbiter.admit(REPAIR, 1000, LINK_B) == pytest.approx(
            1000 / RATE
        )

    def test_higher_floor_means_slower_background(self):
        waits = []
        for floor in (0.2, 0.5, 0.8):
            arbiter = make(client_floor=floor)
            arbiter.admit(CLIENT, 100_000, LINK_A)
            waits.append(arbiter.admit(REPAIR, 1000, LINK_A))
        assert waits == sorted(waits)
        assert waits[0] < waits[-1]

    def test_burst_absorbs_small_transfers(self):
        arbiter = make(client_floor=0.5, burst=4096)
        assert arbiter.admit(REPAIR, 1024, LINK_A) == 0.0

    def test_queued_transfers_keep_their_order(self):
        # Two more transfers queue while the first is waiting (a set
        # stop event returns their waits unslept): each is due when the
        # link has offered everything before it, and the first is not
        # pushed back by what queued behind it.
        arbiter = make(client_floor=0.5)
        stopped = threading.Event()
        stopped.set()
        behind = []

        def sleep(seconds, event):
            if event is None and not behind:
                behind.extend(
                    arbiter.admit(REPAIR, 1000, LINK_A, stop=stopped)
                    for _ in range(2)
                )
            return arbiter.time.sleep(seconds, event)

        arbiter._sleep = sleep
        assert arbiter.admit(REPAIR, 1000, LINK_A) == pytest.approx(1.0)
        assert behind == [pytest.approx(2.0), pytest.approx(3.0)]


class TestFlowsAndLifecycle:
    def test_register_counts_and_unwinds(self):
        arbiter = make()
        assert arbiter.active_flows("repair") == 0
        with arbiter.register("repair"):
            assert arbiter.active_flows("repair") == 1
            with arbiter.register("repair"):
                assert arbiter.active_flows("repair") == 2
        assert arbiter.active_flows("repair") == 0

    def test_register_unwinds_on_exception(self):
        arbiter = make()
        with pytest.raises(RuntimeError):
            with arbiter.register("scrub"):
                raise RuntimeError("boom")
        assert arbiter.active_flows("scrub") == 0

    def test_unknown_class_rejected(self):
        arbiter = make()
        with pytest.raises(ValueError):
            with arbiter.register("bulk"):
                pass  # pragma: no cover

    def test_disabled_when_rate_is_none_or_inf(self):
        for rate in (None, float("inf")):
            arbiter = TrafficArbiter(rate)
            assert arbiter.disabled
            assert arbiter.admit(REPAIR, 1 << 30, LINK_A) == 0.0

    def test_client_floor_validated(self):
        for floor in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                TrafficArbiter(RATE, client_floor=floor)

    def test_zero_byte_transfers_are_free(self):
        arbiter = make()
        assert arbiter.admit(REPAIR, 0, LINK_A) == 0.0

    def test_a_set_stop_event_ends_the_wait_at_once(self):
        stop = threading.Event()
        stop.set()
        arbiter = TrafficArbiter(RATE, burst=0, stop=stop)
        began = time.monotonic()
        # An hour of wait, returned as the delay it would have been.
        assert arbiter.admit(REPAIR, int(3600 * RATE), LINK_A) == (
            pytest.approx(3600.0)
        )
        assert time.monotonic() - began < 1.0

    def test_concurrent_admits_lose_no_update(self):
        # More threads than cores hammering one link's bucket and one
        # client link; a lost read-modify-write shows in the totals.
        registry = MetricsRegistry()
        arbiter = TrafficArbiter(1e12, burst=0, metrics=registry)
        threads, rounds, nbytes = 8, 300, 100

        def worker():
            for _ in range(rounds):
                arbiter.admit(REPAIR, nbytes, LINK_A)
                arbiter.admit(CLIENT, nbytes, LINK_B)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        total = threads * rounds * nbytes
        for key in LINK_A:
            assert arbiter._links[key].buckets["repair"].demand == total
        for key in LINK_B:
            assert arbiter._links[key].busy_total == pytest.approx(
                total / (0.5 * 1e12)
            )
        bytes_total = registry.get("arbiter_bytes_total")
        assert bytes_total.value(cls="repair") == total
        assert bytes_total.value(cls="client") == total


class TestMetrics:
    def test_bytes_wait_and_flows_recorded_per_class(self):
        registry = MetricsRegistry()
        arbiter = make(metrics=registry)
        with arbiter.register("repair"):
            arbiter.admit(REPAIR, 500, LINK_A)
            arbiter.admit(CLIENT, 300, LINK_A)
        by_name = {m.name: m for m in registry}
        assert by_name["arbiter_bytes_total"].value(cls="repair") == 500
        assert by_name["arbiter_bytes_total"].value(cls="client") == 300
        assert by_name["arbiter_wait_seconds"].count(cls="repair") == 1
        assert by_name["arbiter_wait_seconds"].count(cls="client") == 1
        # flows gauge returned to zero after the context exited
        assert by_name["arbiter_active_flows"].value(cls="repair") == 0
        # The harness matches these families on ``cls`` alone.
        for name in (
            "arbiter_bytes_total",
            "arbiter_wait_seconds",
            "arbiter_active_flows",
        ):
            for sample in by_name[name].samples():
                assert set(sample["labels"]) == {"cls"}

    def test_link_waits_say_who_was_throttled_where(self):
        registry = MetricsRegistry()
        arbiter = make(client_floor=0.5, metrics=registry)
        arbiter.admit(CLIENT, 100_000, ((1, "out"),))
        # (1, "out") is clamped to 500 B/s, (4, "in") runs at 1000.
        assert arbiter.admit(REPAIR, 1000, LINK_A_OUT_ONLY) == (
            pytest.approx(2.0)
        )
        waits = registry.get("arbiter_link_wait_seconds")
        assert waits.sum(cls="repair", node=1, dir="out") == (
            pytest.approx(2.0)
        )
        assert waits.sum(cls="repair", node=4, dir="in") == (
            pytest.approx(1.0)
        )
        # Client admits are never delayed and leave no per-link series.
        assert all(
            sample["labels"]["cls"] == "repair" for sample in waits.samples()
        )
        assert registry.get("arbiter_wait_seconds").sum(cls="repair") == (
            pytest.approx(2.0)
        )


class TestFabric:
    """Real threads through a :class:`Network` with 1 MB/s NICs.

    Node 0's egress carries a client stream that keeps four packets
    outstanding (as a GET's fan-out does) and four repair streams; the
    class-blind FIFO NIC alone would split it evenly.  A fifth repair
    stream shares no NIC with any of them.
    """

    NIC = 1e6
    PACKET = 16 * 1024
    SECONDS = 1.0
    FLOOR = 0.7

    def test_client_keeps_its_floor_and_other_links_run_free(self):
        registry = MetricsRegistry()
        net = Network()
        net.arbiter = TrafficArbiter(
            self.NIC,
            client_floor=self.FLOOR,
            burst=self.PACKET,
            metrics=registry,
        )
        for node in range(8):
            net.attach(node, self.NIC)
        payload = bytes(self.PACKET)
        until = time.monotonic() + self.SECONDS
        sent = {}

        def stream(name, src, dst, message):
            packets = 0
            while time.monotonic() < until:
                net.send(src, dst, message)
                packets += 1
            sent[name] = sent.get(name, 0) + packets * self.PACKET

        client = ChunkReadReply(1, 0, 0, 0, payload)
        repair = DataPacket(1, 0, 0, 0, payload)
        streams = [
            threading.Thread(target=stream, args=("client", 0, 1, client))
            for _ in range(4)
        ] + [
            threading.Thread(target=stream, args=("clamped", 0, dst, repair))
            for dst in (2, 5, 6, 7)
        ] + [
            threading.Thread(target=stream, args=("free", 3, 4, repair)),
        ]
        for thread in streams:
            thread.start()
        for thread in streams:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        # Scheduling noise and the one-packet burst get a margin below
        # the floor; an even split would read 0.5.
        shared = sent["client"] + sent["clamped"]
        assert sent["client"] / shared >= self.FLOOR - 0.08
        waits = registry.get("arbiter_link_wait_seconds")
        assert waits.sum(cls="repair", node=0, dir="out") > 0.0
        # The disjoint stream had the whole line: no arbiter wait on
        # its links and about a NIC-second of bytes.
        assert waits.sum(cls="repair", node=3, dir="out") == 0.0
        assert waits.sum(cls="repair", node=4, dir="in") == 0.0
        assert sent["free"] >= 0.8 * self.NIC * self.SECONDS
