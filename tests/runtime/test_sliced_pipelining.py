"""Sliced chained reconstruction: slice size, chain order, fallback.

The sliced pipelining path (DESIGN.md §14) moves each chunk down a
bandwidth-ordered helper chain in ``pipeline_slices`` slices.  A slice
is a packet: the coordinator sizes a chain's packets at
``ceil(chunk / pipeline_slices)`` and nothing else knows about slicing.
These tests pin that and the three load-bearing properties end to end:

* **bit-exactness** — chained slice-granular partial sums produce the
  same bytes as one-shot decode, under reordering, duplication and
  in-flight corruption of individual slices;
* **chain scheduling** — the coordinator orders every chain of a round
  by ``link scale / ingress streams``, lowest first: the per-node
  scales the injector and cost model use
  (``FaultPlan.link_bandwidths``) folded with runtime-observed
  degradation, over the ingress duties of the whole round, so a helper
  that also receives a chunk this round heads its chain;
* **fallback** — a chain helper killed mid-stream degrades the action
  to star fan-in and the repaired chunk is still byte-identical.
"""

import dataclasses
import tempfile
import threading
import time
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import apply_pipelining
from repro.cluster import StorageCluster
from repro.core.plan import RepairMethod
from repro.core.planner import (
    FastPRPlanner,
    ReconstructionOnlyPlanner,
)
from repro.core.scheduling import ingress_streams, order_chain
from repro.ec import make_codec
from repro.ec.galois import gf_addmul_bytes
from repro.runtime import (
    CrashFault,
    FaultInjector,
    FaultPlan,
    LinkFault,
    RuntimeConfig,
    Scrubber,
    SlowNicFault,
)
from repro.runtime.agent import _Assembly, _Stream
from repro.runtime.coordinator import Coordinator
from repro.runtime.datanode import ChunkStore
from repro.runtime.messages import DataPacket, ReceiveCommand, SendCommand
from repro.runtime.testbed import EmulatedTestbed
from repro.runtime.throttle import RateLimiter
from repro.runtime.transport import Network
from repro.obs import MetricsRegistry, Tracer, breakdown_from_trace, render_breakdown
from repro.sim.cost_model import evaluate_plan

CHUNK = 16 * 1024
SLICES = 4

#: tight timings so chain-kill detection happens in test time
FAST = RuntimeConfig(
    ack_timeout=1.5,
    join_timeout=5.0,
    deadline_margin=4.0,
    min_deadline=0.8,
    max_retries=3,
    backoff_base=0.05,
    backoff_factor=2.0,
    backoff_cap=0.2,
    probe_timeout=0.4,
    heartbeat_interval=0.1,
    poll_interval=0.05,
)
#: the same timings with slice-granular chained streaming enabled
SLICED = dataclasses.replace(FAST, pipeline_slices=SLICES)

relaxed = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_cluster(num_stripes=8, seed=21, network_bandwidth=1e9):
    cluster = StorageCluster.random(
        num_nodes=10,
        num_stripes=num_stripes,
        n=5,
        k=3,
        num_hot_standby=2,
        seed=seed,
        disk_bandwidth=1e9,
        network_bandwidth=network_bandwidth,
        chunk_size=CHUNK,
    )
    cluster.node(0).mark_soon_to_fail()
    return cluster


def chained_plan(planner, cluster, stf=0):
    """``planner``'s plan for ``stf`` with every reconstruction chained."""
    return apply_pipelining(planner.plan(cluster, stf), "chain")


def make_testbed(
    tmp_path, faults=None, config=SLICED, packet_size=CHUNK // 4, **kw
):
    cluster = make_cluster(**kw)
    testbed = EmulatedTestbed(
        cluster,
        make_codec("rs(5,3)"),
        packet_size=packet_size,
        workdir=tmp_path / "bed",
        config=config,
        faults=faults,
    )
    testbed.start()
    testbed.load_random_data(seed=1)
    return cluster, testbed


def _issued_packet_sizes(slices, chunk_size=1 << 20, packet_size=4096):
    """Packet sizes the coordinator puts on one action's commands.

    Returns ``{"chain": {...}, "star": {...}}``: the ``packet_size``
    of every Receive/SendCommand it sends for one reconstruction
    issued as a chain and as star fan-in, at ``pipeline_slices =
    slices``.
    """
    cluster, network, sent = make_cluster(), Network(), []
    coord = Coordinator(
        network, cluster, make_codec("rs(5,3)"), packet_size=packet_size,
        config=dataclasses.replace(FAST, pipeline_slices=slices),
    )
    network.send = lambda src, dst, message: sent.append(message)
    plan = ReconstructionOnlyPlanner(seed=1).plan(cluster, 0)
    action = plan.rounds[0].reconstructions[0]
    sizes = {}
    for topology, chain in (("chain", list(action.sources)), ("star", None)):
        sent.clear()
        coord._issue_action(action, chain, chunk_size, packet_size, 0)
        assert {type(m) for m in sent} == {ReceiveCommand, SendCommand}
        sizes[topology] = {m.packet_size for m in sent}
    return sizes


class TestSliceGranularity:
    """A slice is a packet, sized by the coordinator alone."""

    def test_zero_slices_keeps_packet_size(self):
        assert _issued_packet_sizes(0) == {"chain": {4096}, "star": {4096}}

    def test_even_split(self):
        sizes = _issued_packet_sizes(4)
        assert sizes == {"chain": {(1 << 20) // 4}, "star": {4096}}

    def test_rounds_up_so_last_slice_runs_short(self):
        # 100 bytes in 3 slices -> 34-byte packets, slices of
        # 34 + 34 + 32; ceil keeps the count at pipeline_slices.
        sizes = _issued_packet_sizes(3, chunk_size=100)
        assert sizes["chain"] == {34}
        assert (100 + 34 - 1) // 34 == 3

    def test_more_slices_than_bytes_clamps_to_one_byte(self):
        assert _issued_packet_sizes(64, chunk_size=2)["chain"] == {1}

    def test_slice_is_a_packet(self, tmp_path):
        # A whole run at pipeline_slices=4 with the driver's packet at
        # an eighth of a chunk: every chained command carries a quarter
        # chunk, every star and migration command the driver's size.
        cluster, testbed = make_testbed(tmp_path, packet_size=CHUNK // 8)
        try:
            plan = chained_plan(FastPRPlanner(seed=1), cluster)
            plan.rounds[0].reconstructions[0] = dataclasses.replace(
                plan.rounds[0].reconstructions[0], pipelined=False
            )
            methods = {a.method for a in plan.actions()}
            assert methods == {
                RepairMethod.RECONSTRUCTION, RepairMethod.MIGRATION
            }
            commands = _record_commands(testbed)
            result = testbed.execute(plan)
            testbed.verify_plan(plan, result)
            assert not result.degraded
            by_action = {
                (a.stripe_id, a.chunk_index): a for a in plan.actions()
            }
            seen = set()
            for message in commands:
                action = by_action[message.key]
                want = -(-CHUNK // SLICES) if action.pipelined else CHUNK // 8
                assert message.packet_size == want, (action, message)
                seen.add((action.method, action.pipelined))
            assert seen == {
                (RepairMethod.RECONSTRUCTION, True),
                (RepairMethod.RECONSTRUCTION, False),
                (RepairMethod.MIGRATION, False),
            }
        finally:
            testbed.shutdown()


class TestOrderChain:
    def test_slowest_link_first(self):
        chain = order_chain([5, 3, 7], {3: 0.25, 7: 0.5, 5: 1.0})
        assert chain == [3, 7, 5]

    def test_uniform_weights_keep_original_order(self):
        helpers = [9, 2, 6, 4]
        assert order_chain(helpers, {n: 1.0 for n in helpers}) == helpers
        assert order_chain(helpers, None) == helpers
        assert order_chain(helpers, {}) == helpers

    def test_missing_nodes_sort_to_the_tail(self):
        # Unweighted nodes run at full speed: never ahead of a
        # degraded one, and stable among themselves.
        assert order_chain([1, 2, 3], {2: 0.9}) == [2, 1, 3]

    def test_input_not_mutated(self):
        helpers = [4, 1]
        order_chain(helpers, {4: 0.1})
        assert helpers == [4, 1]


class TestLinkBandwidths:
    def test_multiplicative_compose_per_node(self):
        plan = FaultPlan(
            slow_nics=[
                SlowNicFault(node=3, factor=0.5),
                SlowNicFault(node=3, factor=0.5, at_time=1.0),
                SlowNicFault(node=7, factor=0.25),
            ]
        )
        # Steady state folds every fault, exactly as the injector
        # multiplies the limiter rate twice.
        assert plan.link_bandwidths() == {3: 0.25, 7: 0.25}

    def test_at_time_filters_undue_faults(self):
        plan = FaultPlan(
            slow_nics=[
                SlowNicFault(node=3, factor=0.5),
                SlowNicFault(node=3, factor=0.5, at_time=10.0),
            ]
        )
        assert plan.link_bandwidths(at_time=0.0) == {3: 0.5}
        assert plan.link_bandwidths(at_time=10.0) == {3: 0.25}

    def test_clean_nodes_are_omitted(self):
        assert FaultPlan().link_bandwidths() == {}


class TestChainWeights:
    """The coordinator folds fault-plan and observed scales."""

    def _coordinator(self, faults=None):
        cluster = make_cluster()
        net = Network(faults=faults)
        return Coordinator(
            net, cluster, make_codec("rs(5,3)"), packet_size=CHUNK // 4,
            config=SLICED,
        )

    def test_fault_plan_scales_surface(self):
        plan = FaultPlan(slow_nics=[SlowNicFault(node=3, factor=0.25)])
        coord = self._coordinator(faults=FaultInjector(plan))
        assert coord._chain_weights() == {3: 0.25}

    def test_observed_degradation_composes(self):
        plan = FaultPlan(slow_nics=[SlowNicFault(node=3, factor=0.5)])
        coord = self._coordinator(faults=FaultInjector(plan))
        coord._observed_scales[3] = 0.5   # probe-surviving stall
        coord._observed_scales[7] = 0.5
        weights = coord._chain_weights()
        assert weights == {3: 0.25, 7: 0.5}
        # ... and those weights place the degraded nodes at the head.
        assert order_chain([5, 3, 7], weights) == [3, 7, 5]

    def test_no_faults_no_observations_means_no_reorder(self):
        coord = self._coordinator(faults=None)
        assert coord._chain_weights() == {}


def _sliced_command(sources, chunk_size=256, packet_size=256 // SLICES):
    return ReceiveCommand(
        stripe_id=0,
        chunk_index=0,
        chunk_size=chunk_size,
        packet_size=packet_size,
        sources=sources,
    )


def _slice_packets(command, chunks):
    """Build the full slice-packet stream for an assembly."""
    size = command.packet_size
    packets = []
    for source, chunk in chunks.items():
        for offset in range(0, command.chunk_size, size):
            payload = bytes(chunk[offset : offset + size])
            packets.append(
                DataPacket(
                    stripe_id=command.stripe_id,
                    chunk_index=command.chunk_index,
                    source=source,
                    offset=offset,
                    payload=payload,
                    checksum=zlib.crc32(payload),
                )
            )
    return packets


def _run_assembly(tmp_path, command, packets):
    """Drive one _Assembly to completion; return the promoted bytes."""
    store = ChunkStore(tmp_path / "dest", 1, RateLimiter(1e9))
    assembly = _Assembly(command, store)
    thread = threading.Thread(target=assembly.run, daemon=True)
    thread.start()
    for packet in packets:
        assembly.packets.put(packet)
    thread.join(timeout=10.0)
    assert not thread.is_alive(), "assembly never completed"
    assembly.staged.promote()
    return store.read_packet(command.stripe_id, 0, command.chunk_size)


def _expected(command, chunks):
    out = np.zeros(command.chunk_size, dtype=np.uint8)
    for source, coeff in command.sources.items():
        gf_addmul_bytes(out, coeff, np.frombuffer(chunks[source],
                                                  dtype=np.uint8))
    return out.tobytes()


class TestSliceAssembly:
    """Unit-level bit-exactness of slice-granular assembly."""

    def _chunks(self, sources, size, seed=0):
        rng = np.random.default_rng(seed)
        return {
            s: rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            for s in sources
        }

    def test_in_order_slices_decode_bit_exact(self, tmp_path):
        command = _sliced_command({2: 7, 3: 91, 4: 200})
        chunks = self._chunks(command.sources, command.chunk_size)
        got = _run_assembly(tmp_path, command,
                            _slice_packets(command, chunks))
        assert got == _expected(command, chunks)

    def test_reordered_slices_decode_bit_exact(self, tmp_path):
        command = _sliced_command({2: 7, 3: 91})
        chunks = self._chunks(command.sources, command.chunk_size, seed=1)
        packets = _slice_packets(command, chunks)
        packets.reverse()  # fully out of order across sources and slices
        got = _run_assembly(tmp_path, command, packets)
        assert got == _expected(command, chunks)

    def test_duplicate_slices_apply_once(self, tmp_path):
        # A duplicated slice must not double-apply its coefficient
        # (GF addmul twice would cancel the contribution).
        command = _sliced_command({2: 7, 3: 91})
        chunks = self._chunks(command.sources, command.chunk_size, seed=2)
        packets = _slice_packets(command, chunks)
        packets = packets + packets[:3]
        got = _run_assembly(tmp_path, command, packets)
        assert got == _expected(command, chunks)

    def test_corrupt_slice_dropped_retransmit_lands(self, tmp_path):
        command = _sliced_command({2: 7, 3: 91})
        chunks = self._chunks(command.sources, command.chunk_size, seed=3)
        packets = _slice_packets(command, chunks)
        good = packets[0]
        bad = dataclasses.replace(
            good,
            payload=bytes(len(good.payload)),   # zeroed in flight
            # checksum still matches the original payload
        )
        got = _run_assembly(tmp_path, command, [bad] + packets)
        assert got == _expected(command, chunks)


def _run_chain(root, chunks, coeffs, packet_size):
    """Stream ``chunks`` (helper -> its chunk, head first) through real
    :class:`_Stream` stages wired head to tail; returns what the last
    stage delivers."""
    helpers = list(chunks)
    size = len(chunks[helpers[0]])
    delivered = np.zeros(size, dtype=np.uint8)
    stages = {}

    def send(src, dst, packet):
        if dst in stages:
            stages[dst].packets.put(packet)
        else:
            end = packet.offset + len(packet.payload)
            delivered[packet.offset : end] = np.frombuffer(
                packet.payload, dtype=np.uint8
            )

    network = SimpleNamespace(send=send)
    sent = MetricsRegistry().counter("agent_bytes_sent_total")
    for pos, helper in enumerate(helpers):
        store = ChunkStore(root / f"n{helper}", helper, RateLimiter(None))
        store.put(0, chunks[helper])
        agent = SimpleNamespace(
            node_id=helper, ack_timeout=5.0, network=network, _bytes_sent=sent
        )
        command = SendCommand(
            0, 0,
            destination=helpers[pos + 1] if pos + 1 < len(helpers) else -1,
            packet_size=packet_size, chunk_size=size, coeff=coeffs[helper],
            upstream=helpers[pos - 1] if pos else -1, chain_pos=pos,
        )
        stages[helper] = _Stream(command, store, agent)
    threads = [threading.Thread(target=s.run) for s in stages.values()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "chain stage never finished"
    return delivered.tobytes()


class TestChainedSliceMath:
    """The chain's partial sums equal one-shot decode, by property."""

    @given(
        params=st.sampled_from([(5, 3), (6, 4), (9, 6)]),
        seed=st.integers(0, 2**32 - 1),
        chunk_size=st.integers(17, 257),
        slices=st.integers(1, 9),
    )
    @relaxed
    def test_chained_partial_sums_match_one_shot_decode(
        self, params, seed, chunk_size, slices
    ):
        n, k = params
        rng = np.random.default_rng(seed)
        data = [
            rng.integers(0, 256, size=chunk_size, dtype=np.uint8).tobytes()
            for _ in range(k)
        ]
        codec = make_codec(f"rs({n},{k})")
        coded = codec.encode(data)
        lost = int(rng.integers(0, n))
        helpers = [int(i) for i in rng.permutation(n) if i != lost][:k]
        coeffs = codec.recovery_coefficients(lost, helpers)

        # The agents' own stream body, stage by stage: the head scales
        # its slice; every later hop scales its own and XORs in the
        # upstream partial sum.
        with tempfile.TemporaryDirectory() as root:
            chained = _run_chain(
                Path(root), {h: coded[h] for h in helpers}, coeffs,
                -(-chunk_size // slices),
            )

        # One-shot accumulation over whole chunks (the star path) ...
        one_shot = np.zeros(chunk_size, dtype=np.uint8)
        for helper in helpers:
            gf_addmul_bytes(
                one_shot, coeffs[helper],
                np.frombuffer(coded[helper], dtype=np.uint8),
            )
        assert chained == one_shot.tobytes()
        # ... and both equal the chunk that was lost.
        assert chained == coded[lost]


class TestSlicedChainedRepair:
    """Whole-testbed runs with slice streaming on."""

    def test_sliced_chain_repairs_byte_identical(self, tmp_path):
        cluster, testbed = make_testbed(tmp_path, packet_size=CHUNK // 8)
        try:
            plan = chained_plan(ReconstructionOnlyPlanner(seed=1), cluster)
            commands = _record_commands(testbed)
            result = testbed.execute(plan)
            testbed.verify_plan(plan, result)
            assert Scrubber(testbed).scan().clean
            assert not result.degraded
            # Every chained chunk crossed its chain in SLICES packets.
            assert {m.packet_size for m in commands} == {CHUNK // SLICES}
        finally:
            testbed.shutdown()

    @pytest.mark.parametrize("pipelined", [False, True], ids=["star", "chain"])
    def test_no_write_ack_outlives_its_repair(self, tmp_path, pipelined):
        # Only a star/migration stream waits for WriteComplete.  A
        # chain's last stage is sent one too and must not be left
        # holding an entry nobody awaits: a daemon would grow it forever.
        cluster, testbed = make_testbed(tmp_path, num_stripes=16)
        try:
            plan = apply_pipelining(
                ReconstructionOnlyPlanner(seed=1).plan(cluster, 0),
                "chain" if pipelined else "off",
            )
            result = testbed.execute(plan)
            testbed.verify_plan(plan, result)
            agents = testbed.agents.values()
            deadline = time.monotonic() + 5.0
            while any(agent._write_acks for agent in agents):
                assert time.monotonic() < deadline, [
                    len(agent._write_acks) for agent in agents
                ]
                time.sleep(0.01)
        finally:
            testbed.shutdown()

    def test_star_plan_reports_no_slices(self, tmp_path):
        # Slicing is a property of chains: a star plan on a sliced
        # config moves the driver's packets.
        cluster, testbed = make_testbed(tmp_path, packet_size=CHUNK // 8)
        try:
            plan = ReconstructionOnlyPlanner(seed=1).plan(cluster, 0)
            commands = _record_commands(testbed)
            result = testbed.execute(plan)
            testbed.verify_plan(plan, result)
            assert {m.packet_size for m in commands} == {CHUNK // 8}
        finally:
            testbed.shutdown()

    def test_duplicated_slices_are_harmless(self, tmp_path):
        cluster, testbed = make_testbed(
            tmp_path,
            faults=FaultPlan(links=[LinkFault(duplicate=0.5)], seed=3),
            num_stripes=6,
        )
        try:
            plan = chained_plan(ReconstructionOnlyPlanner(seed=1), cluster)
            result = testbed.execute(plan)
            testbed.verify_plan(plan, result)
            assert Scrubber(testbed).scan().clean
            assert testbed.faults.stats["duplicated"] >= 1
            assert not result.degraded  # dedupe, not retries
        finally:
            testbed.shutdown()

    def test_chain_helper_killed_mid_stream_falls_back_to_star(
        self, tmp_path
    ):
        # Pick a chain helper from an identical (deterministic) plan and
        # kill it after the first slices went out.
        preview = chained_plan(
            ReconstructionOnlyPlanner(seed=1), make_cluster()
        )
        helper = next(iter(preview.actions())).sources[0]
        assert helper != 0
        crash = CrashFault(node=helper, after_sent_bytes=CHUNK // 2)
        cluster, testbed = make_testbed(
            tmp_path, faults=FaultPlan(crashes=[crash])
        )
        try:
            plan = chained_plan(ReconstructionOnlyPlanner(seed=1), cluster)
            result = testbed.execute(plan)
            # Byte-identical despite the dead chain link.
            testbed.verify_plan(plan, result)
            assert Scrubber(testbed).scan().clean
            assert result.dead_nodes == [helper]
            assert result.replans >= 1
            # Healed actions degraded to star fan-in without the dead
            # helper; untouched ones stayed chained.
            healed = [
                a for a in result.executed_actions
                if helper not in a.sources and not a.pipelined
            ]
            assert healed
            # No executed action still reads from the dead helper.
            assert all(
                helper not in a.sources for a in result.executed_actions
            )
        finally:
            testbed.shutdown()


def _shared_ingress(plan):
    """``(chain, node)`` pairs of round 0 where ``node`` helps ``chain``
    and is a sibling action's destination."""
    round_ = plan.rounds[0]
    destinations = {a.destination for a in round_.actions()}
    return [
        (action, node)
        for action in round_.reconstructions
        for node in action.sources
        if node in destinations
    ]


def _record_commands(testbed):
    """Every Receive/SendCommand the coordinator sends, in order."""
    commands = []
    send = testbed.network.send

    def recording_send(src, dst, message):
        if isinstance(message, (ReceiveCommand, SendCommand)):
            commands.append(message)
        return send(src, dst, message)

    testbed.network.send = recording_send
    return commands


def _record_relay_heads(testbed):
    """Record ``(stripe, chunk, attempt) -> node`` for every chain head
    (``SendCommand(chain_pos=0)``) the coordinator sends."""
    heads = {}
    send = testbed.network.send

    def recording_send(src, dst, message):
        if isinstance(message, SendCommand) and message.chain_pos == 0:
            key = (message.stripe_id, message.chunk_index, message.attempt)
            heads[key] = dst
        return send(src, dst, message)

    testbed.network.send = recording_send
    return heads


class TestRoundLevelChainOrder:
    """A helper that also receives a chunk this round heads its chain.

    RS(5,3) on nine healthy nodes packs three chains = nine helper
    slots into round 0, so every destination is a sibling chain's
    helper — and the plan lists each of them mid-chain or at the tail.
    """

    #: 16 KiB chunks on 2 MB/s NICs: ingress is what the round waits for
    THROTTLED = dict(network_bandwidth=2e6)

    def _plan(self, cluster):
        plan = chained_plan(ReconstructionOnlyPlanner(seed=1), cluster)
        shared = _shared_ingress(plan)
        assert shared, "fixture lost its shared-ingress round"
        # Plan order alone would leave every one of them ingesting twice.
        assert all(node != chain.sources[0] for chain, node in shared)
        return plan, shared

    def test_double_duty_helper_heads_its_chain(self, tmp_path):
        metrics, tracer = MetricsRegistry(), Tracer()
        cluster = make_cluster(**self.THROTTLED)
        testbed = EmulatedTestbed(
            cluster, make_codec("rs(5,3)"), packet_size=CHUNK // 4,
            workdir=tmp_path / "bed", config=SLICED,
            metrics=metrics, tracer=tracer,
        )
        testbed.start()
        try:
            testbed.load_random_data(seed=1)
            plan, shared = self._plan(cluster)
            heads = _record_relay_heads(testbed)
            result = testbed.execute(plan)
            testbed.verify_plan(plan, result)
            assert Scrubber(testbed).scan().clean
            assert not result.degraded
            for chain, node in shared:
                key = (chain.stripe_id, chain.chunk_index, 0)
                assert heads[key] == node
            # Observability: no NIC of any round ingested two streams,
            # and the trace and the metrics both say so.
            rounds = tracer.spans("round")
            assert [r.attrs["max_ingress_streams"] for r in rounds] == [
                1
            ] * plan.num_rounds
            shared_counter = metrics.get("repair_chain_shared_ingress_total")
            assert shared_counter.total() == 0
            report = breakdown_from_trace(tracer.to_dict())
            assert [r.max_ingress_streams for r in report.rounds] == [
                1
            ] * plan.num_rounds
            assert "ingress" in render_breakdown(report).splitlines()[1]
        finally:
            testbed.shutdown()

    def test_two_destinations_in_one_chain_are_counted(self, tmp_path):
        # Round 0 of this cluster has a chain with two sibling
        # destinations among its three helpers; only one can be head.
        metrics, tracer = MetricsRegistry(), Tracer()
        cluster = make_cluster(num_stripes=12, seed=23)
        testbed = EmulatedTestbed(
            cluster, make_codec("rs(5,3)"), packet_size=CHUNK // 4,
            workdir=tmp_path / "bed", config=SLICED,
            metrics=metrics, tracer=tracer,
        )
        testbed.start()
        try:
            testbed.load_random_data(seed=1)
            plan = chained_plan(ReconstructionOnlyPlanner(seed=1), cluster)
            expected = [
                max(ingress_streams(r.actions()).values())
                for r in plan.rounds
            ]
            assert expected[0] == 2 and set(expected[1:]) == {1}
            result = testbed.execute(plan)
            testbed.verify_plan(plan, result)
            assert not result.degraded
            rounds = tracer.spans("round")
            assert [
                r.attrs["max_ingress_streams"] for r in rounds
            ] == expected
            # The sharing node is a non-head helper of one chain and
            # the destination of another: both chains run at half rate.
            shared_counter = metrics.get("repair_chain_shared_ingress_total")
            assert shared_counter.total() == 2
        finally:
            testbed.shutdown()

    def test_head_killed_mid_stream_heals_to_star(self, tmp_path):
        plan, shared = self._plan(make_cluster(**self.THROTTLED))
        chain, node = shared[0]
        crash = CrashFault(node=node, after_sent_bytes=CHUNK // 2)
        cluster, testbed = make_testbed(
            tmp_path, faults=FaultPlan(crashes=[crash]), **self.THROTTLED
        )
        try:
            plan, _ = self._plan(cluster)
            heads = _record_relay_heads(testbed)
            result = testbed.execute(plan)
            testbed.verify_plan(plan, result)
            assert Scrubber(testbed).scan().clean
            assert heads[chain.stripe_id, chain.chunk_index, 0] == node
            assert result.dead_nodes == [node]
            assert result.replans >= 1
            executed = {
                (a.stripe_id, a.chunk_index): a
                for a in result.executed_actions
            }
            healed = executed[chain.stripe_id, chain.chunk_index]
            assert not healed.pipelined and node not in healed.sources
            # Nothing still reads from, or writes to, the dead node.
            assert all(
                node not in a.sources and node != a.destination
                for a in result.executed_actions
            )
        finally:
            testbed.shutdown()


class TestApplyPipelining:
    def test_chain_marks_reconstructions_only(self):
        cluster = make_cluster()
        plan = FastPRPlanner(seed=1).plan(cluster, 0)
        chained = apply_pipelining(plan, "chain")
        assert all(a.pipelined for r in chained.rounds
                   for a in r.reconstructions)
        for before, after in zip(plan.rounds, chained.rounds):
            assert after.migrations == list(before.migrations)
            assert after.index == before.index
        # The input plan is untouched.
        assert all(not a.pipelined for r in plan.rounds
                   for a in r.reconstructions)

    def test_off_clears_the_flag(self):
        cluster = make_cluster()
        plan = chained_plan(ReconstructionOnlyPlanner(seed=1), cluster)
        cleared = apply_pipelining(plan, "off")
        assert all(not a.pipelined for a in cleared.actions())

    def test_unknown_mode_rejected(self):
        cluster = make_cluster()
        plan = FastPRPlanner(seed=1).plan(cluster, 0)
        with pytest.raises(ValueError, match="pipelining"):
            apply_pipelining(plan, "mesh")


class TestCostModelLinkScales:
    """Chained rounds are priced off their least ``scale / streams``.

    With c/bd = 10 and c/bn = 4: a star round costs 2*10 + 6*4 = 44, a
    chained round whose busiest NIC ingests ``m`` streams at link scale
    ``s`` costs 2*10 + m*4/s.  Round 0 of this fixture *does* share
    ingress after head selection (its third chain has two sibling
    destinations, nodes 1 and 0, among its helpers; only one can be the
    head), so it costs 20 + 2*4 = 28; round 3 shares nothing: 24.
    """

    SHARED, CLEAN = 0, 3

    def _plans(self):
        cluster = StorageCluster.random(
            20, 60, 9, 6, seed=95, disk_bandwidth=100.0,
            network_bandwidth=250.0, chunk_size=1000,
        )
        stf = max(cluster.storage_node_ids(), key=cluster.load_of)
        cluster.node(stf).mark_soon_to_fail()
        star = ReconstructionOnlyPlanner(seed=0).plan(cluster, stf)
        pipe = apply_pipelining(star, "chain")
        streams = [
            max(ingress_streams(r.actions()).values()) for r in pipe.rounds
        ]
        assert (streams[self.SHARED], streams[self.CLEAN]) == (2, 1)
        return cluster, star, pipe

    def _spare(self, cluster, round_):
        involved = set()
        for action in round_.reconstructions:
            involved.update(action.sources)
            involved.add(action.destination)
        return next(
            n for n in cluster.storage_node_ids() if n not in involved
        )

    def test_shared_ingress_stretches_chained_round(self):
        cluster, _, pipe = self._plans()
        times = evaluate_plan(cluster, pipe).round_times
        assert times[self.CLEAN] == 24.0
        assert times[self.SHARED] == 28.0

    def test_slow_link_stretches_chained_round(self):
        cluster, _, pipe = self._plans()
        # A clean-round helper whose only stream is its chain's: at half
        # scale it is that chain's head *and* the round's slowest hop
        # (its upload), so the network term doubles: 20 + 4/0.5.
        slow = next(
            n for a in pipe.rounds[self.CLEAN].reconstructions
            for n in a.sources
            if ingress_streams(pipe.rounds[self.CLEAN].actions())[n] == 1
        )
        scaled = evaluate_plan(cluster, pipe, link_scales={slow: 0.5})
        assert scaled.round_times[self.CLEAN] == 28.0
        # One quarter-rate link costs more than two shared streams.
        slow = pipe.rounds[self.SHARED].reconstructions[0].sources[0]
        scaled = evaluate_plan(cluster, pipe, link_scales={slow: 0.25})
        assert scaled.round_times[self.SHARED] == pytest.approx(36.0)

    def test_star_rounds_ignore_link_scales(self):
        cluster, star, _ = self._plans()
        slow = star.rounds[0].reconstructions[0].sources[0]
        scaled = evaluate_plan(cluster, star, link_scales={slow: 0.5})
        assert scaled.round_times[0] == 44.0

    def test_uninvolved_nodes_do_not_change_pricing(self):
        cluster, _, pipe = self._plans()
        spare = self._spare(cluster, pipe.rounds[self.CLEAN])
        scaled = evaluate_plan(cluster, pipe, link_scales={spare: 0.01})
        assert scaled.round_times[self.CLEAN] == 24.0

    def test_round_with_one_action_healed_to_star_is_priced_as_star(self):
        # heal/replan demotes single actions to star fan-in; the round
        # then waits for that destination's k = 6 streams, not for the
        # chains — and not for "all star" bookkeeping either.
        cluster, star, pipe = self._plans()
        round_ = pipe.rounds[self.CLEAN]
        round_.reconstructions[0] = dataclasses.replace(
            round_.reconstructions[0], pipelined=False
        )
        times = evaluate_plan(cluster, pipe).round_times
        assert times[self.CLEAN] == pytest.approx(44.0)
        assert times[self.CLEAN] == pytest.approx(
            evaluate_plan(cluster, star).round_times[self.CLEAN]
        )
        assert times[self.SHARED] == 28.0
