"""Crash-recoverable repair: journal, epochs, and resumable runs.

The acceptance bar for the recovery subsystem: kill the coordinator
after *any* journal record, recover from the journal, and the repair
finishes with byte-identical chunks and no action executed twice.  A
fenced stale-epoch coordinator must not be able to mutate any agent's
store.
"""

import json
import os
import shutil
import struct
import threading
import zlib

import pytest

from repro.cluster import StorageCluster
from repro.ec import make_codec
from repro.core.planner import FastPRPlanner
from repro.runtime import (
    COORDINATOR_ID,
    ActionCompleted,
    CoordinatorCrash,
    CoordinatorCrashFault,
    FaultPlan,
    InventoryQuery,
    InventoryReply,
    JournalError,
    PlanCommitted,
    ReceiveCommand,
    RepairAck,
    RepairFinished,
    RepairJournal,
    RoundCompleted,
    RoundStarted,
    RuntimeConfig,
    Scrubber,
)
from repro.runtime.coordinator import Coordinator
from repro.runtime.testbed import EmulatedTestbed

CHUNK = 16 * 1024

#: tight timings so crash recovery happens in test time, not ops time
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
    journal_fsync="never",  # crash *points*, not power-failure durability
    inventory_timeout=2.0,
)


def make_cluster(num_stripes=6, seed=21):
    cluster = StorageCluster.random(
        num_nodes=10,
        num_stripes=num_stripes,
        n=5,
        k=3,
        num_hot_standby=2,
        seed=seed,
        disk_bandwidth=1e9,
        network_bandwidth=1e9,
        chunk_size=CHUNK,
    )
    cluster.node(0).mark_soon_to_fail()
    return cluster


def make_testbed(tmp_path, faults=None, journal=True, **kw):
    cluster = make_cluster(**kw)
    testbed = EmulatedTestbed(
        cluster,
        make_codec("rs(5,3)"),
        packet_size=CHUNK // 4,
        workdir=tmp_path / "bed",
        config=FAST,
        faults=faults,
        journal_path=(tmp_path / "repair.journal") if journal else None,
    )
    testbed.start()
    testbed.load_random_data(seed=1)
    return cluster, testbed


def assert_no_double_execution(testbed):
    """Every chunk was promoted at most once across the whole run."""
    for node_id, store in testbed.stores.items():
        for stripe_id, count in store.promotions.items():
            assert count <= 1, (
                f"node {node_id} promoted stripe {stripe_id} {count} times: "
                "an action was executed twice"
            )


# ----------------------------------------------------------------------
# journal unit tests
# ----------------------------------------------------------------------


class TestJournal:
    RECORDS = [
        PlanCommitted(0, {"stf_node": 0, "scenario": "scattered", "rounds": []}, 4096),
        RoundStarted(0, 0),
        ActionCompleted(
            0,
            0,
            {
                "stripe_id": 3,
                "chunk_index": 1,
                "method": "migration",
                "sources": [0],
                "destination": 7,
                "pipelined": False,
            },
            0,
        ),
        RoundCompleted(0, 0),
        RepairFinished(0),
    ]

    def write(self, path, records=None):
        with RepairJournal(path, fsync="never") as journal:
            for record in records or self.RECORDS:
                journal.append(record)

    def test_round_trip_all_record_types(self, tmp_path):
        path = tmp_path / "j"
        self.write(path)
        assert RepairJournal.replay(path) == self.RECORDS

    def test_replay_missing_file_is_empty(self, tmp_path):
        assert RepairJournal.replay(tmp_path / "absent") == []

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "j"
        self.write(path)
        intact = path.stat().st_size
        with open(path, "ab") as f:  # a crash mid-append: partial frame
            f.write(struct.pack("<II", 500, 0) + b"torn")
        assert RepairJournal.replay(path) == self.RECORDS
        assert path.stat().st_size == intact  # tail cut back
        # Appends after recovery extend a clean log.
        with RepairJournal(path, fsync="never") as journal:
            journal.append(RoundStarted(1, 1))
        assert RepairJournal.replay(path) == self.RECORDS + [RoundStarted(1, 1)]

    def test_crc_corruption_stops_replay(self, tmp_path):
        path = tmp_path / "j"
        self.write(path)
        blob = bytearray(path.read_bytes())
        # Flip a payload byte of the second record.
        first_len = struct.unpack_from("<II", blob, 0)[0]
        offset = 8 + first_len + 8 + 2
        blob[offset] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert RepairJournal.replay(path) == self.RECORDS[:1]

    def test_record_of_unknown_type_fails_loudly(self, tmp_path):
        # An intact record this version cannot read (slice_completed
        # was journaled per slice by older versions) is not a torn
        # tail: replay raises naming it and leaves the file whole.
        unknown = {
            "slice_completed": {
                "epoch": 0, "round_index": 0, "stripe_id": 3,
                "chunk_index": 1, "slice_index": 2, "num_slices": 4,
                "attempt": 0,
            },
            "no_such_record": {"epoch": 0},
        }
        for name, fields in unknown.items():
            path = tmp_path / name
            self.write(path, self.RECORDS[:2])
            payload = json.dumps({"type": name, **fields}).encode()
            with open(path, "ab") as f:
                f.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
                f.write(payload)
            self.write(path, self.RECORDS[2:])
            size = path.stat().st_size
            with pytest.raises(JournalError, match=repr(name)):
                RepairJournal.replay(path)
            assert path.stat().st_size == size

    def test_double_replay_is_idempotent(self, tmp_path):
        path = tmp_path / "j"
        self.write(path)
        with open(path, "ab") as f:
            f.write(b"\x01\x02")  # torn header
        first = RepairJournal.replay(path)
        second = RepairJournal.replay(path)
        assert first == second == self.RECORDS

    def test_crash_after_records_trips_exactly_then(self, tmp_path):
        journal = RepairJournal(
            tmp_path / "j", fsync="never", crash_after_records=2
        )
        journal.append(self.RECORDS[0])
        with pytest.raises(CoordinatorCrash) as exc:
            journal.append(self.RECORDS[1])
        assert exc.value.records_written == 2
        # The crashing record is durable: both records replay.
        assert RepairJournal.replay(tmp_path / "j") == self.RECORDS[:2]
        with pytest.raises(JournalError):
            journal.append(self.RECORDS[2])  # dead journals stay dead

    def test_validates_fsync_policy_and_crash_trigger(self, tmp_path):
        with pytest.raises(ValueError):
            RepairJournal(tmp_path / "j", fsync="sometimes")
        with pytest.raises(ValueError):
            RepairJournal(tmp_path / "j", crash_after_records=0)
        with pytest.raises(ValueError):
            RuntimeConfig(journal_fsync="sometimes")
        with pytest.raises(ValueError):
            RuntimeConfig(inventory_timeout=0)

    def test_fsync_always_also_round_trips(self, tmp_path):
        path = tmp_path / "j"
        with RepairJournal(path, fsync="always") as journal:
            for record in self.RECORDS:
                journal.append(record)
        assert RepairJournal.replay(path) == self.RECORDS


# ----------------------------------------------------------------------
# epoch fencing
# ----------------------------------------------------------------------


class TestEpochFencing:
    def test_stale_epoch_command_is_nacked_and_mutates_nothing(self, tmp_path):
        cluster, testbed = make_testbed(tmp_path, journal=False)
        inbox = testbed.coordinator._endpoint.inbox
        try:
            # A successor coordinator announces epoch 3 via the
            # inventory broadcast; the agent adopts and persists it.
            testbed.network.send(COORDINATOR_ID, 1, InventoryQuery(3, 99))
            reply = inbox.get(timeout=5)
            assert isinstance(reply, InventoryReply)
            assert reply.epoch == 3 and reply.nonce == 99
            store = testbed.stores[1]
            assert (store.root / "coordinator.epoch").read_text() == "3"

            # Pick a stripe node 1 does not store: a fenced command
            # that slipped through would visibly create its chunk.
            stripe = next(
                s for s in cluster.stripes() if not s.stores_on(1)
            )
            before = set(store.stripes())
            stale = ReceiveCommand(
                stripe_id=stripe.stripe_id,
                chunk_index=0,
                chunk_size=CHUNK,
                packet_size=CHUNK // 4,
                sources={2: 1},
                attempt=0,
                epoch=1,  # older than the adopted epoch 3
            )
            testbed.network.send(COORDINATOR_ID, 1, stale)
            nack = inbox.get(timeout=5)
            assert isinstance(nack, RepairAck)
            assert not nack.ok
            assert "stale epoch 1 < 3" in nack.detail
            assert testbed.agents[1]._inflight == {}
            assert set(store.stripes()) == before
            assert store.promotions == {}
        finally:
            testbed.shutdown()

    def test_adopting_a_newer_epoch_aborts_older_work(self, tmp_path):
        cluster, testbed = make_testbed(tmp_path, journal=False)
        try:
            agent = testbed.agents[1]
            stripe = next(s for s in cluster.stripes() if not s.stores_on(1))
            # Start an epoch-0 assembly, then fence it with epoch 5.
            testbed.network.send(
                COORDINATOR_ID,
                1,
                ReceiveCommand(
                    stripe_id=stripe.stripe_id,
                    chunk_index=0,
                    chunk_size=CHUNK,
                    packet_size=CHUNK // 4,
                    sources={2: 1},
                ),
            )
            deadline = threading.Event()
            for _ in range(100):
                if agent._inflight:
                    break
                deadline.wait(0.02)
            assert agent._inflight
            testbed.network.send(COORDINATOR_ID, 1, InventoryQuery(5, 1))
            reply = testbed.coordinator._endpoint.inbox.get(timeout=5)
            assert isinstance(reply, InventoryReply)
            assert agent._inflight == {}  # fenced work was aborted
            assert not testbed.stores[1].has(stripe.stripe_id)
        finally:
            testbed.shutdown()


# ----------------------------------------------------------------------
# kill + resume
# ----------------------------------------------------------------------


def run_clean_journaled_repair(tmp_path):
    """Reference run: no crash; returns the plan and its record count."""
    cluster, testbed = make_testbed(tmp_path)
    try:
        plan = FastPRPlanner(seed=3).plan(cluster, 0)
        plan.validate(cluster)
        result = testbed.execute(plan)
        testbed.verify_plan(plan, result)
        records = testbed.coordinator.journal.records_written
    finally:
        testbed.shutdown()
    return plan, records


class TestKillAndResume:
    def test_clean_run_journals_the_full_protocol(self, tmp_path):
        plan, _records = run_clean_journaled_repair(tmp_path)
        replayed = RepairJournal.replay(tmp_path / "repair.journal")
        assert isinstance(replayed[0], PlanCommitted)
        assert isinstance(replayed[-1], RepairFinished)
        completed = [r for r in replayed if isinstance(r, ActionCompleted)]
        assert len(completed) == plan.total_chunks
        starts = [r for r in replayed if isinstance(r, RoundStarted)]
        ends = [r for r in replayed if isinstance(r, RoundCompleted)]
        assert len(starts) == len(ends) == plan.num_rounds

    def test_recover_without_a_plan_record_raises(self, tmp_path):
        path = tmp_path / "empty.journal"
        path.write_bytes(b"")
        with pytest.raises(JournalError):
            Coordinator.recover(
                path,
                network=None,
                cluster=None,
                codec=None,
                config=FAST,
            )

    def test_resume_without_recover_raises(self, tmp_path):
        _cluster, testbed = make_testbed(tmp_path)
        try:
            with pytest.raises(RuntimeError):
                testbed.coordinator.resume()
        finally:
            testbed.shutdown()

    def test_kill_mid_run_then_resume_repairs_everything(self, tmp_path):
        cluster, testbed = make_testbed(tmp_path)
        try:
            plan = FastPRPlanner(seed=3).plan(cluster, 0)
            plan.validate(cluster)
            testbed.kill_coordinator_after(3)
            with pytest.raises(CoordinatorCrash):
                testbed.execute(plan)
            successor = testbed.restart_coordinator()
            assert successor.epoch == 1
            result = testbed.resume()
            assert result.chunks_repaired + result.recovered_chunks == (
                plan.total_chunks
            )
            testbed.verify_plan(plan, result)
            assert_no_double_execution(testbed)
            assert Scrubber(testbed).scan().clean
        finally:
            testbed.shutdown()

    def test_resume_after_finish_is_a_no_op(self, tmp_path):
        cluster, testbed = make_testbed(tmp_path)
        try:
            plan = FastPRPlanner(seed=3).plan(cluster, 0)
            testbed.execute(plan)
            transferred = testbed.network.bytes_transferred
            testbed.restart_coordinator()
            result = testbed.resume()
            assert result.chunks_repaired == 0
            assert result.recovered_chunks == plan.total_chunks
            assert testbed.network.bytes_transferred == transferred
            testbed.verify_plan(plan, result)
            assert_no_double_execution(testbed)
        finally:
            testbed.shutdown()

    def test_fresh_execute_truncates_a_stale_journal(self, tmp_path):
        # A journal left over from a previous, finished repair must not
        # masquerade as the new run's progress.
        plan, _records = run_clean_journaled_repair(tmp_path / "first")
        journal_path = tmp_path / "first" / "repair.journal"
        assert RepairJournal.replay(journal_path)  # non-empty leftover
        cluster = make_cluster()
        testbed = EmulatedTestbed(
            cluster,
            make_codec("rs(5,3)"),
            packet_size=CHUNK // 4,
            workdir=tmp_path / "second",
            config=FAST,
            journal_path=journal_path,
        )
        testbed.start()
        testbed.load_random_data(seed=2)  # different bytes this time
        try:
            second = FastPRPlanner(seed=3).plan(cluster, 0)
            testbed.kill_coordinator_after(3)
            with pytest.raises(CoordinatorCrash):
                testbed.execute(second)
            # execute() truncated the leftover: the journal holds only
            # this run's records, not the finished first repair's.
            assert len(RepairJournal.replay(journal_path)) == 3
            testbed.restart_coordinator()
            result = testbed.resume()
            # The repaired bytes are seed=2's, proving recovery never
            # trusted the first run's journaled completions.
            testbed.verify_plan(second, result)
            assert_no_double_execution(testbed)
        finally:
            testbed.shutdown()

    def test_fault_plan_coordinator_crash_after_round(self, tmp_path):
        faults = FaultPlan(
            coordinator_crashes=[CoordinatorCrashFault(after_round=0)]
        )
        cluster, testbed = make_testbed(tmp_path, faults=faults)
        try:
            plan = FastPRPlanner(seed=3).plan(cluster, 0)
            with pytest.raises(CoordinatorCrash):
                testbed.execute(plan)
            replayed = RepairJournal.replay(testbed.journal_path)
            assert any(
                isinstance(r, RoundCompleted) and r.round_index == 0
                for r in replayed
            )
            testbed.restart_coordinator()
            result = testbed.resume()
            testbed.verify_plan(plan, result)
            assert_no_double_execution(testbed)
            assert Scrubber(testbed).scan().clean
        finally:
            testbed.shutdown()


class TestCrashPointSweep:
    """Kill the coordinator after EVERY journal record and recover."""

    def test_every_crash_point_recovers_exactly_once(self, tmp_path):
        plan, total_records = run_clean_journaled_repair(tmp_path / "clean")
        assert total_records > plan.total_chunks  # sanity: a real protocol
        for n in range(1, total_records + 1):
            run_dir = tmp_path / f"crash_at_{n}"
            cluster, testbed = make_testbed(run_dir)
            try:
                swept = FastPRPlanner(seed=3).plan(cluster, 0)
                testbed.kill_coordinator_after(n)
                with pytest.raises(CoordinatorCrash) as crash:
                    testbed.execute(swept)
                assert crash.value.records_written == n
                testbed.restart_coordinator()
                result = testbed.resume()
                assert result.chunks_repaired + result.recovered_chunks == (
                    swept.total_chunks
                )
                # Byte-identical chunks at every (possibly healed)
                # destination, and no action ran twice.
                testbed.verify_plan(swept, result)
                assert_no_double_execution(testbed)
                assert Scrubber(testbed).scan().clean
            except BaseException:
                _save_journal_artifact(testbed, n)
                raise
            finally:
                testbed.shutdown()


def _save_journal_artifact(testbed, crash_point):
    """Preserve the journal of a failing sweep iteration for CI upload."""
    artifact_dir = os.environ.get("FASTPR_JOURNAL_DIR")
    if not artifact_dir or testbed.journal_path is None:
        return
    if not testbed.journal_path.exists():
        return
    os.makedirs(artifact_dir, exist_ok=True)
    shutil.copy(
        testbed.journal_path,
        os.path.join(artifact_dir, f"crash_at_{crash_point}.journal"),
    )


# ----------------------------------------------------------------------
# fault-plan serialization
# ----------------------------------------------------------------------


class TestCoordinatorCrashFault:
    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError):
            CoordinatorCrashFault()
        with pytest.raises(ValueError):
            CoordinatorCrashFault(after_records=1, after_round=0)
        with pytest.raises(ValueError):
            CoordinatorCrashFault(after_records=0)
        with pytest.raises(ValueError):
            CoordinatorCrashFault(after_round=-1)

    def test_fault_plan_json_round_trip(self):
        from repro.runtime import CrashFault, LinkFault, SlowNicFault

        plan = FaultPlan(
            crashes=[CrashFault(node=0, after_sent_bytes=1024)],
            links=[LinkFault(drop=0.1, dst=3)],
            slow_nics=[SlowNicFault(node=2, factor=0.5)],
            coordinator_crashes=[
                CoordinatorCrashFault(after_records=4),
                CoordinatorCrashFault(after_round=1),
            ],
            seed=7,
        )
        document = json.loads(json.dumps(plan.to_dict()))
        assert FaultPlan.from_dict(document) == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(TypeError, match="coordinator_crashs"):
            FaultPlan.from_dict(
                {"coordinator_crashs": [{"after_round": 0}]}
            )
