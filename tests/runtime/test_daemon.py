"""The always-on repair daemon: journal, queue policy, crash-resume.

The acceptance bar (mirrors the coordinator recovery suite one layer
up): kill the daemon mid-queue — via a coordinator crash or its own
:class:`DaemonCrashFault` — restart it on the same journal, and the
final cluster is byte-identical to a fault-free run with no repair
executed twice.
"""

import hashlib
import os
from pathlib import Path

import pytest

from repro.cluster import StorageCluster
from repro.ec import make_codec
from repro.failure.monitor import ClusterFailureMonitor
from repro.failure.predictor import ThresholdPredictor
from repro.failure.smart import SmartTraceGenerator
from repro.runtime import (
    CoordinatorCrash,
    CoordinatorCrashFault,
    DaemonCrash,
    DaemonCrashFault,
    DaemonJournal,
    FaultPlan,
    RepairDaemon,
    RepairTask,
    RuntimeConfig,
)
from repro.runtime.daemon import _queue_state
from repro.runtime.testbed import EmulatedTestbed

from .test_scrub import corrupt_chunk

CHUNK = 16 * 1024

#: a hot fleet against a small cluster: by day ~50 the daemon has a mix
#: of predictive and reactive work, which is what the crash tests cut.
def build(tmp_path, faults=None, config=None):
    cluster = StorageCluster.random(
        num_nodes=12,
        num_stripes=10,
        n=5,
        k=3,
        seed=77,
        disk_bandwidth=1e9,
        network_bandwidth=1e9,
        chunk_size=CHUNK,
    )
    codec = make_codec("rs(5,3)")
    testbed = EmulatedTestbed(
        cluster, codec, workdir=tmp_path, faults=faults, config=config
    )
    testbed.load_random_data(seed=5)
    traces = SmartTraceGenerator(
        12, horizon_days=90, annual_failure_rate=0.9, seed=21
    ).generate()
    monitor = ClusterFailureMonitor(
        cluster, traces, ThresholdPredictor("reallocated_sectors", threshold=10.0)
    )
    return cluster, testbed, monitor


def store_state(testbed):
    """sha256 of every chunk file per node.

    ``coordinator.epoch`` is excluded: it is the fencing marker agents
    persist when a *recovered* coordinator (epoch > 0) contacts them —
    control-plane residue that legitimately differs between a fault-free
    run and a crash-recovered one.  Data-plane bytes must not.
    """
    out = {}
    for node_id in sorted(testbed.stores):
        node_dir = Path(testbed.workdir) / f"node_{node_id}"
        for path in sorted(node_dir.glob("*")):
            if path.name == "coordinator.epoch":
                continue
            out[(node_id, path.name)] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


# ----------------------------------------------------------------------
# journal unit tests
# ----------------------------------------------------------------------


class TestDaemonJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "daemon.journal"
        journal = DaemonJournal(path)
        journal.append("task_enqueued", task_id=0, node_id=3, kind="reactive",
                       day=7, disk_id=3)
        journal.append("task_started", task_id=0, attempt=1)
        journal.append("task_completed", task_id=0, chunks=4)
        journal.close()
        assert journal.records_written == 3
        records = DaemonJournal.replay(path)
        assert [r["type"] for r in records] == [
            "task_enqueued", "task_started", "task_completed",
        ]
        assert records[0]["node_id"] == 3

    def test_reopen_appends_after_recovered(self, tmp_path):
        path = tmp_path / "daemon.journal"
        first = DaemonJournal(path)
        first.append("day_observed", day=0)
        first.close()
        second = DaemonJournal(path)
        assert [r["type"] for r in second.recovered] == ["day_observed"]
        second.append("day_observed", day=1)
        second.close()
        assert [r["day"] for r in DaemonJournal.replay(path)] == [0, 1]

    def test_torn_tail_truncated(self, tmp_path):
        path = tmp_path / "daemon.journal"
        journal = DaemonJournal(path)
        journal.append("day_observed", day=0)
        journal.append("day_observed", day=1)
        journal.close()
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x40\x00\x00\x00\xde\xad\xbe\xefpartial frame")
        assert [r["day"] for r in DaemonJournal.replay(path)] == [0, 1]
        assert path.stat().st_size == size  # tail cut, durable prefix kept

    def test_corrupt_crc_stops_replay(self, tmp_path):
        path = tmp_path / "daemon.journal"
        journal = DaemonJournal(path)
        journal.append("day_observed", day=0)
        journal.append("day_observed", day=1)
        journal.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a byte in the last record's payload
        path.write_bytes(data)
        assert [r["day"] for r in DaemonJournal.replay(path)] == [0]


    @pytest.mark.parametrize("policy,fsyncs", [("always", 3), ("never", 0)])
    def test_fsync_policy_follows_the_runtime_config(
        self, tmp_path, monkeypatch, policy, fsyncs
    ):
        _, testbed, monitor = build(
            tmp_path, config=RuntimeConfig(journal_fsync=policy)
        )
        with testbed:
            daemon = RepairDaemon(
                testbed, monitor, seed=3, sleep=lambda s: None
            )
            calls = []
            real_fsync = os.fsync
            monkeypatch.setattr(
                os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))
            )
            for day in range(3):
                daemon.journal.append("day_observed", day=day)
            daemon.journal.close()
        assert len(calls) == fsyncs


class TestQueueState:
    def enq(self, task_id, kind="reactive", day=0):
        return {"type": "task_enqueued", "task_id": task_id, "node_id": 1,
                "kind": kind, "day": day, "disk_id": -1}

    def test_completed_tasks_drop_out(self):
        records = [
            self.enq(0), self.enq(1),
            {"type": "task_started", "task_id": 0, "attempt": 1},
            {"type": "task_completed", "task_id": 0, "chunks": 2},
            {"type": "day_observed", "day": 4},
        ]
        pending, interrupted, last_day = _queue_state(records)
        assert [t.task_id for t in pending] == [1]
        assert interrupted == []
        assert last_day == 4

    def test_started_but_unfinished_is_interrupted(self):
        records = [
            self.enq(0),
            {"type": "task_started", "task_id": 0, "attempt": 1},
        ]
        pending, interrupted, _ = _queue_state(records)
        assert [t.task_id for t in pending] == [0]
        assert pending[0].attempts == 1
        assert interrupted == [0]

    def test_failed_attempt_requeues_without_interrupt(self):
        records = [
            self.enq(0),
            {"type": "task_started", "task_id": 0, "attempt": 1},
            {"type": "task_failed", "task_id": 0, "attempt": 1, "error": "x"},
        ]
        pending, interrupted, _ = _queue_state(records)
        assert [t.task_id for t in pending] == [0]
        assert interrupted == []

    def test_abandoned_tasks_drop_out(self):
        records = [
            self.enq(0),
            {"type": "task_started", "task_id": 0, "attempt": 3},
            {"type": "task_abandoned", "task_id": 0},
        ]
        pending, interrupted, _ = _queue_state(records)
        assert pending == []
        assert interrupted == []


class TestRepairTask:
    def test_reactive_sorts_before_predictive(self):
        predictive = RepairTask(task_id=0, node_id=1, kind="predictive", day=0)
        reactive = RepairTask(task_id=5, node_id=2, kind="reactive", day=0)
        assert reactive.sort_key < predictive.sort_key

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            RepairTask(task_id=0, node_id=1, kind="scrub", day=0)


# ----------------------------------------------------------------------
# daemon loop
# ----------------------------------------------------------------------


class TestRepairDaemon:
    def test_full_run_repairs_every_alarm_and_failure(self, tmp_path):
        cluster, testbed, monitor = build(tmp_path)
        with testbed:
            daemon = RepairDaemon(testbed, monitor, seed=3, sleep=lambda s: None)
            report = daemon.run()
            daemon.close()
        handled = len(report.stf_events) + len(report.missed_failures)
        assert handled > 0
        assert daemon.completed_tasks == handled
        assert daemon.queue_depth == 0
        # every repair is journaled complete
        records = DaemonJournal.replay(daemon.journal.path)
        completed = [r for r in records if r["type"] == "task_completed"]
        assert len(completed) == handled

    def test_reactive_preempts_predictive(self, tmp_path):
        cluster, testbed, monitor = build(tmp_path)
        with testbed:
            daemon = RepairDaemon(testbed, monitor, seed=3, sleep=lambda s: None)
            order = []
            original = daemon._execute

            def spy(task):
                order.append(task.kind)
                return original(task)

            daemon._execute = spy
            daemon.enqueue(1, "predictive", day=0)
            daemon.enqueue(2, "reactive", day=0)
            cluster.node(1).mark_soon_to_fail()
            cluster.node(2).mark_failed()
            daemon.pump()
            daemon.close()
        assert order == ["reactive", "predictive"]

    def test_helper_budget_defers_predictive(self, tmp_path):
        cluster, testbed, monitor = build(tmp_path)
        with testbed:
            daemon = RepairDaemon(
                testbed, monitor, seed=3, helper_budget=1, sleep=lambda s: None
            )
            cluster.node(1).mark_soon_to_fail()
            cluster.node(2).mark_soon_to_fail()
            daemon.enqueue(1, "predictive", day=0)
            daemon.enqueue(2, "predictive", day=0)
            assert daemon.pump() == 1  # budget spent after the first
            assert daemon.queue_depth == 1
            daemon._repairs_today = 0  # next observed day
            assert daemon.pump() == 1
            assert daemon.queue_depth == 0
            daemon.close()

    def test_monitor_rearmed_after_repair(self, tmp_path):
        cluster, testbed, monitor = build(tmp_path)
        with testbed:
            daemon = RepairDaemon(testbed, monitor, seed=3, sleep=lambda s: None)
            daemon.run(max_days=60)
            daemon.close()
        assert monitor.active_repairs == set()

    def test_metrics_exported(self, tmp_path):
        cluster, testbed, monitor = build(tmp_path)
        with testbed:
            daemon = RepairDaemon(testbed, monitor, seed=3, sleep=lambda s: None)
            daemon.run()
            daemon.close()
            by_name = {m.name: m for m in testbed.metrics}
        assert by_name["daemon_tasks_total"].total() == daemon.completed_tasks
        assert by_name["daemon_chunks_repaired_total"].total() > 0
        assert by_name["daemon_queue_depth"].value() == 0

    def test_scrub_cycle_restores_latent_corruption(self, tmp_path):
        # Satellite: runtime.scrub x latent sector errors, daemon-driven.
        cluster, testbed, monitor = build(tmp_path)
        with testbed:
            daemon = RepairDaemon(
                testbed, monitor, scrub_interval_days=1, seed=3,
                sleep=lambda s: None,
            )
            node_id = cluster.stripe(0).node_of(1)
            original = testbed.stores[node_id].read(0)
            corrupt_chunk(testbed, cluster, 0, 1)
            daemon.scrub(day=1)
            daemon.close()
            by_name = {m.name: m for m in testbed.metrics}
            assert by_name["daemon_scrub_corrupt_total"].total() == 1
            assert by_name["daemon_scrub_repaired_total"].total() == 1
            # the chunk is byte-restored in place
            assert testbed.stores[node_id].read(0) == original
        records = DaemonJournal.replay(daemon.journal.path)
        scrubs = [r for r in records if r["type"] == "scrub_completed"]
        assert scrubs == [
            {"type": "scrub_completed", "day": 1, "corrupt": 1, "repaired": 1}
        ]


# ----------------------------------------------------------------------
# crash-resume acceptance
# ----------------------------------------------------------------------


class TestCrashResume:
    def fault_free_reference(self, tmp_path):
        cluster, testbed, monitor = build(tmp_path / "ref")
        with testbed:
            daemon = RepairDaemon(testbed, monitor, seed=3, sleep=lambda s: None)
            daemon.run()
            daemon.close()
        return store_state(testbed), daemon.completed_tasks

    def test_coordinator_crash_resume_byte_identical(self, tmp_path):
        """ISSUE acceptance: daemon survives a CoordinatorCrashFault.

        The restarted daemon replays its journaled queue, re-issues only
        the unfinished repairs, and the final cluster state matches a
        fault-free run chunk for chunk.
        """
        reference, total_tasks = self.fault_free_reference(tmp_path)

        faults = FaultPlan(
            coordinator_crashes=[CoordinatorCrashFault(after_records=4)]
        )
        cluster, testbed, monitor = build(tmp_path / "crash", faults=faults)
        with testbed:
            daemon = RepairDaemon(testbed, monitor, seed=3, sleep=lambda s: None)
            journal_path = daemon.journal.path
            with pytest.raises(CoordinatorCrash):
                daemon.run()
            daemon.close()
            completed_before = daemon.completed_tasks

            successor = RepairDaemon(
                testbed, monitor, journal_path=journal_path, seed=3,
                sleep=lambda s: None,
            )
            # the successor rebuilt its queue purely from the journal
            assert successor.queue_depth > 0
            successor.resume()
            successor.run()
            successor.close()
        assert store_state(testbed) == reference
        # no repair ran twice: predecessor + successor together did
        # exactly the fault-free amount of work
        assert completed_before + successor.completed_tasks == total_tasks
        records = DaemonJournal.replay(journal_path)
        completed_ids = [
            r["task_id"] for r in records if r["type"] == "task_completed"
        ]
        assert len(completed_ids) == len(set(completed_ids)) == total_tasks

    def test_daemon_crash_fault_resume(self, tmp_path):
        reference, total_tasks = self.fault_free_reference(tmp_path)
        assert total_tasks >= 2  # the fault below must cut mid-queue

        faults = FaultPlan(daemon_crashes=[DaemonCrashFault(after_tasks=1)])
        cluster, testbed, monitor = build(tmp_path / "crash", faults=faults)
        with testbed:
            daemon = RepairDaemon(testbed, monitor, seed=3, sleep=lambda s: None)
            journal_path = daemon.journal.path
            with pytest.raises(DaemonCrash) as err:
                daemon.run()
            daemon.close()
            assert err.value.tasks_completed == 1

            successor = RepairDaemon(
                testbed, monitor, journal_path=journal_path, seed=3,
                sleep=lambda s: None,
            )
            successor.resume()
            successor.run()
            successor.close()
        assert store_state(testbed) == reference
        assert 1 + successor.completed_tasks == total_tasks

    def test_successor_continues_from_journaled_day(self, tmp_path):
        cluster, testbed, monitor = build(tmp_path)
        with testbed:
            daemon = RepairDaemon(testbed, monitor, seed=3, sleep=lambda s: None)
            daemon.run(max_days=10)
            daemon.close()
            successor = RepairDaemon(
                testbed, monitor, journal_path=daemon.journal.path, seed=3,
                sleep=lambda s: None,
            )
            assert successor.next_day == 10
            successor.close()


class TestDaemonCrashFaultSerde:
    def test_roundtrip_through_fault_plan(self):
        plan = FaultPlan(
            daemon_crashes=[DaemonCrashFault(after_tasks=2)],
            coordinator_crashes=[CoordinatorCrashFault(after_records=7)],
        )
        restored = FaultPlan.from_dict(plan.to_dict())
        assert restored.daemon_crashes == [DaemonCrashFault(after_tasks=2)]
        assert restored.coordinator_crashes == plan.coordinator_crashes

    def test_after_tasks_validated(self):
        with pytest.raises(ValueError, match="after_tasks"):
            DaemonCrashFault(after_tasks=0)

    def test_absent_field_defaults_empty(self):
        body = FaultPlan().to_dict()
        body.pop("daemon_crashes")
        assert FaultPlan.from_dict(body).daemon_crashes == []
