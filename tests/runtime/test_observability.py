"""End-to-end observability: trace, metrics and journal must agree.

The acceptance bar for the observability layer: run a repair on the
emulated testbed under a fault plan, with the write-ahead journal
armed, and reconcile three independent records of the same run —

* the span trace (``Tracer``),
* the metrics registry, and
* the write-ahead journal

— per round: action counts, retry counts and round durations must all
tell the same story.
"""

from __future__ import annotations

import pytest

from repro import (
    CoordinatorCrash,
    EmulatedTestbed,
    FastPRPlanner,
    FaultPlan,
    MetricsRegistry,
    RuntimeConfig,
    Tracer,
    make_codec,
)
from repro.cluster import StorageCluster
from repro.obs import TraceDocument, breakdown_from_trace
from repro.runtime import (
    ActionCompleted,
    CoordinatorCrashFault,
    LinkFault,
    RepairJournal,
    RoundCompleted,
)

CHUNK = 16 * 1024

FAST = RuntimeConfig(
    ack_timeout=1.5,
    join_timeout=5.0,
    deadline_margin=4.0,
    min_deadline=0.8,
    max_retries=6,
    backoff_base=0.05,
    backoff_factor=2.0,
    backoff_cap=0.2,
    probe_timeout=0.4,
    heartbeat_interval=0.1,
    poll_interval=0.05,
    journal_fsync="never",
)


def make_cluster(seed=21):
    cluster = StorageCluster.random(
        num_nodes=10,
        num_stripes=6,
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


def run_repair(tmp_path, faults=None):
    cluster = make_cluster()
    journal_path = tmp_path / "repair.journal"
    testbed = EmulatedTestbed(
        cluster,
        make_codec("rs(5,3)"),
        packet_size=CHUNK // 4,
        workdir=tmp_path / "bed",
        config=FAST,
        faults=faults,
        journal_path=journal_path,
    )
    plan = FastPRPlanner(seed=3).plan(cluster, 0)
    restarts = 0
    with testbed:
        testbed.load_random_data(seed=1)
        try:
            result = testbed.execute(plan)
        except CoordinatorCrash:
            while True:
                restarts += 1
                testbed.restart_coordinator()
                try:
                    result = testbed.resume()
                    break
                except CoordinatorCrash:
                    continue
        testbed.verify_plan(plan, result)
    return testbed, result, journal_path, restarts


def reconcile(testbed, result, journal_path, crashed=False):
    """Assert trace, metrics and journal agree on the same run."""
    records = RepairJournal.replay(journal_path)
    trace = TraceDocument(testbed.tracer.to_dict())
    breakdown = breakdown_from_trace(trace)

    journaled_actions = [r for r in records if isinstance(r, ActionCompleted)]
    completed_rounds = {
        r.round_index for r in records if isinstance(r, RoundCompleted)
    }

    # Every journaled round appears in the trace (the trace may hold
    # more: a round whose span opened but crashed before completion).
    traced_rounds = {r.index for r in breakdown.rounds}
    assert completed_rounds <= traced_rounds

    # Action counts agree per round: one finished action span per
    # journaled ActionCompleted (a retried action is ONE span closed at
    # its final ACK, and ONE journal record).
    per_round_journal = {}
    for record in journaled_actions:
        per_round_journal[record.round_index] = (
            per_round_journal.get(record.round_index, 0) + 1
        )
    per_round_trace = {r.index: r.actions for r in breakdown.rounds}
    for index, count in per_round_journal.items():
        assert per_round_trace[index] == count, (
            f"round {index}: journal has {count} completed actions, "
            f"trace has {per_round_trace.get(index)}"
        )

    # Retries agree: span attrs accumulate the same retry count the
    # coordinator's counter does.  (After a coordinator crash,
    # ``result`` only covers the final incarnation, so it is excluded.)
    traced_retries = sum(r.retries for r in breakdown.rounds)
    counter = testbed.metrics.get("repair_retries_total")
    assert traced_retries == (counter.total() if counter else 0)
    if not crashed:
        assert traced_retries == result.retries

    # Metrics agree with the journal on completed actions.
    actions_counter = testbed.metrics.get("repair_actions_total")
    assert actions_counter.total() == len(journaled_actions)

    # Journal write volume is itself metered.
    records_counter = testbed.metrics.get("journal_records_total")
    assert records_counter.total() == len(records)

    # Round durations agree between the trace and the coordinator's own
    # measurement (both bracket the same round execution).  A crashed
    # run's breakdown folds every incarnation's span for a round, while
    # ``result.round_times`` covers only the last one, so the trace can
    # only be longer there.
    for index, measured in enumerate(result.round_times):
        if index in per_round_trace:
            entry = next(r for r in breakdown.rounds if r.index == index)
            if crashed:
                assert entry.duration >= measured - 0.05
            else:
                assert entry.duration == pytest.approx(measured, abs=0.05)
    return breakdown


class TestTraceJournalReconciliation:
    def test_clean_run(self, tmp_path):
        testbed, result, journal_path, _ = run_repair(tmp_path)
        breakdown = reconcile(testbed, result, journal_path)
        assert breakdown.total_actions == result.chunks_repaired
        assert breakdown.attrs["resumed"] is False

    def test_faulted_run_with_retries(self, tmp_path):
        faults = FaultPlan(links=[LinkFault(drop=0.1)], seed=11)
        testbed, result, journal_path, _ = run_repair(tmp_path, faults=faults)
        assert testbed.faults.stats["dropped"] >= 1
        assert result.retries >= 1
        reconcile(testbed, result, journal_path)

    def test_crash_recovery_folds_into_one_breakdown(self, tmp_path):
        faults = FaultPlan(
            coordinator_crashes=[CoordinatorCrashFault(after_records=4)]
        )
        testbed, result, journal_path, restarts = run_repair(
            tmp_path, faults=faults
        )
        assert restarts >= 1
        breakdown = reconcile(testbed, result, journal_path, crashed=True)
        # Two repair spans (crashed run + resume), folded by round index.
        repairs = TraceDocument(testbed.tracer.to_dict()).named("repair")
        assert len(repairs) == 1 + restarts
        assert any(r["attrs"].get("resumed") for r in repairs)
        assert breakdown.rounds, "resume produced no round spans"
