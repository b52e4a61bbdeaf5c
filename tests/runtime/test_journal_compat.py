"""A journal written by an earlier coordinator still recovers.

``data/parent_crash.journal`` was written by the coordinator as it was
before its decisions moved into :func:`repro.runtime.coordinator.step`:
the ``make_testbed`` rig of ``test_recovery.py`` with 12 stripes and
``FastPRPlanner(seed=3)``, killed by
``CoordinatorCrashFault(after_records=6)`` — a committed plan, a round
start and four completed actions.  Recovering from that file and
resuming must repair every chunk byte-identically: the on-disk record
encoding is a contract across coordinator versions.
"""

import shutil
from pathlib import Path

from repro.core.plan import ChunkRepairAction
from repro.core.planner import FastPRPlanner
from repro.runtime import ActionCompleted, RepairJournal, Scrubber
from repro.runtime.driver import iter_encoded_stripes
from tests.runtime.test_recovery import (
    assert_no_double_execution,
    make_testbed,
)

FIXTURE = Path(__file__).parent / "data" / "parent_crash.journal"


def test_parent_journal_recovers_and_resumes(tmp_path):
    shutil.copy(FIXTURE, tmp_path / "repair.journal")
    cluster, testbed = make_testbed(tmp_path, num_stripes=12)
    try:
        plan = FastPRPlanner(seed=3).plan(cluster, 0)
        records = RepairJournal.replay(testbed.journal_path, truncate=False)
        assert RepairJournal.replay(FIXTURE, truncate=False) == records
        completed = [
            ChunkRepairAction.from_dict(r.action)
            for r in records
            if isinstance(r, ActionCompleted)
        ]
        assert len(completed) == 4
        # The stores as the crashed run left them: every journaled
        # completion's chunk promoted at its destination.
        coded = {
            stripe.stripe_id: chunks
            for stripe, chunks in iter_encoded_stripes(
                cluster, testbed.codec, seed=1
            )
        }
        for action in completed:
            testbed.stores[action.destination].put(
                action.stripe_id, coded[action.stripe_id][action.chunk_index]
            )

        successor = testbed.build(resume=True)
        assert successor.epoch == 1
        assert successor.packet_size == records[0].packet_size
        result = testbed.resume()

        assert result.recovered_chunks == len(completed)
        assert result.chunks_repaired == plan.total_chunks - len(completed)
        assert testbed.verify_plan(plan, result) == plan.total_chunks
        assert_no_double_execution(testbed)
        assert Scrubber(testbed).scan().clean
    finally:
        testbed.shutdown()
