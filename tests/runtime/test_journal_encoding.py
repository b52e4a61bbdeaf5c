"""A journal record encodes to the bytes it always has.

``encode_record`` serialises a shallow dict of the record's fields
instead of ``dataclasses.asdict``'s deep copy, which on the
write-ahead path copied every committed plan and completed action only
to serialise the copy.  Every record type must still frame to exactly
the bytes the deep-copying encoder wrote.
"""

import json
from dataclasses import asdict
from typing import get_args

from repro.cluster import StorageCluster
from repro.core.planner import FastPRPlanner
from repro.runtime.journal import (
    _TYPE_NAMES,
    ActionCompleted,
    JournalRecord,
    PlanCommitted,
    RepairFinished,
    RoundCompleted,
    RoundStarted,
    ShardTakeover,
    encode_frame,
    encode_record,
)


def deep_copying_encoding(record):
    """The encoder as it was: ``asdict`` copies nested plans/actions."""
    document = {"type": _TYPE_NAMES[type(record)], **asdict(record)}
    return encode_frame(json.dumps(document, separators=(",", ":")).encode())


def records():
    cluster = StorageCluster.random(
        num_nodes=12, num_stripes=20, n=5, k=3, num_hot_standby=2, seed=21,
    )
    cluster.node(0).mark_soon_to_fail()
    plan = FastPRPlanner(seed=3).plan(cluster, 0)
    action = next(plan.actions())
    return [
        PlanCommitted(4, plan.to_dict(), 16384),
        RoundStarted(4, 2),
        ActionCompleted(4, 2, action.to_dict(), 1),
        RoundCompleted(4, 2),
        RepairFinished(4),
        ShardTakeover(5, 1, 0),
    ]


def test_every_record_type_is_covered():
    assert {type(r) for r in records()} == set(get_args(JournalRecord))


def test_every_record_encodes_to_the_deep_copying_bytes():
    for record in records():
        assert encode_record(record) == deep_copying_encoding(record), record
