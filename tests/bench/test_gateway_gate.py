"""``check_gateway_gate``: both bars of BENCH_gateway.json can fail."""

import json
from pathlib import Path

from repro.bench.gateway import check_gateway_gate, validate_gateway

COMMITTED = Path(__file__).resolve().parents[2] / "BENCH_gateway.json"


def committed():
    return json.loads(COMMITTED.read_text())


def test_committed_document_is_valid_and_passes_both_bars():
    document = committed()
    validate_gateway(document)
    assert check_gateway_gate(document) is None


def test_slow_arbitrated_repair_fails_the_gate():
    # What the cluster-wide clamp measured on the e2e rig: the drain
    # behind the arbiter several times slower than without it.
    document = committed()
    scenarios = document["scenarios"]
    scenarios["predictive"]["repair_seconds"] = (
        1.3 * scenarios["predictive_unarbitrated"]["repair_seconds"]
    )
    problem = check_gateway_gate(document)
    assert problem is not None and "holding repair off" in problem


def test_slow_gets_fail_the_gate_and_both_problems_are_named():
    document = committed()
    scenarios = document["scenarios"]
    scenarios["predictive"]["p99_seconds"] = (
        2.5 * scenarios["idle"]["p99_seconds"]
    )
    assert "client floor" in check_gateway_gate(document)
    scenarios["predictive"]["repair_seconds"] = (
        2.0 * scenarios["predictive_unarbitrated"]["repair_seconds"]
    )
    problem = check_gateway_gate(document)
    assert "client floor" in problem and "holding repair off" in problem
