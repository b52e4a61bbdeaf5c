"""The verdict ``tools/pairs.py`` prints for alternating benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

#: ten parent runs whose quartiles are 27.875 / 28.5 / 29.125 (IQR 1.25)
PARENT = [27.0, 28.0, 29.0, 30.0, 28.5, 27.5, 29.5, 28.0, 29.0, 28.5]


def test_clear_gain():
    change = [p * 1.6 for p in PARENT]
    v = pairs.verdict(PARENT, change, better="higher", bound=0.25)
    assert (v["wins"], v["losses"], v["ties"]) == (10, 0, 0)
    assert v["parent"]["median"] == 28.5
    assert v["parent_iqr"] == pytest.approx(1.25)
    assert v["ratio"] == pytest.approx(1.6)
    assert v["gain"] and not v["regressed"] and v["resolved"]


def test_nine_wins_is_enough_eight_is_not():
    change = [p + 5 for p in PARENT]
    change[0] = PARENT[0] - 1
    assert pairs.verdict(PARENT, change)["gain"]
    change[1] = PARENT[1] - 1
    v = pairs.verdict(PARENT, change)
    assert v["wins"] == 8 and not v["gain"]


def test_ties_count_for_neither_side():
    change = [p + 5 for p in PARENT]
    change[0], change[1] = PARENT[0], PARENT[1]
    v = pairs.verdict(PARENT, change)
    assert (v["wins"], v["losses"], v["ties"]) == (8, 0, 2)
    assert not v["gain"]


def test_median_gap_must_exceed_the_parents_iqr():
    # Wins every pair, but by less than the parent's own spread.
    change = [p + 1.0 for p in PARENT]
    v = pairs.verdict(PARENT, change)
    assert v["wins"] == 10 and not v["gain"]


def test_lower_is_better_and_regression_bound():
    latency = [100.0, 104.0, 98.0, 101.0, 99.0, 102.0, 100.0, 103.0, 97.0, 101.0]
    faster = pairs.verdict(
        latency, [x * 0.5 for x in latency], better="lower", bound=0.25
    )
    assert faster["gain"] and not faster["regressed"]
    slower = pairs.verdict(
        latency, [x * 1.3 for x in latency], better="lower", bound=0.25
    )
    assert slower["wins"] == 0 and slower["regressed"] and not slower["gain"]
    within = pairs.verdict(
        latency, [x * 1.1 for x in latency], better="lower", bound=0.25
    )
    assert not within["regressed"] and not within["gain"]


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [10.0, 20.0, 30.0, 40.0, 10.0, 20.0, 30.0, 40.0, 25.0, 25.0]
    v = pairs.verdict(noisy, noisy, better="higher", bound=0.1)
    assert not v["resolved"] and not v["gain"] and not v["regressed"]


def test_rejects_unpaired_input():
    with pytest.raises(ValueError):
        pairs.verdict([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        pairs.verdict([], [])
    with pytest.raises(ValueError):
        pairs.verdict([1.0], [2.0], better="sideways")
