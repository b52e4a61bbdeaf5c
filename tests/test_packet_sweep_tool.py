"""The arithmetic of ``tools/packet_sweep.py`` (the sweep itself is CI's)."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "packet_sweep",
    Path(__file__).resolve().parents[1] / "tools" / "packet_sweep.py",
)
packet_sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(packet_sweep)

KIB = 1024
MIB = 1024 * KIB


def test_sweep_sizes_are_the_powers_of_two_up_to_the_chunk():
    assert packet_sweep.sweep_sizes(64 * KIB, 4 * KIB) == [
        4 * KIB, 8 * KIB, 16 * KIB, 32 * KIB, 64 * KIB
    ]
    assert packet_sweep.sweep_sizes(MIB, 16 * KIB)[-1] == MIB


def test_judge_passes_within_tolerance_and_fails_beyond():
    medians = {256 * KIB: 0.175, 512 * KIB: 0.165, MIB: 0.191}
    best = packet_sweep.judge(medians, 512 * KIB, 0.05)
    assert best["ok"] and best["best"] == 512 * KIB and best["excess"] == 0
    near = packet_sweep.judge(medians, 256 * KIB, 0.10)
    assert near["ok"] and near["excess"] == pytest.approx(0.175 / 0.165 - 1)
    assert not packet_sweep.judge(medians, MIB, 0.05)["ok"]


def test_fit_recovers_the_models_constants():
    cost, fill, rounds, overhead = 3.0e-3, 1.0e-8, 4, 0.12
    medians = {
        size: overhead + rounds * (cost * (MIB / size) + size * fill)
        for size in packet_sweep.sweep_sizes(MIB, 16 * KIB)
    }
    fitted_cost, fitted_fill = packet_sweep.fit_model(medians, MIB, rounds)
    assert fitted_cost == pytest.approx(cost)
    assert fitted_fill == pytest.approx(fill)
