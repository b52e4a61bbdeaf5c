"""Tests for the Azure-style LRC codec."""

import itertools

import numpy as np
import pytest

from repro.ec.codec import DecodeError
from repro.ec.lrc import LocalReconstructionCodec


def random_chunks(k, size, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size, dtype=np.uint8).tobytes() for _ in range(k)]


@pytest.fixture
def lrc():
    """LRC(6, 2, 2): 6 data, 2 local parities, 2 globals — n=10."""
    return LocalReconstructionCodec(6, 2, 2)


class TestConstruction:
    def test_parameters(self, lrc):
        assert lrc.n == 10
        assert lrc.k == 6
        assert lrc.group_size == 3

    def test_k_not_divisible(self):
        with pytest.raises(ValueError):
            LocalReconstructionCodec(7, 2, 2)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LocalReconstructionCodec(0, 1, 1)
        with pytest.raises(ValueError):
            LocalReconstructionCodec(4, 2, -1)

    def test_single_repair_cost_is_group_size(self, lrc):
        recipe = lrc.repair_recipe(0)
        assert recipe.fanin == 3
        assert recipe.traffic == 1.0


class TestGroups:
    def test_group_of_data_chunks(self, lrc):
        assert lrc.group_of(0) == 0
        assert lrc.group_of(2) == 0
        assert lrc.group_of(3) == 1
        assert lrc.group_of(5) == 1

    def test_group_of_local_parity(self, lrc):
        assert lrc.group_of(6) == 0
        assert lrc.group_of(7) == 1

    def test_group_of_global_parity_raises(self, lrc):
        with pytest.raises(ValueError):
            lrc.group_of(8)

    def test_local_group_members(self, lrc):
        assert lrc.local_group_members(0) == [0, 1, 2, 6]
        assert lrc.local_group_members(1) == [3, 4, 5, 7]

    def test_bad_group(self, lrc):
        with pytest.raises(ValueError):
            lrc.local_group_members(2)


class TestEncodeDecode:
    def test_systematic_prefix(self, lrc):
        data = random_chunks(6, 64)
        coded = lrc.encode(data)
        assert len(coded) == 10
        assert coded[:6] == data

    def test_local_parity_is_group_xor(self, lrc):
        data = random_chunks(6, 32, seed=2)
        coded = lrc.encode(data)
        group0 = np.frombuffer(coded[0], dtype=np.uint8).copy()
        for i in (1, 2):
            group0 ^= np.frombuffer(coded[i], dtype=np.uint8)
        assert group0.tobytes() == coded[6]

    def test_local_repair_of_data_chunk(self, lrc):
        coded = lrc.encode(random_chunks(6, 64, seed=3))
        available = {i: coded[i] for i in range(10) if i != 1}
        out = lrc.decode(available, [1])
        assert out[1] == coded[1]

    def test_local_repair_of_local_parity(self, lrc):
        coded = lrc.encode(random_chunks(6, 64, seed=4))
        available = {i: coded[i] for i in range(10) if i != 7}
        out = lrc.decode(available, [7])
        assert out[7] == coded[7]

    def test_global_repair_when_group_broken(self, lrc):
        coded = lrc.encode(random_chunks(6, 64, seed=5))
        # Lose two chunks of group 0: local repair impossible, but the
        # global parities save the day.
        available = {i: coded[i] for i in range(10) if i not in (0, 1)}
        out = lrc.decode(available, [0, 1])
        assert out[0] == coded[0]
        assert out[1] == coded[1]

    def test_tolerates_any_single_and_global_failures(self, lrc):
        coded = lrc.encode(random_chunks(6, 32, seed=6))
        # Any 3 losses including at most one per group + globals are
        # recoverable; test the documented pattern (1 data + 2 globals).
        available = {i: coded[i] for i in range(10) if i not in (2, 8, 9)}
        out = lrc.decode(available, [2, 8, 9])
        for i in (2, 8, 9):
            assert out[i] == coded[i]

    def test_unrecoverable_raises(self, lrc):
        coded = lrc.encode(random_chunks(6, 32, seed=7))
        # Lose an entire local group (4 chunks) plus both globals:
        # rank < k.
        available = {
            i: coded[i] for i in range(10) if i not in (0, 1, 2, 6, 8, 9)
        }
        with pytest.raises(DecodeError):
            lrc.decode(available, [0])

    def test_decode_wanted_present(self, lrc):
        coded = lrc.encode(random_chunks(6, 32, seed=8))
        out = lrc.decode({i: coded[i] for i in range(10)}, [3])
        assert out[3] == coded[3]


class TestRepairHelpers:
    def test_local_helpers_preferred(self, lrc):
        recipe = lrc.repair_recipe(1)
        assert recipe.candidates == (0, 2, 6)
        assert recipe.fanin == 3

    def test_degraded_falls_back_to_global(self, lrc):
        # Chunks 1 and 2 lost: the local group is broken, so chunk 1
        # decodes from k chunks that span the code, globals included.
        coded = lrc.encode(random_chunks(6, 32, seed=11))
        alive = {i: coded[i] for i in range(10) if i not in (1, 2)}
        assert lrc.decode(alive, [1])[1] == coded[1]


class TestRecoveryCoefficients:
    def test_local_coefficients_all_one(self, lrc):
        coeffs = lrc.recovery_coefficients(0, [1, 2, 6])
        assert coeffs == {1: 1, 2: 1, 6: 1}

    def test_local_streaming_repair(self, lrc):
        coded = lrc.encode(random_chunks(6, 64, seed=9))
        coeffs = lrc.recovery_coefficients(4, [3, 5, 7])
        acc = np.zeros(64, dtype=np.uint8)
        for helper, coeff in coeffs.items():
            assert coeff == 1
            acc ^= np.frombuffer(coded[helper], dtype=np.uint8)
        assert acc.tobytes() == coded[4]

    def test_global_coefficients_reconstruct(self, lrc):
        from repro.ec.galois import gf_mul

        coded = lrc.encode(random_chunks(6, 64, seed=10))
        helpers = [1, 2, 3, 4, 5, 8]  # chunk 0 lost, 6/7/9 unavailable
        coeffs = lrc.recovery_coefficients(0, helpers)
        acc = np.zeros(64, dtype=np.uint8)
        for helper, coeff in coeffs.items():
            table = np.array([gf_mul(coeff, v) for v in range(256)], dtype=np.uint8)
            acc ^= table[np.frombuffer(coded[helper], dtype=np.uint8)]
        assert acc.tobytes() == coded[0]

    def test_lost_in_helpers_raises(self, lrc):
        with pytest.raises(DecodeError):
            lrc.recovery_coefficients(0, [0, 1, 2])
