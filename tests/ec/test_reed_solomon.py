"""Tests for the systematic Reed-Solomon codec."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ec.codec import DecodeError
from repro.ec.galois import gf_mul
from repro.ec.matrix import is_mds
from repro.ec.reed_solomon import ReedSolomonCodec


def random_chunks(k: int, size: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size, dtype=np.uint8).tobytes() for _ in range(k)]


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ReedSolomonCodec(3, 3)
        with pytest.raises(ValueError):
            ReedSolomonCodec(3, 0)
        with pytest.raises(ValueError):
            ReedSolomonCodec(2, 3)
        with pytest.raises(ValueError):
            ReedSolomonCodec(256, 250)

    def test_generator_is_systematic(self):
        codec = ReedSolomonCodec(9, 6)
        gen = codec.generator_matrix
        assert np.array_equal(gen[:6], np.eye(6, dtype=np.uint8))

    def test_generator_is_mds_small(self):
        codec = ReedSolomonCodec(6, 3)
        assert is_mds(codec.generator_matrix, 3)

    def test_storage_overhead(self):
        assert ReedSolomonCodec(9, 6).storage_overhead == pytest.approx(1.5)

    def test_single_repair_cost(self):
        recipe = ReedSolomonCodec(14, 10).repair_recipe(3)
        assert recipe.fanin == 10
        assert recipe.traffic == 1.0


class TestEncode:
    def test_systematic_prefix(self):
        codec = ReedSolomonCodec(5, 3)
        data = random_chunks(3, 64)
        coded = codec.encode(data)
        assert len(coded) == 5
        assert coded[:3] == data

    def test_wrong_chunk_count(self):
        codec = ReedSolomonCodec(5, 3)
        with pytest.raises(ValueError):
            codec.encode(random_chunks(2, 64))

    def test_unequal_sizes(self):
        codec = ReedSolomonCodec(5, 3)
        chunks = random_chunks(3, 64)
        chunks[1] = chunks[1][:32]
        with pytest.raises(ValueError):
            codec.encode(chunks)

    def test_parity_is_linear(self):
        codec = ReedSolomonCodec(5, 3)
        zero = [b"\x00" * 16] * 3
        coded = codec.encode(zero)
        assert all(c == b"\x00" * 16 for c in coded)


class TestDecode:
    def test_all_erasure_patterns_rs_5_3(self):
        codec = ReedSolomonCodec(5, 3)
        data = random_chunks(3, 128, seed=5)
        coded = codec.encode(data)
        for survivors in itertools.combinations(range(5), 3):
            available = {i: coded[i] for i in survivors}
            lost = [i for i in range(5) if i not in survivors]
            rebuilt = codec.decode(available, lost)
            for i in lost:
                assert rebuilt[i] == coded[i], f"pattern {survivors}, chunk {i}"

    def test_decode_rs_9_6_single_loss(self):
        codec = ReedSolomonCodec(9, 6)
        coded = codec.encode(random_chunks(6, 256, seed=9))
        for lost in range(9):
            available = {i: coded[i] for i in range(9) if i != lost}
            rebuilt = codec.decode(available, [lost])
            assert rebuilt[lost] == coded[lost]

    def test_decode_wanted_already_available(self):
        codec = ReedSolomonCodec(5, 3)
        coded = codec.encode(random_chunks(3, 32))
        out = codec.decode({0: coded[0], 1: coded[1], 2: coded[2]}, [1])
        assert out[1] == coded[1]

    def test_insufficient_chunks(self):
        codec = ReedSolomonCodec(5, 3)
        coded = codec.encode(random_chunks(3, 32))
        with pytest.raises(DecodeError):
            codec.decode({0: coded[0], 1: coded[1]}, [4])

    def test_bad_index(self):
        codec = ReedSolomonCodec(5, 3)
        coded = codec.encode(random_chunks(3, 32))
        with pytest.raises(ValueError):
            codec.decode({i: coded[i] for i in range(3)}, [7])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64))
    def test_roundtrip_random(self, seed, size):
        codec = ReedSolomonCodec(6, 4)
        data = random_chunks(4, size, seed=seed)
        coded = codec.encode(data)
        available = {i: coded[i] for i in (1, 3, 4, 5)}
        rebuilt = codec.decode(available, [0, 2])
        assert rebuilt[0] == coded[0]
        assert rebuilt[2] == coded[2]


class TestRepairHelpers:
    def test_returns_k_survivors(self):
        codec = ReedSolomonCodec(9, 6)
        recipe = codec.repair_recipe(2)
        assert recipe.fanin == 6
        assert recipe.candidates == (0, 1, 3, 4, 5, 6, 7, 8)

    def test_too_few_survivors(self):
        codec = ReedSolomonCodec(9, 6)
        with pytest.raises(DecodeError):
            codec.recovery_coefficients(0, [1, 2, 3])


class TestRecoveryCoefficients:
    def test_streaming_repair_equals_lost_chunk(self):
        codec = ReedSolomonCodec(9, 6)
        coded = codec.encode(random_chunks(6, 128, seed=3))
        for lost in (0, 5, 8):
            helpers = [i for i in range(9) if i != lost][:6]
            coeffs = codec.recovery_coefficients(lost, helpers)
            acc = np.zeros(128, dtype=np.uint8)
            for helper, coeff in coeffs.items():
                chunk = np.frombuffer(coded[helper], dtype=np.uint8)
                table = np.array(
                    [gf_mul(coeff, v) for v in range(256)], dtype=np.uint8
                )
                acc ^= table[chunk]
            assert acc.tobytes() == coded[lost]

    def test_wrong_helper_count(self):
        codec = ReedSolomonCodec(5, 3)
        with pytest.raises(DecodeError):
            codec.recovery_coefficients(0, [1, 2])

    def test_duplicate_helpers(self):
        codec = ReedSolomonCodec(5, 3)
        with pytest.raises(DecodeError):
            codec.recovery_coefficients(0, [1, 1, 2])

    def test_lost_in_helpers(self):
        codec = ReedSolomonCodec(5, 3)
        with pytest.raises(DecodeError):
            codec.recovery_coefficients(1, [1, 2, 3])

    def test_systematic_chunk_from_data_chunks(self):
        # Rebuilding a parity chunk from the k data chunks uses the
        # generator row directly.
        codec = ReedSolomonCodec(5, 3)
        coeffs = codec.recovery_coefficients(4, [0, 1, 2])
        gen = codec.generator_matrix
        assert [coeffs[i] for i in range(3)] == [int(v) for v in gen[4]]
