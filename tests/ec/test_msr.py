"""Tests for the product-matrix MSR codec."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ec.codec import DecodeError, make_codec
from repro.ec.msr import MsrCodec


def random_chunks(k, size, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size, dtype=np.uint8).tobytes() for _ in range(k)]


@pytest.fixture(scope="module")
def codec():
    return MsrCodec(6, 3)  # alpha=2, d=4


@pytest.fixture(scope="module")
def coded(codec):
    data = random_chunks(3, 128, seed=7)
    return data, codec.encode(data)


class TestConstruction:
    def test_parameters(self, codec):
        assert codec.alpha == 2
        assert codec.d == 4
        assert codec.message_symbols == 6

    def test_registered_scheme(self):
        assert isinstance(make_codec("msr(11,6)"), MsrCodec)

    def test_k_too_small(self):
        with pytest.raises(ValueError, match="k >= 3"):
            MsrCodec(6, 2)

    def test_n_too_small_for_d(self):
        with pytest.raises(ValueError, match="helpers"):
            MsrCodec(8, 5)  # needs n >= 9

    def test_storage_is_msr_point(self, codec):
        # Same per-node storage as RS (storage-optimal)...
        assert codec.storage_overhead == pytest.approx(2.0)
        # ...but repair traffic d/alpha = 2 chunks instead of k = 3.
        recipe = codec.repair_recipe(0)
        assert recipe.fanin == 4
        assert recipe.fanin * recipe.traffic == pytest.approx(2.0)
        assert recipe.fanin * recipe.traffic < codec.k


class TestEncode:
    def test_chunk_sizes_preserved(self, codec, coded):
        data, chunks = coded
        assert len(chunks) == 6
        assert all(len(c) == 128 for c in chunks)

    def test_wrong_chunk_count(self, codec):
        with pytest.raises(ValueError):
            codec.encode(random_chunks(2, 64))

    def test_indivisible_chunk_size(self, codec):
        with pytest.raises(ValueError, match="divisible"):
            codec.encode(random_chunks(3, 65))

    def test_deterministic(self, codec):
        data = random_chunks(3, 64, seed=3)
        assert codec.encode(data) == codec.encode(data)


class TestReconstruction:
    def test_every_k_subset_recovers_data(self, codec, coded):
        data, chunks = coded
        for subset in itertools.combinations(range(6), 3):
            available = {i: chunks[i] for i in subset}
            assert codec.decode_data(available) == data, subset

    def test_decode_missing_nodes(self, codec, coded):
        _, chunks = coded
        out = codec.decode({1: chunks[1], 3: chunks[3], 5: chunks[5]}, [0, 2, 4])
        for i in (0, 2, 4):
            assert out[i] == chunks[i]

    def test_decode_present_node(self, codec, coded):
        _, chunks = coded
        out = codec.decode({0: chunks[0], 1: chunks[1], 2: chunks[2]}, [1])
        assert out[1] == chunks[1]

    def test_insufficient_chunks(self, codec, coded):
        _, chunks = coded
        with pytest.raises(DecodeError):
            codec.decode({0: chunks[0], 1: chunks[1]}, [5])

    def test_bad_index(self, codec, coded):
        _, chunks = coded
        with pytest.raises(ValueError):
            codec.decode({i: chunks[i] for i in range(3)}, [9])

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_roundtrip_random(self, seed):
        codec = MsrCodec(6, 3)
        data = random_chunks(3, 32, seed=seed)
        chunks = codec.encode(data)
        assert codec.decode_data({0: chunks[0], 3: chunks[3], 5: chunks[5]}) == data


class TestRepairByTransfer:
    def test_every_node_repairable(self, codec, coded):
        _, chunks = coded
        for lost in range(6):
            recipe = codec.repair_recipe(lost)
            helpers = recipe.candidates[: recipe.fanin]
            symbols = {
                h: codec.repair_symbol(h, chunks[h], lost) for h in helpers
            }
            assert codec.repair_from_symbols(lost, symbols) == chunks[lost]

    def test_symbol_is_one_alpha_fraction(self, codec, coded):
        _, chunks = coded
        symbol = codec.repair_symbol(1, chunks[1], 0)
        assert len(symbol) == len(chunks[1]) // codec.alpha

    def test_total_repair_traffic_below_rs(self, codec, coded):
        _, chunks = coded
        helpers = codec.repair_recipe(0).candidates[: codec.d]
        total = sum(
            len(codec.repair_symbol(h, chunks[h], 0)) for h in helpers
        )
        rs_traffic = codec.k * len(chunks[0])
        assert total == 2 * len(chunks[0])
        assert total < rs_traffic

    def test_too_few_helpers(self, codec, coded):
        _, chunks = coded
        symbols = {h: codec.repair_symbol(h, chunks[h], 0) for h in (1, 2, 3)}
        with pytest.raises(DecodeError, match="need 4 repair symbols"):
            codec.repair_from_symbols(0, symbols)

    def test_too_few_symbols(self, codec, coded):
        _, chunks = coded
        symbols = {1: codec.repair_symbol(1, chunks[1], 0)}
        with pytest.raises(DecodeError, match="repair symbols"):
            codec.repair_from_symbols(0, symbols)

    def test_self_help_rejected(self, codec, coded):
        _, chunks = coded
        with pytest.raises(DecodeError):
            codec.repair_symbol(0, chunks[0], 0)

    def test_any_d_helpers_work(self, codec, coded):
        _, chunks = coded
        for helpers in itertools.combinations(range(1, 6), 4):
            symbols = {
                h: codec.repair_symbol(h, chunks[h], 0) for h in helpers
            }
            assert codec.repair_from_symbols(0, symbols) == chunks[0]


class TestLargerParameters:
    def test_msr_11_6(self):
        codec = MsrCodec(11, 6)
        data = random_chunks(6, 6 * 5, seed=4)  # divisible by alpha=5
        chunks = codec.encode(data)
        assert codec.decode_data({i: chunks[i] for i in range(5, 11)}) == data
        recipe = codec.repair_recipe(2)
        helpers = recipe.candidates[: recipe.fanin]
        symbols = {h: codec.repair_symbol(h, chunks[h], 2) for h in helpers}
        assert codec.repair_from_symbols(2, symbols) == chunks[2]
        # Repair traffic: d/alpha = 10/5 = 2 chunks vs k = 6 for RS.
        assert recipe.fanin * recipe.traffic == pytest.approx(2.0)
