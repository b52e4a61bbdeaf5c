"""Tests for the codec registry, scheme parsing and decode."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ec.codec import (
    check_equal_sizes,
    make_codec,
    registered_schemes,
)
from repro.ec.galois import gf_matmul_bytes
from repro.ec.lrc import LocalReconstructionCodec
from repro.ec.matrix import invert, rank
from repro.ec.reed_solomon import ReedSolomonCodec


class TestRegistry:
    def test_rs_registered(self):
        assert "rs" in registered_schemes()

    def test_lrc_registered(self):
        assert "lrc" in registered_schemes()

    def test_make_rs(self):
        codec = make_codec("rs(9,6)")
        assert isinstance(codec, ReedSolomonCodec)
        assert (codec.n, codec.k) == (9, 6)

    def test_make_rs_with_spaces_and_case(self):
        codec = make_codec("RS( 14 , 10 )")
        assert (codec.n, codec.k) == (14, 10)

    def test_make_lrc(self):
        codec = make_codec("lrc(12,2,2)")
        assert isinstance(codec, LocalReconstructionCodec)
        assert codec.n == 16

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown codec"):
            make_codec("raptor(9,6)")

    def test_msr_registered(self):
        assert "msr" in registered_schemes()

    def test_unparseable(self):
        with pytest.raises(ValueError, match="unparseable"):
            make_codec("rs-9-6")

    def test_paper_codes_instantiable(self):
        for scheme in ("rs(9,6)", "rs(14,10)", "rs(16,12)"):
            codec = make_codec(scheme)
            assert codec.k < codec.n


class TestCheckEqualSizes:
    def test_ok(self):
        assert check_equal_sizes([b"ab", b"cd"]) == 2

    def test_empty(self):
        with pytest.raises(ValueError):
            check_equal_sizes([])

    def test_mismatch(self):
        with pytest.raises(ValueError, match="chunk 1"):
            check_equal_sizes([b"ab", b"c"])

    def test_expected_override(self):
        with pytest.raises(ValueError):
            check_equal_sizes([b"ab"], expected=3)


def _unfolded_decode(codec, available, missing):
    """Rebuild all k data chunks, then re-encode the missing rows: the
    two-product decode, from the first k independent survivors."""
    generator = codec.generator_matrix
    helpers = []
    for index in sorted(available):
        if rank(generator[helpers + [index], :]) > len(helpers):
            helpers.append(index)
    helpers = helpers[: codec.k]
    shards = np.stack(
        [np.frombuffer(available[i], dtype=np.uint8) for i in helpers]
    )
    data = gf_matmul_bytes(invert(generator[helpers, :]), shards)
    rebuilt = gf_matmul_bytes(generator[missing, :], data)
    return {index: rebuilt[row].tobytes() for row, index in enumerate(missing)}


@pytest.mark.parametrize("scheme", ["rs(9,6)", "rs(6,4)", "lrc(6,2,2)"])
@settings(max_examples=10, deadline=None)
@given(size=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_decode_equals_the_unfolded_products(scheme, size, seed):
    """``decode`` folds ``G[missing] @ inv(G[helpers])`` into one matrix
    before touching the bytes; for every decodable erasure pattern the
    chunks equal the two-product result (and the originals)."""
    codec = make_codec(scheme)
    rng = np.random.default_rng(seed)
    coded = codec.encode(
        [rng.integers(0, 256, size, dtype=np.uint8).tobytes()
         for _ in range(codec.k)]
    )
    generator = codec.generator_matrix
    for lost in range(1, codec.n - codec.k + 1):
        for missing in itertools.combinations(range(codec.n), lost):
            available = {
                i: chunk for i, chunk in enumerate(coded) if i not in missing
            }
            if rank(generator[sorted(available), :]) < codec.k:
                continue  # LRC: not every n - k erasures are decodable
            decoded = codec.decode(available, missing)
            assert decoded == _unfolded_decode(codec, available, list(missing))
            assert decoded == {i: coded[i] for i in missing}
