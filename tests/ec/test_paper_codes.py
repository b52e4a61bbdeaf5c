"""The paper's three production code parameterizations, end to end.

RS(9,6) (QFS default), RS(14,10) (Facebook f4) and RS(16,12) (Azure's
coding parameters) are the codes every experiment sweeps; these tests
pin their correctness at byte level.
"""

import itertools
import random

import numpy as np
import pytest

from repro.ec import make_codec
from repro.ec.matrix import rank

PAPER_SCHEMES = ["rs(9,6)", "rs(14,10)", "rs(16,12)"]


def random_chunks(k, size, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size, dtype=np.uint8).tobytes() for _ in range(k)]


@pytest.mark.parametrize("scheme", PAPER_SCHEMES)
class TestPaperCodes:
    def test_mds_on_sampled_subsets(self, scheme):
        codec = make_codec(scheme)
        gen = codec.generator_matrix
        rng = random.Random(7)
        all_subsets = list(itertools.combinations(range(codec.n), codec.k))
        sampled = rng.sample(all_subsets, min(60, len(all_subsets)))
        for rows in sampled:
            assert rank(gen[list(rows), :]) == codec.k, rows

    def test_single_chunk_repair_all_positions(self, scheme):
        codec = make_codec(scheme)
        coded = codec.encode(random_chunks(codec.k, 64, seed=1))
        for lost in range(codec.n):
            recipe = codec.repair_recipe(lost)
            helpers = recipe.candidates[: recipe.fanin]
            assert len(helpers) == codec.k
            rebuilt = codec.decode(
                {i: coded[i] for i in helpers}, [lost]
            )
            assert rebuilt[lost] == coded[lost]

    def test_max_erasures_recoverable(self, scheme):
        codec = make_codec(scheme)
        coded = codec.encode(random_chunks(codec.k, 32, seed=2))
        lost = list(range(codec.n - codec.k))  # n - k erasures
        available = {i: coded[i] for i in range(codec.n) if i not in lost}
        rebuilt = codec.decode(available, lost)
        for i in lost:
            assert rebuilt[i] == coded[i]

    def test_repair_traffic_is_k_chunks(self, scheme):
        codec = make_codec(scheme)
        recipe = codec.repair_recipe(0)
        assert recipe.fanin == codec.k
        assert recipe.fanin * recipe.traffic == float(codec.k)

    def test_streaming_coefficients_match_decode(self, scheme):
        from repro.ec.galois import gf_mul_bytes

        codec = make_codec(scheme)
        coded = codec.encode(random_chunks(codec.k, 48, seed=3))
        lost = codec.n - 1
        helpers = list(range(codec.k))
        coeffs = codec.recovery_coefficients(lost, helpers)
        acc = np.zeros(48, dtype=np.uint8)
        for helper, coeff in coeffs.items():
            acc ^= gf_mul_bytes(
                coeff, np.frombuffer(coded[helper], dtype=np.uint8)
            )
        assert acc.tobytes() == coded[lost]
