"""Systematic Reed-Solomon codes RS(n, k) over GF(2^8).

This is the reproduction of the paper's coding substrate (Jerasure
v1.2 RS coding).  The generator matrix is systematic with a Cauchy
parity block, so every ``k x k`` submatrix of the generator is
invertible and the code is MDS: any ``k`` of the ``n`` coded chunks of
a stripe can rebuild the original data — exactly the RS(n, k) property
the paper relies on (Section II-A).

Single-chunk repair reads ``k`` helper chunks (the k-fold repair
traffic amplification that motivates FastPR).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .codec import (
    DecodeError,
    ErasureCodec,
    check_equal_sizes,
    normalize_wanted,
    register_codec,
)
from .galois import gf_matmul_bytes
from .matrix import cauchy, identity


class ReedSolomonCodec(ErasureCodec):
    """Systematic RS(n, k) codec.

    Args:
        n: total chunks per stripe.
        k: data chunks per stripe (k < n).

    The first ``k`` coded chunks are the data chunks verbatim; the
    remaining ``n - k`` are Cauchy-parity combinations.
    """

    def __init__(self, n: int, k: int):
        if not 0 < k < n:
            raise ValueError(f"require 0 < k < n, got n={n}, k={k}")
        if n > 255:
            raise ValueError("GF(2^8) RS supports at most n=255")
        self.n = n
        self.k = k
        parity = cauchy(n - k, k)
        self._generator = np.concatenate([identity(k), parity], axis=0)

    @property
    def generator_matrix(self) -> np.ndarray:
        """The ``n x k`` systematic generator matrix (copy)."""
        return self._generator.copy()

    def decode_batch(
        self,
        stripes: Sequence[Dict[int, bytes]],
        wanted: Sequence,
    ) -> List[Dict[int, bytes]]:
        """Rebuild ``wanted`` across many stripes, batching by erasure set.

        ``wanted`` is a flat index list shared by every stripe or one
        index list per stripe.  Stripes sharing the same available and
        wanted index sets need the same decode matrix, so each such
        group collapses into one wide matrix product over its
        concatenated helper shards.
        """
        stripes = list(stripes)
        per_stripe = normalize_wanted(wanted, len(stripes))
        results: List[Dict[int, bytes]] = [None] * len(stripes)  # type: ignore
        groups: Dict[tuple, List[int]] = {}
        for i, available in enumerate(stripes):
            key = (
                tuple(sorted(available)),
                tuple(sorted(per_stripe[i])),
            )
            groups.setdefault(key, []).append(i)
        for (avail_key, want_key), members in groups.items():
            if len(members) == 1:
                i = members[0]
                results[i] = self.decode(stripes[i], per_stripe[i])
                continue
            for idx in want_key:
                if not 0 <= idx < self.n:
                    raise ValueError(
                        f"chunk index {idx} outside stripe of {self.n}"
                    )
            missing = [i for i in want_key if i not in avail_key]
            if not missing:
                for i in members:
                    results[i] = {
                        w: bytes(stripes[i][w]) for w in per_stripe[i]
                    }
                continue
            if len(avail_key) < self.k:
                raise DecodeError(
                    f"need {self.k} chunks to decode, have {len(avail_key)}"
                )
            helper_ids = list(avail_key)[: self.k]
            size = check_equal_sizes(
                [stripes[members[0]][h] for h in helper_ids]
            )
            helpers = np.empty((self.k, len(members) * size), dtype=np.uint8)
            for col, i in enumerate(members):
                check_equal_sizes(
                    [stripes[i][h] for h in helper_ids], expected=size
                )
                for row, h in enumerate(helper_ids):
                    helpers[row, col * size : (col + 1) * size] = (
                        np.frombuffer(stripes[i][h], dtype=np.uint8)
                    )
            # one small solve, then one wide product over the bytes
            rebuild = gf_matmul_bytes(
                self._rebuild_matrix(helper_ids, missing), helpers
            )
            for col, i in enumerate(members):
                out = {
                    w: bytes(stripes[i][w])
                    for w in per_stripe[i]
                    if w in stripes[i]
                }
                for row, idx in enumerate(missing):
                    out[idx] = rebuild[
                        row, col * size : (col + 1) * size
                    ].tobytes()
                results[i] = out
        return results

    def decode(
        self,
        available: Dict[int, bytes],
        wanted: Sequence[int],
    ) -> Dict[int, bytes]:
        wanted = list(wanted)
        for idx in wanted:
            if not 0 <= idx < self.n:
                raise ValueError(f"chunk index {idx} outside stripe of {self.n}")
        # Trivially satisfy wanted indices that are present.
        result: Dict[int, bytes] = {}
        missing = [i for i in wanted if i not in available]
        for i in wanted:
            if i in available:
                result[i] = bytes(available[i])
        if not missing:
            return result

        if len(available) < self.k:
            raise DecodeError(
                f"need {self.k} chunks to decode, have {len(available)}"
            )
        helper_ids = sorted(available)[: self.k]
        size = check_equal_sizes([available[i] for i in helper_ids])
        helper_shards = np.stack(
            [np.frombuffer(available[i], dtype=np.uint8) for i in helper_ids]
        )
        # one r x k product over the bytes, not k x k and then r x k
        rebuilt = gf_matmul_bytes(
            self._rebuild_matrix(helper_ids, missing), helper_shards
        )
        for row, idx in enumerate(missing):
            result[idx] = rebuilt[row].tobytes()
        for i in wanted:
            if len(result[i]) != size:
                raise AssertionError("decoded size mismatch")
        return result


def _rs_factory(n: int, k: int) -> ReedSolomonCodec:
    return ReedSolomonCodec(n, k)


register_codec("rs", _rs_factory)
