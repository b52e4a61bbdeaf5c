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
from .matrix import cauchy, identity, invert, matmul, SingularMatrixError


#: input bytes ``encode_batch`` stacks per matmul (4 stripes of rs(9,6)
#: at 4 KiB chunks, which already amortizes the calls).  Kept under the
#: allocator's 128 KiB mmap threshold: a larger stack is mapped afresh
#: and page-faulted in on every call, which cost more than it saved.
#: The seeded data set (``runtime.driver``) draws windows of this size.
WINDOW_BYTES = 96 * 1024


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

    def encode(self, data_chunks: Sequence[bytes]) -> List[bytes]:
        if len(data_chunks) != self.k:
            raise ValueError(
                f"RS({self.n},{self.k}) expects {self.k} data chunks, "
                f"got {len(data_chunks)}"
            )
        check_equal_sizes(data_chunks)
        shards = np.stack(
            [np.frombuffer(c, dtype=np.uint8) for c in data_chunks]
        )
        parity_rows = self._generator[self.k :, :]
        parity = gf_matmul_bytes(parity_rows, shards)
        coded = [bytes(c) for c in data_chunks]
        coded.extend(parity[i].tobytes() for i in range(self.n - self.k))
        return coded

    def encode_batch(
        self, stripes: Sequence[Sequence[bytes]]
    ) -> List[List[bytes]]:
        """Encode a batch of stripes with wide parity matmuls.

        The stripes' data shards are laid side by side into a
        ``(k, W*L)`` matrix, so the GF kernel runs once per window of
        ``W`` stripes instead of once per stripe — same bytes out as
        ``[self.encode(s) for s in stripes]``, far less per-call
        overhead.  A window holds at most ``WINDOW_BYTES`` of input
        (one stripe when a stripe is larger), so a large batch never
        allocates a second copy of itself.
        """
        stripes = list(stripes)
        if not stripes:
            return []
        if len(stripes) == 1:
            return [self.encode(stripes[0])]
        for stripe in stripes:
            if len(stripe) != self.k:
                raise ValueError(
                    f"RS({self.n},{self.k}) expects {self.k} data chunks, "
                    f"got {len(stripe)}"
                )
        size = check_equal_sizes(
            [chunk for stripe in stripes for chunk in stripe]
        )
        window = max(1, WINDOW_BYTES // max(1, self.k * size))
        parity_rows = self._generator[self.k :, :]
        coded: List[List[bytes]] = []
        for start in range(0, len(stripes), window):
            group = stripes[start : start + window]
            # one join is the whole row-major (k, W*L) stack
            shards = np.frombuffer(
                b"".join(
                    [stripe[row] for row in range(self.k) for stripe in group]
                ),
                dtype=np.uint8,
            ).reshape(self.k, len(group) * size)
            parity = gf_matmul_bytes(parity_rows, shards)
            for b, stripe in enumerate(group):
                rows = [bytes(chunk) for chunk in stripe]
                rows.extend(
                    parity[i, b * size : (b + 1) * size].tobytes()
                    for i in range(self.n - self.k)
                )
                coded.append(rows)
        return coded

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
            sub = self._generator[helper_ids, :]
            try:
                sub_inv = invert(sub)
            except SingularMatrixError as exc:  # pragma: no cover
                raise DecodeError(f"singular decode submatrix: {exc}") from exc
            # rebuild = G[missing] @ inv(G[helpers]) @ helpers: fold the
            # two small matrices first so only one wide product runs.
            rebuild = gf_matmul_bytes(
                matmul(self._generator[missing, :], sub_inv), helpers
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
        # helpers = G[helper_ids] @ data  =>  data = inv(G[helper_ids]) @ helpers
        sub = self._generator[helper_ids, :]
        try:
            sub_inv = invert(sub)
        except SingularMatrixError as exc:  # cannot happen for Cauchy RS
            raise DecodeError(f"singular decode submatrix: {exc}") from exc
        # rebuilt = G[missing] @ data: fold the two small matrices first
        # so one r x k product runs over the bytes, not k x k and r x k.
        rebuilt = gf_matmul_bytes(
            matmul(self._generator[missing, :], sub_inv), helper_shards
        )
        for row, idx in enumerate(missing):
            result[idx] = rebuilt[row].tobytes()
        for i in wanted:
            if len(result[i]) != size:
                raise AssertionError("decoded size mismatch")
        return result

    def repair_helpers(self, lost_index: int, alive: Sequence[int]) -> List[int]:
        alive = [i for i in alive if i != lost_index]
        if len(alive) < self.k:
            raise DecodeError(
                f"cannot repair chunk {lost_index}: only {len(alive)} "
                f"survivors, need {self.k}"
            )
        return sorted(alive)[: self.k]

    def recovery_coefficients(
        self, lost_index: int, helper_ids: Sequence[int]
    ) -> Dict[int, int]:
        """GF coefficients for streaming single-chunk repair.

        The lost chunk equals ``sum(coeff[h] * chunk[h])`` over the
        ``k`` helpers, so a repairing node can accumulate each helper
        packet as it arrives (the runtime's decode thread, Section V).

        Raises:
            DecodeError: if ``helper_ids`` is not exactly ``k`` distinct
                surviving indices.
        """
        helper_ids = list(helper_ids)
        if len(helper_ids) != self.k or len(set(helper_ids)) != self.k:
            raise DecodeError(
                f"need exactly k={self.k} distinct helpers, got {helper_ids}"
            )
        if lost_index in helper_ids:
            raise DecodeError("lost chunk cannot be its own helper")
        sub = self._generator[helper_ids, :]
        try:
            sub_inv = invert(sub)
        except SingularMatrixError as exc:
            raise DecodeError(f"singular helper submatrix: {exc}") from exc
        row = matmul(self._generator[[lost_index], :], sub_inv)[0]
        return {helper: int(row[i]) for i, helper in enumerate(helper_ids)}


def _rs_factory(n: int, k: int) -> ReedSolomonCodec:
    return ReedSolomonCodec(n, k)


register_codec("rs", _rs_factory)
