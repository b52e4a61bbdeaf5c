"""Azure-style Locally Repairable Codes LRC(k, l, g).

The paper's Section III extends its analysis to LRCs: ``k`` data chunks
are split into ``l`` local groups (``k`` divisible by ``l``), each local
group gets one XOR local parity, and ``g`` global Cauchy parities cover
all data chunks.  A stripe therefore has ``n = k + l + g`` chunks.

Repairing one lost data chunk (or local parity) reads only the
``k' = k / l`` other chunks of its local group — the reduced repair
fan-in the paper substitutes into Equations (5) and (6).

Chunk index layout within a stripe:

* ``0 .. k-1`` — data chunks (group ``i`` owns ``[i*k/l, (i+1)*k/l)``),
* ``k .. k+l-1`` — local parities (one per group),
* ``k+l .. n-1`` — global parities.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .codec import (
    DecodeError,
    ErasureCodec,
    check_equal_sizes,
    register_codec,
)
from .galois import gf_matmul_bytes
from .matrix import cauchy, identity, invert, matmul, rank


class LocalReconstructionCodec(ErasureCodec):
    """LRC(k, l, g) codec with XOR local parities and Cauchy globals."""

    def __init__(self, k: int, l: int, g: int):
        if k <= 0 or l <= 0 or g < 0:
            raise ValueError(f"invalid LRC parameters k={k}, l={l}, g={g}")
        if k % l != 0:
            raise ValueError(f"k={k} must be divisible by l={l}")
        self.k = k
        self.l = l
        self.g = g
        self.n = k + l + g
        self.group_size = k // l
        self._generator = self._build_generator()

    def _build_generator(self) -> np.ndarray:
        rows: List[np.ndarray] = [identity(self.k)]
        local = np.zeros((self.l, self.k), dtype=np.uint8)
        for group in range(self.l):
            start = group * self.group_size
            local[group, start : start + self.group_size] = 1
        rows.append(local)
        if self.g:
            rows.append(cauchy(self.g, self.k))
        return np.concatenate(rows, axis=0)

    @property
    def generator_matrix(self) -> np.ndarray:
        """The ``n x k`` generator matrix (copy)."""
        return self._generator.copy()

    def group_of(self, index: int) -> int:
        """Return the local-group id of a data or local-parity chunk.

        Raises:
            ValueError: for global-parity indices, which have no group.
        """
        if 0 <= index < self.k:
            return index // self.group_size
        if self.k <= index < self.k + self.l:
            return index - self.k
        raise ValueError(f"chunk {index} is a global parity; no local group")

    def local_group_members(self, group: int) -> List[int]:
        """All chunk indices of a local group (data + local parity)."""
        if not 0 <= group < self.l:
            raise ValueError(f"group {group} outside [0, {self.l})")
        start = group * self.group_size
        members = list(range(start, start + self.group_size))
        members.append(self.k + group)
        return members

    def encode(self, data_chunks: Sequence[bytes]) -> List[bytes]:
        if len(data_chunks) != self.k:
            raise ValueError(
                f"LRC expects {self.k} data chunks, got {len(data_chunks)}"
            )
        check_equal_sizes(data_chunks)
        shards = np.stack(
            [np.frombuffer(c, dtype=np.uint8) for c in data_chunks]
        )
        parity_rows = self._generator[self.k :, :]
        parity = gf_matmul_bytes(parity_rows, shards)
        coded = [bytes(c) for c in data_chunks]
        coded.extend(parity[i].tobytes() for i in range(self.l + self.g))
        return coded

    def decode(
        self,
        available: Dict[int, bytes],
        wanted: Sequence[int],
    ) -> Dict[int, bytes]:
        wanted = list(wanted)
        result: Dict[int, bytes] = {
            i: bytes(available[i]) for i in wanted if i in available
        }
        missing = [i for i in wanted if i not in available]
        if not missing:
            return result
        check_equal_sizes(list(available.values()))

        # Fast path: single missing chunk repairable within its group.
        if len(missing) == 1 and missing[0] < self.k + self.l:
            group = self.group_of(missing[0])
            members = [m for m in self.local_group_members(group) if m != missing[0]]
            if all(m in available for m in members):
                acc = np.zeros(len(next(iter(available.values()))), dtype=np.uint8)
                for m in members:
                    np.bitwise_xor(
                        acc, np.frombuffer(available[m], dtype=np.uint8), out=acc
                    )
                result[missing[0]] = acc.tobytes()
                return result

        # General path: pick k independent generator rows among survivors.
        helper_ids = self._independent_rows(sorted(available))
        helper_shards = np.stack(
            [np.frombuffer(available[i], dtype=np.uint8) for i in helper_ids]
        )
        sub_inv = invert(self._generator[helper_ids, :])
        # G[missing] @ inv(G[helpers]) first: one r x k product over the
        # bytes instead of rebuilding all k data chunks.
        rebuilt = gf_matmul_bytes(
            matmul(self._generator[missing, :], sub_inv), helper_shards
        )
        for row, idx in enumerate(missing):
            result[idx] = rebuilt[row].tobytes()
        return result

    def _independent_rows(self, candidates: Sequence[int]) -> List[int]:
        """Greedily pick k generator rows of full rank from candidates."""
        chosen: List[int] = []
        for idx in candidates:
            trial = chosen + [idx]
            if rank(self._generator[trial, :]) == len(trial):
                chosen.append(idx)
            if len(chosen) == self.k:
                return chosen
        raise DecodeError(
            f"available chunks {list(candidates)} span rank "
            f"{len(chosen)} < k={self.k}; stripe unrecoverable"
        )

    def repair_group(self, lost_index: int) -> Optional[List[int]]:
        """The lost chunk's local group; ``None`` for a global parity."""
        if lost_index >= self.k + self.l:
            return None
        members = self.local_group_members(self.group_of(lost_index))
        return [m for m in members if m != lost_index]

    def repair_helpers(self, lost_index: int, alive: Sequence[int]) -> List[int]:
        alive_set = {i for i in alive if i != lost_index}
        group = self.repair_group(lost_index)
        if group is not None and alive_set.issuperset(group):
            return group
        # Degraded: fall back to a global decode from k independent rows.
        return self._independent_rows(sorted(alive_set))

    def recovery_coefficients(
        self, lost_index: int, helper_ids: Sequence[int]
    ) -> Dict[int, int]:
        """GF coefficients for streaming single-chunk repair.

        For a local repair (helpers = the lost chunk's local group) the
        coefficients are all 1 (XOR); in general they come from solving
        the generator system over the supplied helper rows.
        """
        helper_ids = list(helper_ids)
        if lost_index in helper_ids:
            raise DecodeError("lost chunk cannot be its own helper")
        group = self.repair_group(lost_index)
        if group is not None and set(group) == set(helper_ids):
            return {helper: 1 for helper in helper_ids}
        if rank(self._generator[helper_ids, :]) != self.k:
            raise DecodeError(
                f"helpers {helper_ids} do not span the code (rank < k)"
            )
        if len(helper_ids) != self.k:
            raise DecodeError(
                f"general LRC repair needs exactly k={self.k} independent "
                f"helpers, got {len(helper_ids)}"
            )
        sub_inv = invert(self._generator[helper_ids, :])
        row = matmul(self._generator[[lost_index], :], sub_inv)[0]
        return {helper: int(row[i]) for i, helper in enumerate(helper_ids)}

    def single_repair_cost(self):
        from .codec import RepairCost

        kprime = self.group_size
        return RepairCost(helpers=kprime, traffic_chunks=float(kprime))


def _lrc_factory(k: int, l: int, g: int) -> LocalReconstructionCodec:
    return LocalReconstructionCodec(k, l, g)


register_codec("lrc", _lrc_factory)
