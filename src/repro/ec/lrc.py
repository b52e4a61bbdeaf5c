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

from typing import Dict, List, Sequence

import numpy as np

from .codec import (
    DecodeError,
    ErasureCodec,
    RepairRecipe,
    check_equal_sizes,
    register_codec,
)
from .galois import gf_matmul_bytes
from .matrix import cauchy, identity, rank


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
        # One lost chunk with its recipe's candidates at hand reads them
        # (a local group); otherwise k survivors whose rows span.
        recipe = self.repair_recipe(missing[0])
        if len(missing) == 1 and available.keys() >= set(recipe.candidates):
            helper_ids = list(recipe.candidates[: recipe.fanin])
        else:
            helper_ids = self._independent_rows(sorted(available))
        helper_shards = np.stack(
            [np.frombuffer(available[i], dtype=np.uint8) for i in helper_ids]
        )
        # one r x k product over the bytes, not all k data chunks
        rebuilt = gf_matmul_bytes(
            self._rebuild_matrix(helper_ids, missing), helper_shards
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

    def repair_recipe(self, lost_index: int) -> RepairRecipe:
        """A data chunk or local parity reads the other ``k/l`` members
        of its local group.  A global parity reads any ``k`` of the data
        chunks and the other global parities: their generator rows,
        ``[I; Cauchy]``, form an MDS code, so every ``k`` of them span.
        """
        others = super().repair_recipe(lost_index).candidates
        if lost_index < self.k + self.l:
            members = self.local_group_members(self.group_of(lost_index))
            group = tuple(m for m in members if m != lost_index)
            return RepairRecipe(group, fanin=len(group))
        local_parities = range(self.k, self.k + self.l)
        spanning = tuple(i for i in others if i not in local_parities)
        return RepairRecipe(spanning, fanin=self.k)


def _lrc_factory(k: int, l: int, g: int) -> LocalReconstructionCodec:
    return LocalReconstructionCodec(k, l, g)


register_codec("lrc", _lrc_factory)
