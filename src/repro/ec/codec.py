"""Erasure-codec abstractions.

Defines the interface every erasure code in this repository implements,
plus a small registry so that experiments can name codes by scheme
string (e.g. ``"rs(9,6)"`` or ``"lrc(12,2,2)"``) the way the paper
names them in its figures.

A codec operates on *stripes*: ``k`` source chunks are encoded into
``n`` coded chunks, and any allowed subset of coded chunks can rebuild
the missing ones.  Chunks are ``bytes``-like buffers of equal length.

A codec answers every question about repairing one lost chunk of a
healthy stripe in one place, :meth:`ErasureCodec.repair_recipe`: which
chunks the repair may read, how many of them it reads (the paper's
``k'``) and how much of a chunk each helper sends.  The planners, the
cost model and the repair runtime all read that one answer; the
runtime turns the helpers a plan chose into per-helper GF(2^8)
coefficients with :meth:`ErasureCodec.recovery_coefficients`.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .matrix import SingularMatrixError, solve


class DecodeError(ValueError):
    """Raised when the surviving chunks cannot rebuild the lost ones."""


def normalize_wanted(wanted: Sequence, batch: int) -> List[List[int]]:
    """Expand a ``decode_batch`` wanted spec to one index list per stripe.

    Accepts either a flat list of chunk indices (broadcast to every
    stripe) or a sequence of ``batch`` per-stripe index lists.
    """
    wanted = list(wanted)
    if not wanted or not hasattr(wanted[0], "__iter__"):
        flat = [int(w) for w in wanted]
        return [list(flat) for _ in range(batch)]
    per_stripe = [[int(i) for i in w] for w in wanted]
    if len(per_stripe) != batch:
        raise ValueError(
            f"per-stripe wanted needs one entry per stripe: "
            f"{len(per_stripe)} != {batch}"
        )
    return per_stripe


@dataclass(frozen=True)
class RepairRecipe:
    """How a healthy stripe repairs one lost chunk.

    Attributes:
        candidates: the chunk indices the repair may read, in the
            codec's order.
        fanin: how many of the candidates one repair reads (the
            paper's ``k'``: ``k`` for RS, ``k/l`` for an LRC local
            repair, ``d`` for MSR).
        traffic: the bytes each helper sends, as a fraction of a chunk
            (1.0 for whole chunks, ``1/α`` for an MSR sub-symbol).
    """

    candidates: Tuple[int, ...]
    fanin: int
    traffic: float = 1.0


class ErasureCodec(ABC):
    """Abstract erasure code over byte chunks.

    Concrete codecs are immutable and safe to share across threads.
    """

    #: total chunks per stripe
    n: int
    #: source chunks per stripe
    k: int
    #: ``n x k`` generator matrix when every chunk is a GF(2^8)
    #: combination of the data chunks (RS, LRC; not MSR)
    _generator: Optional[np.ndarray] = None

    @abstractmethod
    def encode(self, data_chunks: Sequence[bytes]) -> List[bytes]:
        """Encode ``k`` equal-size data chunks into ``n`` coded chunks.

        For systematic codes the first ``k`` outputs are the inputs.
        """

    @abstractmethod
    def decode(
        self,
        available: Dict[int, bytes],
        wanted: Sequence[int],
    ) -> Dict[int, bytes]:
        """Rebuild the chunks at the ``wanted`` indices.

        Args:
            available: mapping from chunk index (0..n-1) to its bytes.
            wanted: indices of the chunks to reconstruct.

        Returns:
            Mapping from each wanted index to its reconstructed bytes.

        Raises:
            DecodeError: if ``available`` is insufficient.
        """

    def encode_batch(
        self, stripes: Sequence[Sequence[bytes]]
    ) -> List[List[bytes]]:
        """Encode many stripes at once.

        Semantically identical to ``[self.encode(s) for s in stripes]``.
        Codecs whose math is a GF matrix product override this to stack
        the batch into one wide matrix multiply, which amortizes the
        per-call Python overhead over ``B * L`` bytes instead of ``L``.
        """
        return [self.encode(stripe) for stripe in stripes]

    def decode_batch(
        self,
        stripes: Sequence[Dict[int, bytes]],
        wanted: Sequence,
    ) -> List[Dict[int, bytes]]:
        """Rebuild the ``wanted`` indices of many stripes at once.

        ``wanted`` is either one flat index list shared by every stripe
        or a per-stripe sequence of index lists (one entry per stripe,
        as produced by mixed erasure sets).  Semantically identical to
        ``[self.decode(a, w) for a, w in zip(stripes, wanted)]`` with
        the shared form broadcast.  Overrides may batch stripes that
        share the same availability and wanted sets into a single
        matrix operation.
        """
        stripes = list(stripes)
        per_stripe = normalize_wanted(wanted, len(stripes))
        return [
            self.decode(available, want)
            for available, want in zip(stripes, per_stripe)
        ]

    def repair_recipe(self, lost_index: int) -> RepairRecipe:
        """How a healthy stripe repairs the chunk at ``lost_index``.

        The MDS answer: any ``k`` of the other ``n - 1`` chunks, each
        sent whole.  A repair-efficient code overrides it.
        """
        if not 0 <= lost_index < self.n:
            raise ValueError(
                f"chunk index {lost_index} outside stripe of {self.n}"
            )
        others = tuple(i for i in range(self.n) if i != lost_index)
        return RepairRecipe(candidates=others, fanin=self.k)

    def recovery_coefficients(
        self, lost_index: int, helper_ids: Sequence[int]
    ) -> Dict[int, int]:
        """GF(2^8) coefficients for streaming single-chunk repair.

        The lost chunk equals ``sum(coeff[h] * chunk[h])`` over the
        helpers (``k`` chunks that span the code, or an LRC's local
        group), so a repairing node can accumulate each helper packet
        as it arrives (the runtime's decode thread, Section V).

        Raises:
            DecodeError: the helpers include the lost chunk, repeat or
                do not determine it, or the code's helpers send
                sub-chunk symbols rather than scaled chunks (MSR).
        """
        helper_ids = list(helper_ids)
        if lost_index in helper_ids:
            raise DecodeError("lost chunk cannot be its own helper")
        row = self._rebuild_matrix(helper_ids, [lost_index])[0]
        return {helper: int(c) for helper, c in zip(helper_ids, row)}

    def _rebuild_matrix(
        self, helper_ids: Sequence[int], wanted: Sequence[int]
    ) -> np.ndarray:
        """The ``wanted x helpers`` matrix that turns the helpers' chunks
        into the wanted ones: the one solve of ``G[helpers]^T X =
        G[wanted]^T`` behind every decode and repair coefficient."""
        if self._generator is None:
            raise DecodeError(
                f"{self!r} has no per-helper coefficients: its helpers "
                "send sub-chunk symbols"
            )
        generator = self._generator
        try:
            return solve(generator[helper_ids].T, generator[wanted].T).T
        except SingularMatrixError as exc:
            raise DecodeError(
                f"helpers {list(helper_ids)} cannot rebuild chunks "
                f"{list(wanted)}: {exc}"
            ) from exc

    @property
    def storage_overhead(self) -> float:
        """Redundancy factor n/k."""
        return self.n / self.k

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n}, k={self.k})"


_REGISTRY: Dict[str, Callable[..., ErasureCodec]] = {}


def register_codec(name: str, factory: Callable[..., ErasureCodec]) -> None:
    """Register a codec factory under a scheme name (e.g. ``"rs"``)."""
    _REGISTRY[name.lower()] = factory


_SCHEME_RE = re.compile(r"^\s*([a-zA-Z_]+)\s*\(\s*([\d\s,]+)\)\s*$")


def make_codec(scheme: str) -> ErasureCodec:
    """Instantiate a codec from a scheme string.

    Examples:
        >>> make_codec("rs(9,6)").n
        9
        >>> make_codec("RS(14, 10)").k
        10
    """
    match = _SCHEME_RE.match(scheme)
    if not match:
        raise ValueError(f"unparseable codec scheme: {scheme!r}")
    name = match.group(1).lower()
    params = [int(p) for p in match.group(2).split(",")]
    factory = _REGISTRY.get(name)
    if factory is None:
        raise ValueError(
            f"unknown codec {name!r}; registered: {sorted(_REGISTRY)}"
        )
    return factory(*params)


def registered_schemes() -> List[str]:
    """Return the registered scheme names."""
    return sorted(_REGISTRY)


def check_equal_sizes(chunks: Sequence[bytes], expected: Optional[int] = None) -> int:
    """Validate that all chunks share one size; return that size."""
    if not chunks:
        raise ValueError("no chunks supplied")
    size = len(chunks[0]) if expected is None else expected
    for i, chunk in enumerate(chunks):
        if len(chunk) != size:
            raise ValueError(
                f"chunk {i} has size {len(chunk)}, expected {size}"
            )
    return size
