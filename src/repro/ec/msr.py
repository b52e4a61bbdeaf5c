"""Product-matrix Minimum-Storage Regenerating (MSR) codes.

The paper's related work (Section II-A) cites MSR codes [8], [29],
[32], [40] as the storage-optimal family that minimizes single-chunk
repair traffic: instead of reading ``k`` whole chunks, a repair
contacts ``d`` helpers that each send a small *sub-symbol*, for total
traffic well below ``k`` chunks.  This module implements the classic
product-matrix MSR construction of Rashmi, Shah and Kumar (IEEE T-IT
2011) at the ``d = 2k - 2`` point over GF(2^8):

* every node stores ``α = k - 1`` sub-chunks (same total size as RS);
* the ``B = k(k-1)`` message sub-symbols fill two symmetric
  ``α x α`` matrices ``S1, S2``;
* node ``i`` with encoding row ``ψ_i = [φ_i, λ_i φ_i]`` stores
  ``φ_i^T S1 + λ_i φ_i^T S2``, where ``φ_i`` is a Vandermonde row in
  ``x_i`` and ``λ_i = x_i^α``;
* **repair**: each of ``d`` helpers sends the scalar product of its
  stored row with ``φ_f`` — one sub-chunk each, so repair traffic is
  ``d / α = 2`` chunks instead of ``k``;
* **reconstruction**: any ``k`` nodes determine ``S1`` and ``S2``
  (hence everything) via the pairwise λ-elimination decode.

The code is *not systematic*: all ``n`` chunks are coded.  ``encode``
packs the ``k`` input chunks into the message matrices and returns the
``n`` node chunks; ``decode`` recovers any requested node chunks (and
:meth:`MsrCodec.decode_data` the original inputs) from any ``k``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from .codec import (
    DecodeError,
    ErasureCodec,
    RepairRecipe,
    check_equal_sizes,
    register_codec,
)
from .galois import gf_matmul_bytes, gf_mul, gf_pow
from .matrix import SingularMatrixError, invert, matmul


class MsrCodec(ErasureCodec):
    """Product-matrix MSR(n, k) at the d = 2k - 2 repair degree.

    Args:
        n: total nodes per stripe; requires ``n >= 2k - 1`` so that
            ``d = 2k - 2`` helpers exist.
        k: reconstruction threshold; requires ``k >= 3`` (below that,
            the MSR point degenerates).
    """

    def __init__(self, n: int, k: int):
        if k < 3:
            raise ValueError(f"product-matrix MSR needs k >= 3, got k={k}")
        if n < 2 * k - 1:
            raise ValueError(
                f"d = 2k-2 = {2 * k - 2} helpers need n >= {2 * k - 1}, "
                f"got n={n}"
            )
        if n > 254:
            raise ValueError("GF(2^8) construction supports at most n=254")
        self.n = n
        self.k = k
        self.alpha = k - 1
        self.d = 2 * k - 2
        # Distinct nonzero evaluation points x_i, chosen greedily so
        # the lambda_i = x_i^alpha are also distinct (x -> x^alpha is
        # not injective in GF(2^8) when gcd(alpha, 255) > 1; the image
        # has 255/gcd(alpha,255) elements, which bounds n).
        self._points: List[int] = []
        seen_lambda = set()
        for x in range(1, 256):
            lam = gf_pow(x, self.alpha)
            if lam in seen_lambda:
                continue
            seen_lambda.add(lam)
            self._points.append(x)
            if len(self._points) == n:
                break
        if len(self._points) < n:
            raise ValueError(
                f"GF(2^8) admits only {len(self._points)} nodes with "
                f"distinct x^alpha for alpha={self.alpha}; n={n} too large"
            )
        self._phi = np.zeros((n, self.alpha), dtype=np.uint8)
        for i, x in enumerate(self._points):
            for j in range(self.alpha):
                self._phi[i, j] = gf_pow(x, j)
        self._lam = np.array(
            [gf_pow(x, self.alpha) for x in self._points], dtype=np.uint8
        )
        # psi_i = [phi_i, lambda_i * phi_i]  (n x d)
        self._psi = np.zeros((n, self.d), dtype=np.uint8)
        self._psi[:, : self.alpha] = self._phi
        for i in range(n):
            for j in range(self.alpha):
                self._psi[i, self.alpha + j] = gf_mul(
                    int(self._lam[i]), int(self._phi[i, j])
                )

    # ------------------------------------------------------------------
    # Message packing
    # ------------------------------------------------------------------

    @property
    def message_symbols(self) -> int:
        """B = k(k-1) sub-symbols per stripe."""
        return self.k * self.alpha

    def _sub_size(self, chunk_size: int) -> int:
        if chunk_size % self.alpha != 0:
            raise ValueError(
                f"chunk size {chunk_size} must be divisible by "
                f"alpha={self.alpha}"
            )
        return chunk_size // self.alpha

    def _symmetric_slots(self) -> List[Tuple[int, int]]:
        """Upper-triangle fill order of an alpha x alpha symmetric matrix."""
        return [
            (r, c) for r in range(self.alpha) for c in range(r, self.alpha)
        ]

    def _pack_message(
        self, data_chunks: Sequence[bytes]
    ) -> Tuple[np.ndarray, int]:
        """Pack k chunks into the d x alpha message matrix of sub-symbols.

        Returns ``(M, sub_size)`` where ``M[row, col]`` indexes a
        sub-symbol and the matrix is materialized as an object-free
        uint8 array of shape ``(d, alpha, sub_size)``.
        """
        size = check_equal_sizes(data_chunks)
        sub = self._sub_size(size)
        flat = np.frombuffer(b"".join(data_chunks), dtype=np.uint8)
        symbols = flat.reshape(self.message_symbols, sub)
        M = np.zeros((self.d, self.alpha, sub), dtype=np.uint8)
        slots = self._symmetric_slots()
        half = len(slots)  # = alpha(alpha+1)/2 ... per symmetric matrix
        # S1 takes the first half of the symbols, S2 the second half.
        for idx, (r, c) in enumerate(slots):
            M[r, c] = symbols[idx]
            M[c, r] = symbols[idx]
        for idx, (r, c) in enumerate(slots):
            M[self.alpha + r, c] = symbols[half + idx]
            M[self.alpha + c, r] = symbols[half + idx]
        return M, sub

    def _unpack_message(self, S1: np.ndarray, S2: np.ndarray) -> List[bytes]:
        """Inverse of :meth:`_pack_message`: symmetric matrices -> chunks."""
        sub = S1.shape[2] if S1.ndim == 3 else S1.shape[-1]
        slots = self._symmetric_slots()
        pieces = [S1[r, c] for (r, c) in slots] + [S2[r, c] for (r, c) in slots]
        flat = np.concatenate([np.asarray(p, dtype=np.uint8) for p in pieces])
        chunk_size = self.alpha * sub
        return [
            flat[i * chunk_size : (i + 1) * chunk_size].tobytes()
            for i in range(self.k)
        ]

    # ------------------------------------------------------------------
    # Encode
    # ------------------------------------------------------------------

    def encode(self, data_chunks: Sequence[bytes]) -> List[bytes]:
        if len(data_chunks) != self.k:
            raise ValueError(
                f"MSR({self.n},{self.k}) expects {self.k} data chunks, "
                f"got {len(data_chunks)}"
            )
        M, sub = self._pack_message(data_chunks)
        # node i row: psi_i^T M  -> alpha sub-symbols
        flatM = M.reshape(self.d, self.alpha * sub)
        coded = gf_matmul_bytes(self._psi, flatM)  # (n, alpha*sub)
        return [coded[i].tobytes() for i in range(self.n)]

    # ------------------------------------------------------------------
    # Repair-by-transfer
    # ------------------------------------------------------------------

    def repair_recipe(self, lost_index: int) -> RepairRecipe:
        """Any ``d`` of the other chunks, each sending one sub-symbol
        (``1/α`` of a chunk): :meth:`repair_symbol` on the helpers,
        :meth:`repair_from_symbols` at the destination."""
        others = super().repair_recipe(lost_index).candidates
        return RepairRecipe(others, fanin=self.d, traffic=1 / self.alpha)

    def repair_symbol(
        self, helper_index: int, helper_chunk: bytes, lost_index: int
    ) -> bytes:
        """The sub-symbol helper ``i`` sends to repair node ``f``.

        ``(stored row of helper) · φ_f`` — one sub-chunk, i.e. a
        ``1/α`` fraction of the helper's data.
        """
        if helper_index == lost_index:
            raise DecodeError("a node cannot help repair itself")
        sub = self._sub_size(len(helper_chunk))
        stored = np.frombuffer(helper_chunk, dtype=np.uint8).reshape(
            self.alpha, sub
        )
        phi_f = self._phi[lost_index]
        out = np.zeros(sub, dtype=np.uint8)
        from .galois import gf_addmul_bytes

        for j in range(self.alpha):
            gf_addmul_bytes(out, int(phi_f[j]), stored[j])
        return out.tobytes()

    def repair_from_symbols(
        self, lost_index: int, symbols: Dict[int, bytes]
    ) -> bytes:
        """Rebuild a lost chunk from the d helper sub-symbols.

        Args:
            lost_index: the failed node.
            symbols: helper node index -> its repair sub-symbol.
        """
        if len(symbols) < self.d:
            raise DecodeError(
                f"need {self.d} repair symbols, got {len(symbols)}"
            )
        helper_ids = sorted(symbols)[: self.d]
        sub = check_equal_sizes([symbols[i] for i in helper_ids])
        received = np.stack(
            [np.frombuffer(symbols[i], dtype=np.uint8) for i in helper_ids]
        )  # (d, sub) = Psi_D (M phi_f)
        psi_d = self._psi[helper_ids, :]
        try:
            inv = invert(psi_d)
        except SingularMatrixError as exc:  # cannot happen: Vandermonde
            raise DecodeError(f"singular helper matrix: {exc}") from exc
        m_phi = gf_matmul_bytes(inv, received)  # (d, sub): [S1 phi_f; S2 phi_f]
        s1_phi = m_phi[: self.alpha]
        s2_phi = m_phi[self.alpha :]
        # lost row = phi_f^T S1 + lambda_f phi_f^T S2
        #          = (S1 phi_f)^T phi-combined via symmetry.
        phi_f = self._phi[lost_index]
        lam_f = int(self._lam[lost_index])
        from .galois import gf_addmul_bytes

        out = np.zeros((self.alpha, sub), dtype=np.uint8)
        # stored[j] = sum_t phi_f? No: stored = phi_f^T S1 + lam phi_f^T S2
        # has entries (S1 phi_f)_j + lam * (S2 phi_f)_j by symmetry.
        for j in range(self.alpha):
            np.bitwise_xor(out[j], s1_phi[j], out=out[j])
            gf_addmul_bytes(out[j], lam_f, s2_phi[j])
        return out.reshape(-1).tobytes()

    # ------------------------------------------------------------------
    # Data reconstruction from any k nodes
    # ------------------------------------------------------------------

    def _solve_message(
        self, available: Dict[int, bytes]
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Recover S1, S2 (each alpha x alpha x sub) from any k chunks."""
        if len(available) < self.k:
            raise DecodeError(
                f"need {self.k} chunks to reconstruct, have {len(available)}"
            )
        ids = sorted(available)[: self.k]
        size = check_equal_sizes([available[i] for i in ids])
        sub = self._sub_size(size)
        # C = Phi_k S1 + Lambda_k Phi_k S2   (k x alpha of sub-symbols)
        C = np.stack(
            [
                np.frombuffer(available[i], dtype=np.uint8).reshape(
                    self.alpha, sub
                )
                for i in ids
            ]
        )
        phi = self._phi[ids]  # (k, alpha)
        lam = [int(self._lam[i]) for i in ids]
        # P = C Phi^T: P[i][j] = A[i][j] + lam_i * B[i][j] where
        # A = Phi S1 Phi^T and B = Phi S2 Phi^T are symmetric.
        P = np.zeros((self.k, self.k, sub), dtype=np.uint8)
        from .galois import gf_addmul_bytes

        for i in range(self.k):
            for j in range(self.k):
                for t in range(self.alpha):
                    gf_addmul_bytes(P[i, j], int(phi[j, t]), C[i, t])
        # Pairwise elimination for the off-diagonal A, B entries.
        A = np.zeros_like(P)
        B = np.zeros_like(P)
        from .galois import gf_div, gf_mul as _mul

        for i in range(self.k):
            for j in range(i + 1, self.k):
                # P_ij = A_ij + lam_i B_ij ; P_ji = A_ij + lam_j B_ij
                denom = lam[i] ^ lam[j]
                diff = P[i, j] ^ P[j, i]  # (lam_i ^ lam_j) B_ij
                inv_denom = gf_div(1, denom)
                b_ij = np.zeros(sub, dtype=np.uint8)
                gf_addmul_bytes(b_ij, inv_denom, diff)
                a_ij = P[i, j].copy()
                gf_addmul_bytes(a_ij, lam[i], b_ij)
                A[i, j] = a_ij
                A[j, i] = a_ij
                B[i, j] = b_ij
                B[j, i] = b_ij
        S1 = self._solve_symmetric(A, phi, sub)
        S2 = self._solve_symmetric(B, phi, sub)
        return S1, S2, sub

    def _solve_symmetric(
        self, G: np.ndarray, phi: np.ndarray, sub: int
    ) -> np.ndarray:
        """Solve ``G = Phi S Phi^T`` (off-diagonal known) for symmetric S.

        For each column j of ``Phi S``, the k-1 = alpha rows i != j give
        ``Phi_{-j} (S phi_j) = G[., j]`` with ``Phi_{-j}`` invertible
        (any alpha rows of a Vandermonde Phi are independent).
        """
        s_phi = np.zeros((self.alpha, self.k, sub), dtype=np.uint8)
        for j in range(self.k):
            rows = [i for i in range(self.k) if i != j]
            phi_sub = phi[rows, :]  # (alpha, alpha)
            rhs = G[rows, j]  # (alpha, sub)
            inv = invert(phi_sub)
            s_phi[:, j] = gf_matmul_bytes(inv, rhs)  # S phi_j
        # S = (S Phi~^T) (Phi~^T)^{-1} using the first alpha columns.
        phi_t = phi[: self.alpha, :].T.copy()  # (alpha, alpha) = Phi~^T
        inv_phi_t = invert(np.ascontiguousarray(phi_t))
        s_phi_first = s_phi[:, : self.alpha]  # (alpha, alpha, sub)
        S = np.zeros((self.alpha, self.alpha, sub), dtype=np.uint8)
        from .galois import gf_addmul_bytes

        for r in range(self.alpha):
            for c in range(self.alpha):
                for t in range(self.alpha):
                    gf_addmul_bytes(
                        S[r, c], int(inv_phi_t[t, c]), s_phi_first[r, t]
                    )
        return S

    def decode_data(self, available: Dict[int, bytes]) -> List[bytes]:
        """Recover the original k input chunks from any k coded chunks."""
        S1, S2, _ = self._solve_message(available)
        return self._unpack_message(S1, S2)

    def decode(
        self,
        available: Dict[int, bytes],
        wanted: Sequence[int],
    ) -> Dict[int, bytes]:
        wanted = list(wanted)
        for idx in wanted:
            if not 0 <= idx < self.n:
                raise ValueError(f"chunk index {idx} outside stripe of {self.n}")
        result = {i: bytes(available[i]) for i in wanted if i in available}
        missing = [i for i in wanted if i not in available]
        if not missing:
            return result
        S1, S2, sub = self._solve_message(available)
        from .galois import gf_addmul_bytes

        for idx in missing:
            phi_f = self._phi[idx]
            lam_f = int(self._lam[idx])
            out = np.zeros((self.alpha, sub), dtype=np.uint8)
            for j in range(self.alpha):
                for t in range(self.alpha):
                    gf_addmul_bytes(out[j], int(phi_f[t]), S1[t, j])
                    coeff = gf_mul(lam_f, int(phi_f[t]))
                    gf_addmul_bytes(out[j], coeff, S2[t, j])
            result[idx] = out.reshape(-1).tobytes()
        return result


def _msr_factory(n: int, k: int) -> MsrCodec:
    return MsrCodec(n, k)


register_codec("msr", _msr_factory)
