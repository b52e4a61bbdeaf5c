"""Matrix algebra over GF(2^8).

Provides the small dense-matrix operations needed by the Reed-Solomon
and LRC codecs: construction of Vandermonde and Cauchy matrices,
Gauss-Jordan inversion and solve, rank, and systematic-form conversion.

Matrices are plain ``uint8`` numpy arrays; all arithmetic routes through
:mod:`repro.ec.galois`.
"""

from __future__ import annotations

import numpy as np

from .galois import GF_SIZE, gf_div, gf_inv, gf_mul, gf_pow


class SingularMatrixError(ValueError):
    """Raised when a matrix that must be invertible is singular."""


def identity(n: int) -> np.ndarray:
    """Return the n x n identity matrix over GF(2^8)."""
    return np.eye(n, dtype=np.uint8)


def vandermonde(rows: int, cols: int) -> np.ndarray:
    """Return a ``rows x cols`` Vandermonde matrix ``V[i][j] = i^j``.

    Note that a raw Vandermonde matrix over GF(2^8) does *not*
    guarantee that every square submatrix is invertible; use
    :func:`systematize` (as Jerasure does) or :func:`cauchy` for MDS
    generator matrices.
    """
    if rows > GF_SIZE:
        raise ValueError(f"at most {GF_SIZE} rows supported, got {rows}")
    mat = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            mat[i, j] = gf_pow(i, j) if i > 0 else (1 if j == 0 else 0)
    return mat


def cauchy(rows: int, cols: int) -> np.ndarray:
    """Return a ``rows x cols`` Cauchy matrix over GF(2^8).

    Uses ``x_i = i`` (for rows) and ``y_j = rows + j`` (for columns);
    every square submatrix of a Cauchy matrix is invertible, which makes
    it directly usable as the parity part of a systematic MDS code.
    """
    if rows + cols > GF_SIZE:
        raise ValueError(
            f"rows + cols must be <= {GF_SIZE} for distinct Cauchy points"
        )
    mat = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            mat[i, j] = gf_inv(i ^ (rows + j))
    return mat


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply two coefficient matrices over GF(2^8)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0
            for t in range(a.shape[1]):
                acc ^= gf_mul(int(a[i, t]), int(b[t, j]))
            out[i, j] = acc
    return out


def invert(matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(2^8) by Gauss-Jordan elimination.

    Raises:
        SingularMatrixError: if the matrix is not invertible.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    n, m = matrix.shape
    if n != m:
        raise ValueError(f"cannot invert non-square matrix {matrix.shape}")
    return solve(matrix, identity(n))


def solve(matrix: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The one ``X`` with ``matrix @ X = targets`` over GF(2^8).

    ``matrix`` is ``rows x cols``, ``targets`` ``rows x t``; Gauss-Jordan
    elimination on the augmented rows.

    Raises:
        SingularMatrixError: the columns are dependent (no unique
            ``X``) or no combination of them gives a target.
    """
    work = np.concatenate([matrix, targets], axis=1).astype(np.uint8).tolist()
    rows, cols = len(work), matrix.shape[1]
    for col in range(cols):
        pivot_row = next((r for r in range(col, rows) if work[r][col]), None)
        if pivot_row is None:
            raise SingularMatrixError(f"columns are dependent at column {col}")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        row = work[col] = [gf_div(v, pivot) for v in work[col]]
        for r in range(rows):
            factor = work[r][col]
            if r != col and factor:
                work[r] = [v ^ gf_mul(factor, p) for v, p in zip(work[r], row)]
    if any(any(work[r][cols:]) for r in range(cols, rows)):
        raise SingularMatrixError("no combination of the columns is a target")
    return np.array([r[cols:] for r in work[:cols]], dtype=np.uint8)


def rank(matrix: np.ndarray) -> int:
    """Return the rank of a matrix over GF(2^8)."""
    work = np.asarray(matrix, dtype=np.int32).copy()
    rows, cols = work.shape
    r = 0
    for col in range(cols):
        pivot_row = next((i for i in range(r, rows) if work[i, col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[[r, pivot_row]] = work[[pivot_row, r]]
        pivot = int(work[r, col])
        for j in range(cols):
            work[r, j] = gf_div(int(work[r, j]), pivot)
        for i in range(rows):
            if i == r or work[i, col] == 0:
                continue
            factor = int(work[i, col])
            for j in range(cols):
                work[i, j] ^= gf_mul(factor, int(work[r, j]))
        r += 1
        if r == rows:
            break
    return r


def systematize(generator: np.ndarray, k: int) -> np.ndarray:
    """Convert an ``n x k`` generator matrix to systematic form.

    The returned matrix has the identity in its first ``k`` rows and
    spans the same code (each row remains a valid codeword position).
    This mirrors Jerasure's construction of a systematic Vandermonde RS
    generator.

    Raises:
        SingularMatrixError: if the top k x k block cannot be made
            invertible (the input is not a valid MDS generator).
    """
    generator = np.asarray(generator, dtype=np.uint8)
    n = generator.shape[0]
    if generator.shape[1] != k:
        raise ValueError(f"expected {k} columns, got {generator.shape[1]}")
    if n < k:
        raise ValueError(f"generator must have at least k={k} rows")
    top = generator[:k, :]
    inv_top = invert(top)
    systematic = matmul(generator, inv_top)
    # Clean numerical noise: the top block must be exactly identity.
    if not np.array_equal(systematic[:k, :], identity(k)):
        raise SingularMatrixError("systematization failed to yield identity")
    return systematic


def is_mds(generator: np.ndarray, k: int) -> bool:
    """Check the MDS property: every k x k submatrix is invertible.

    Exhaustive over all row subsets, so only usable for small ``n``
    (tests use it for the code parameters in the paper, n <= 16).
    """
    from itertools import combinations

    generator = np.asarray(generator, dtype=np.uint8)
    n = generator.shape[0]
    for rows in combinations(range(n), k):
        if rank(generator[list(rows), :]) != k:
            return False
    return True
