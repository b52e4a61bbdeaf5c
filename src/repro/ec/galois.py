"""Galois-field GF(2^8) arithmetic.

This module provides the finite-field arithmetic that underlies every
erasure code in this repository, playing the role that Jerasure v1.2
plays in the paper's C++ prototype.

The field is GF(2^8) built from the primitive polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D), the same polynomial used by
Jerasure's default GF(2^8) implementation and by most storage-oriented
Reed-Solomon codecs.  Elements are integers in ``[0, 255]``; addition is
XOR, and scalar multiplication goes through log/antilog tables.

Two API levels are exposed:

* scalar helpers (:func:`gf_add`, :func:`gf_mul`, :func:`gf_div`,
  :func:`gf_pow`, :func:`gf_inv`) for matrix construction and tests, and
* region kernels (:func:`gf_mul_bytes`, :func:`gf_addmul_bytes`,
  :func:`gf_matmul_bytes`) used on whole chunk buffers by the codecs
  and the repair agents.

Beside them sits :func:`crc32`, the one payload checksum of the data
path: ``zlib.crc32``'s values from the same native library (a
``PCLMULQDQ`` fold) on buffers large enough for that to pay.

The region kernels run in C (``gf256.c``, split-nibble ``pshufb``
lookups with the GIL released) when :mod:`repro.ec._native` could build
and load it — once per process, when a region kernel is first used —
and as one numpy byte gather through the 256x256 product table
otherwise.  Both write the same bytes; ``KERNEL`` (``native-avx2``,
``native-ssse3``, ``native-scalar`` or ``numpy``) says which one this
process runs.  Importing this module neither compiles nor warns.
"""

from __future__ import annotations

import threading
import zlib

import numpy as np

from . import _native

#: Primitive polynomial for GF(2^8): x^8 + x^4 + x^3 + x^2 + 1.
PRIMITIVE_POLY = 0x11D

#: Order of the multiplicative group of GF(2^8).
GF_ORDER = 255

#: Field size.
GF_SIZE = 256


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build the antilog (exp) and log tables for GF(2^8).

    Returns a pair ``(exp_table, log_table)`` where ``exp_table`` has
    512 entries (doubled to avoid a modulo in multiplication) and
    ``log_table`` has 256 entries with ``log_table[0]`` unused.
    """
    exp_table = np.zeros(2 * GF_ORDER + 2, dtype=np.int32)
    log_table = np.zeros(GF_SIZE, dtype=np.int32)
    x = 1
    for i in range(GF_ORDER):
        exp_table[i] = x
        log_table[x] = i
        x <<= 1
        if x & 0x100:
            x ^= PRIMITIVE_POLY
    # Duplicate so that exp_table[log_a + log_b] never needs "% 255".
    for i in range(GF_ORDER, 2 * GF_ORDER + 2):
        exp_table[i] = exp_table[i - GF_ORDER]
    return exp_table, log_table


_EXP, _LOG = _build_tables()

# A full 256x256 multiplication table.  64 KiB of int16 is a trivial
# memory cost and turns vectorized chunk multiplication into a single
# fancy-indexing operation.
_MUL_TABLE = np.zeros((GF_SIZE, GF_SIZE), dtype=np.uint8)
for _a in range(1, GF_SIZE):
    for _b in range(1, GF_SIZE):
        _MUL_TABLE[_a, _b] = _EXP[_LOG[_a] + _LOG[_b]]
del _a, _b

_INV_TABLE = np.zeros(GF_SIZE, dtype=np.uint8)
for _a in range(1, GF_SIZE):
    _INV_TABLE[_a] = _EXP[GF_ORDER - _LOG[_a]]
del _a


def gf_add(a: int, b: int) -> int:
    """Return ``a + b`` in GF(2^8) (carry-less, i.e. XOR)."""
    return a ^ b


def gf_sub(a: int, b: int) -> int:
    """Return ``a - b`` in GF(2^8); identical to addition."""
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    """Return ``a * b`` in GF(2^8)."""
    if a == 0 or b == 0:
        return 0
    return int(_EXP[_LOG[a] + _LOG[b]])


def gf_div(a: int, b: int) -> int:
    """Return ``a / b`` in GF(2^8).

    Raises:
        ZeroDivisionError: if ``b`` is zero.
    """
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(2^8)")
    if a == 0:
        return 0
    return int(_EXP[_LOG[a] - _LOG[b] + GF_ORDER])


def gf_inv(a: int) -> int:
    """Return the multiplicative inverse of ``a`` in GF(2^8).

    Raises:
        ZeroDivisionError: if ``a`` is zero.
    """
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(2^8)")
    return int(_INV_TABLE[a])


def gf_pow(a: int, exponent: int) -> int:
    """Return ``a ** exponent`` in GF(2^8) (exponent may be negative)."""
    if exponent == 0:
        return 1
    if a == 0:
        if exponent < 0:
            raise ZeroDivisionError("zero has no inverse in GF(2^8)")
        return 0
    log_a = int(_LOG[a])
    return int(_EXP[(log_a * exponent) % GF_ORDER])


def gf_exp(power: int) -> int:
    """Return the field generator raised to ``power``."""
    return int(_EXP[power % GF_ORDER])


def gf_log(a: int) -> int:
    """Return the discrete log of ``a`` (base: field generator).

    Raises:
        ValueError: if ``a`` is zero (log of zero is undefined).
    """
    if a == 0:
        raise ValueError("log of zero is undefined in GF(2^8)")
    return int(_LOG[a])


# -- region kernels ----------------------------------------------------
#
# The hot path multiplies whole chunk buffers by one coefficient.  The
# work is done by the native kernel (gf256.c: split-nibble ``pshufb``
# lookups, GIL released) when it could be built and loaded, and by the
# byte gather ``_MUL_TABLE[coeff][data]`` otherwise — the same gather
# the equivalence tests hold the native kernel to.  This module owns
# every check: only C-contiguous uint8 buffers of one size, a writable
# destination and an in-range coefficient ever reach a raw pointer.

#: row ``c`` is the native kernel's two 16-entry tables for ``c``:
#: ``c * 0..15``, then ``c * 0x00, 0x10 .. 0xF0``
_NIBBLE_TABLES = np.ascontiguousarray(
    np.hstack([_MUL_TABLE[:, :16], _MUL_TABLE[:, ::16]])
)

#: cffi handles of the loaded kernel; ``_LIB`` stays ``None`` on numpy
_FFI = _LIB = _TABLES = None
#: name of the kernel in use, ``None`` until :func:`_load` has decided
_KERNEL = None
#: whether :func:`crc32` runs the native ``PCLMULQDQ`` fold (decided
#: with ``_KERNEL``; false on numpy and on CPUs without the instruction)
_CRC_FOLD = False
_LOAD_LOCK = threading.Lock()


def _load() -> str:
    """Decide, once per process, which kernel runs; return its name."""
    global _FFI, _LIB, _TABLES, _KERNEL, _CRC_FOLD
    with _LOAD_LOCK:
        if _KERNEL is None:
            loaded = _native.load()
            if loaded is None:
                _KERNEL = "numpy"
            else:
                _FFI, _LIB = loaded
                _TABLES = _FFI.from_buffer("uint8_t[]", _NIBBLE_TABLES)
                level = _LIB.gf_cpu_level()
                _CRC_FOLD = _LIB.crc32_cpu_level() > 0
                _KERNEL = "native-" + ("scalar", "ssse3", "avx2")[level]
    return _KERNEL


def __getattr__(name: str):
    # ``KERNEL`` is read, not stored: the first read (or the first
    # region call) is what builds and loads the native kernel.
    if name == "KERNEL":
        return _load()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def record_kernel(metrics) -> None:
    """Set the ``ec_kernel_info{backend=KERNEL}`` gauge in a registry.

    Called by whatever does GF math for a run (agents, the object
    store), so a metrics document says whether the fallback was active.
    """
    metrics.gauge(
        "ec_kernel_info", "GF(256) region kernel this process runs (1)"
    ).set(1, backend=_load())


def _check_operands(coeff: int, out: np.ndarray, data: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``out <- coeff * data`` is well formed."""
    if not 0 <= coeff < GF_SIZE:
        raise ValueError(f"coefficient {coeff} outside GF(2^8)")
    for name, array in (("source", data), ("destination", out)):
        if not isinstance(array, np.ndarray) or array.dtype != np.uint8:
            raise ValueError(
                f"{name} must be a uint8 numpy array, got "
                f"{getattr(array, 'dtype', type(array).__name__)}"
            )
    if out.shape != data.shape:
        raise ValueError(
            f"destination has shape {out.shape}, source {data.shape}"
        )
    if not out.flags.writeable:
        raise ValueError("destination is read-only")


def _region(out: np.ndarray, coeff: int, data: np.ndarray, add: bool) -> None:
    """``out = coeff * data``, or ``out ^= coeff * data`` when ``add``.

    Operands have passed :func:`_check_operands`.  ``out`` may be
    ``data`` itself; a partial overlap goes through a temporary.
    """
    if _KERNEL is None:
        _load()
    if (
        _LIB is not None
        and out.flags.c_contiguous
        and data.flags.c_contiguous
    ):
        dst = _FFI.from_buffer("uint8_t[]", out, require_writable=True)
        src = _FFI.from_buffer("uint8_t[]", data)
        if dst != src and np.may_share_memory(out, data):
            data = data.copy()
            src = _FFI.from_buffer("uint8_t[]", data)
        _LIB.gf_region(dst, src, out.size, _TABLES + 32 * coeff, add)
    elif add:
        np.bitwise_xor(out, _MUL_TABLE[coeff][data], out=out)
    else:
        out[...] = _MUL_TABLE[coeff][data]


def gf_mul_bytes(
    coeff: int, data: np.ndarray, out: np.ndarray = None
) -> np.ndarray:
    """Multiply every byte of ``data`` by the scalar ``coeff``.

    Args:
        coeff: field element in [0, 255].
        data: a ``uint8`` numpy array (any shape; may be read-only).
        out: optional preallocated ``uint8`` array of the same shape;
            may alias ``data`` (in-place scaling).

    Returns:
        ``out`` if given, else a new ``uint8`` array of the same shape.

    Raises:
        ValueError: coefficient out of range, an operand that is not a
            ``uint8`` array, mismatched shapes, or a read-only ``out``.
    """
    if out is None:
        out = np.empty(np.shape(data), dtype=np.uint8)
    _check_operands(coeff, out, data)
    _region(out, coeff, data, add=False)
    return out


def gf_addmul_bytes(acc: np.ndarray, coeff: int, data: np.ndarray) -> None:
    """In place, set ``acc ^= coeff * data`` byte-wise over GF(2^8).

    This is the inner loop of erasure encoding/decoding: accumulate a
    scaled source buffer into a destination parity buffer.  Allocates
    nothing on the native path.

    Raises:
        ValueError: as :func:`gf_mul_bytes`; shapes must match exactly
            (nothing is broadcast).
    """
    _check_operands(coeff, acc, data)
    if coeff:
        _region(acc, coeff, data, add=True)


def gf_matmul_bytes(
    matrix: np.ndarray, shards: np.ndarray, out: np.ndarray = None
) -> np.ndarray:
    """Multiply a GF(2^8) coefficient ``matrix`` by a stack of shards.

    Args:
        matrix: ``(r, s)`` uint8 array of coefficients.
        shards: ``(s, L)`` uint8 array: ``s`` source buffers of ``L`` bytes.
        out: optional preallocated ``(r, L)`` uint8 output (must not
            alias ``shards``); every byte is overwritten.

    Returns:
        ``(r, L)`` uint8 array: each output row is the GF-linear
        combination of the input shards given by the matrix row.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.uint8)
    if not isinstance(shards, np.ndarray) or shards.dtype != np.uint8:
        raise ValueError("shards must be a uint8 numpy array")
    if matrix.ndim != 2 or shards.ndim != 2:
        raise ValueError("matrix and shards must both be 2-D")
    if matrix.shape[1] != shards.shape[0]:
        raise ValueError(
            f"shape mismatch: matrix {matrix.shape} x shards {shards.shape}"
        )
    rows, cols = matrix.shape
    shape = (rows, shards.shape[1])
    if out is None:
        out = np.empty(shape, dtype=np.uint8)
    elif (
        not isinstance(out, np.ndarray)
        or out.shape != shape
        or out.dtype != np.uint8
        or not out.flags.writeable
    ):
        raise ValueError(f"out must be a writable {shape}/uint8 array")
    elif np.shares_memory(out, shards):
        raise ValueError("out must not alias shards")
    if _KERNEL is None:
        _load()
    if (
        _LIB is not None
        and out.flags.c_contiguous
        and shards.flags.c_contiguous
    ):
        _LIB.gf_matmul(
            _FFI.from_buffer("uint8_t[]", out, require_writable=True),
            _FFI.from_buffer("uint8_t[]", matrix),
            _FFI.from_buffer("uint8_t[]", shards),
            rows,
            cols,
            shape[1],
            _TABLES,
        )
        return out
    for acc, row in zip(out, matrix):
        add = False
        for coeff, shard in zip(row, shards):
            if coeff:
                _region(acc, int(coeff), shard, add)
                add = True
        if not add:
            acc[...] = 0
    return out


#: Below this many bytes one cffi call (with its GIL release and
#: re-acquisition) costs more than zlib's own CRC loop.
_CRC_FOLD_MIN = 8192


def crc32(data, value: int = 0) -> int:
    """Return ``zlib.crc32(data, value)``, the same value at a higher rate.

    Contiguous buffers of at least ``_CRC_FOLD_MIN`` bytes go to the
    native ``PCLMULQDQ`` fold (GIL released) when this CPU has it;
    everything else, including what ``zlib.crc32`` rejects, is zlib's.
    """
    if _KERNEL is None:
        _load()
    if _CRC_FOLD:
        view = memoryview(data)
        if view.nbytes >= _CRC_FOLD_MIN and view.c_contiguous:
            return _LIB.crc32_update(
                value & 0xFFFFFFFF,
                _FFI.from_buffer("uint8_t[]", view),
                view.nbytes,
            )
    return zlib.crc32(data, value)
