"""Property tests for the GF(256) region kernels (DESIGN.md §13).

The in-place GF(256) kernels and the batch codec entry points must be
bit-exact with the scalar reference on every shape: random lengths
(covering SIMD widths and their 1-63-byte tails), coefficients 0 and
1, aliased ``out=`` buffers, non-contiguous views, and stripes grouped
by arbitrary availability sets.

Every kernel test runs its body twice (``both_kernels``): on the kernel
this host loaded (``galois.KERNEL``), then with the native library
taken away, so both implementations face the same properties.
``TestNativeMatchesOracle`` then holds each native instruction set to
the numpy byte gather directly.  ``crc32`` is held to ``zlib.crc32`` the
same way, and at each native CRC instruction set on every length.
"""

import contextlib
import functools
import re
import types
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.ec import galois, make_codec
from repro.ec.galois import (
    _MUL_TABLE,
    crc32,
    gf_addmul_bytes,
    gf_matmul_bytes,
    gf_mul,
    gf_mul_bytes,
)

coeffs = st.integers(min_value=0, max_value=255)
#: always exercise 0 and 1 (identity/annihilator fast paths) heavily
edge_coeffs = st.sampled_from([0, 1, 2, 255])


def ref_mul(coeff: int, data) -> np.ndarray:
    """Byte-at-a-time scalar reference for every vectorized kernel."""
    return np.array(
        [gf_mul(coeff, int(b)) for b in np.asarray(data).ravel()],
        dtype=np.uint8,
    ).reshape(np.asarray(data).shape)


def both_kernels(test):
    """Run ``test`` on the kernel this host loaded, then on numpy.

    Sits under ``@given``, so every generated example meets both; a
    failure inside the ``with`` block below is the numpy path's.
    """

    @functools.wraps(test)
    def on_both(*args, **kwargs):
        test(*args, **kwargs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(galois, "_LIB", None)
            patch.setattr(galois, "_CRC_FOLD", False)
            test(*args, **kwargs)

    return on_both


class TestMulBytesProperties:
    @settings(max_examples=60, deadline=None)
    @given(coeff=coeffs, data=st.binary(max_size=300))
    @both_kernels
    def test_matches_scalar_reference(self, coeff, data):
        arr = np.frombuffer(data, dtype=np.uint8)
        assert np.array_equal(gf_mul_bytes(coeff, arr), ref_mul(coeff, arr))

    @settings(max_examples=60, deadline=None)
    @given(coeff=coeffs, data=st.binary(min_size=1, max_size=300))
    @both_kernels
    def test_out_aliasing_input_is_safe(self, coeff, data):
        arr = np.frombuffer(bytearray(data), dtype=np.uint8).copy()
        expected = ref_mul(coeff, arr)
        result = gf_mul_bytes(coeff, arr, out=arr)
        assert result is arr
        assert np.array_equal(arr, expected)

    @settings(max_examples=40, deadline=None)
    @given(coeff=edge_coeffs, data=st.binary(max_size=100))
    @both_kernels
    def test_identity_and_annihilator(self, coeff, data):
        arr = np.frombuffer(data, dtype=np.uint8)
        result = gf_mul_bytes(coeff, arr)
        if coeff == 0:
            assert not result.any()
        elif coeff == 1:
            assert np.array_equal(result, arr)
        assert np.array_equal(result, ref_mul(coeff, arr))

    @pytest.mark.parametrize("size", [4096, 4097, 8191, 65536])
    @pytest.mark.parametrize("coeff", [2, 37, 255])
    @both_kernels
    def test_u16_fast_path_matches_table_lookup(self, size, coeff):
        """Packet-sized buffers, incl. odd tails past the SIMD width."""
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, size=size, dtype=np.uint8)
        expected = _MUL_TABLE[coeff][data]
        assert np.array_equal(gf_mul_bytes(coeff, data), expected)
        # aliased out= through the same fast path
        scratch = data.copy()
        gf_mul_bytes(coeff, scratch, out=scratch)
        assert np.array_equal(scratch, expected)

    @both_kernels
    def test_non_contiguous_view(self):
        rng = np.random.default_rng(11)
        data = rng.integers(0, 256, size=8192, dtype=np.uint8)
        strided = data[::2]
        assert np.array_equal(
            gf_mul_bytes(91, strided), ref_mul(91, strided)
        )

    @both_kernels
    def test_out_must_match_shape_and_dtype(self):
        data = np.zeros(16, dtype=np.uint8)
        with pytest.raises(ValueError):
            gf_mul_bytes(3, data, out=np.zeros(8, dtype=np.uint8))
        with pytest.raises(ValueError):
            gf_mul_bytes(3, data, out=np.zeros(16, dtype=np.uint16))

    @both_kernels
    def test_read_only_out_rejected(self):
        data = np.zeros(16, dtype=np.uint8)
        frozen = np.frombuffer(bytes(16), dtype=np.uint8)
        with pytest.raises(ValueError):
            gf_mul_bytes(3, data, out=frozen)

    @both_kernels
    def test_non_uint8_data_rejected(self):
        with pytest.raises(ValueError):
            gf_mul_bytes(3, np.zeros(16, dtype=np.int64))
        with pytest.raises(ValueError):
            gf_mul_bytes(3, b"\x01\x02")

    @both_kernels
    def test_partial_overlap_goes_through_a_temporary(self):
        rng = np.random.default_rng(13)
        buf = rng.integers(0, 256, size=5001, dtype=np.uint8)
        expected = _MUL_TABLE[29][buf[:5000]]
        gf_mul_bytes(29, buf[:5000], out=buf[1:])
        assert np.array_equal(buf[1:], expected)


class TestAddmulBytesProperties:
    @settings(max_examples=60, deadline=None)
    @given(coeff=coeffs, data=st.binary(min_size=1, max_size=300))
    @both_kernels
    def test_accumulates_xor_of_product(self, coeff, data):
        arr = np.frombuffer(data, dtype=np.uint8)
        rng = np.random.default_rng(3)
        acc = rng.integers(0, 256, size=len(arr), dtype=np.uint8)
        expected = acc ^ ref_mul(coeff, arr)
        gf_addmul_bytes(acc, coeff, arr)
        assert np.array_equal(acc, expected)

    @pytest.mark.parametrize("size", [4096, 4099])
    @both_kernels
    def test_large_accumulation_is_allocation_path_exact(self, size):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 256, size=size, dtype=np.uint8)
        acc = rng.integers(0, 256, size=size, dtype=np.uint8)
        expected = acc ^ ref_mul(77, data)
        gf_addmul_bytes(acc, 77, data)
        assert np.array_equal(acc, expected)

    @pytest.mark.parametrize("coeff", [0, 1, 5])
    @both_kernels
    def test_size_mismatch_is_an_error_not_a_broadcast(self, coeff):
        acc = np.zeros(8, dtype=np.uint8)
        with pytest.raises(ValueError):
            gf_addmul_bytes(acc, coeff, np.array([7], dtype=np.uint8))
        with pytest.raises(ValueError):
            gf_addmul_bytes(acc, coeff, np.zeros((1, 8), dtype=np.uint8))
        assert not acc.any()

    @both_kernels
    def test_bad_operands_rejected(self):
        data = np.ones(8, dtype=np.uint8)
        with pytest.raises(ValueError):
            gf_addmul_bytes(np.zeros(8, dtype=np.uint8), 256, data)
        with pytest.raises(ValueError):
            gf_addmul_bytes(np.zeros(8, dtype=np.uint16), 3, data)
        with pytest.raises(ValueError):
            gf_addmul_bytes(np.frombuffer(bytes(8), dtype=np.uint8), 3, data)

    @both_kernels
    def test_read_only_source_and_strided_accumulator(self):
        payload = bytes(range(256)) * 40
        data = np.frombuffer(payload, dtype=np.uint8)
        assert not data.flags.writeable
        backing = np.zeros(2 * len(payload), dtype=np.uint8)
        gf_addmul_bytes(backing[::2], 201, data)
        assert np.array_equal(backing[::2], _MUL_TABLE[201][data])
        assert not backing[1::2].any()


class TestMatmulBytesProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 4),
        shards_n=st.integers(1, 4),
        length=st.integers(1, 48),
        seed=st.integers(0, 2**31 - 1),
    )
    @both_kernels
    def test_matches_double_loop_reference(self, rows, shards_n, length, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 256, size=(rows, shards_n), dtype=np.uint8)
        shards = rng.integers(0, 256, size=(shards_n, length), dtype=np.uint8)
        expected = np.zeros((rows, length), dtype=np.uint8)
        for r in range(rows):
            for s in range(shards_n):
                expected[r] ^= ref_mul(int(matrix[r, s]), shards[s])
        assert np.array_equal(gf_matmul_bytes(matrix, shards), expected)

    @both_kernels
    def test_out_buffer_is_filled_and_returned(self):
        rng = np.random.default_rng(9)
        matrix = rng.integers(0, 256, size=(2, 3), dtype=np.uint8)
        shards = rng.integers(0, 256, size=(3, 64), dtype=np.uint8)
        out = np.full((2, 64), 0xAB, dtype=np.uint8)
        result = gf_matmul_bytes(matrix, shards, out=out)
        assert result is out
        assert np.array_equal(out, gf_matmul_bytes(matrix, shards))

    @both_kernels
    def test_zero_rows_clear_stale_out_contents(self):
        matrix = np.zeros((2, 2), dtype=np.uint8)
        shards = np.ones((2, 8), dtype=np.uint8)
        out = np.full((2, 8), 0xFF, dtype=np.uint8)
        gf_matmul_bytes(matrix, shards, out=out)
        assert not out.any()

    @both_kernels
    def test_out_aliasing_shards_rejected(self):
        shards = np.ones((2, 8), dtype=np.uint8)
        matrix = np.ones((2, 2), dtype=np.uint8)
        with pytest.raises(ValueError):
            gf_matmul_bytes(matrix, shards, out=shards)

    @both_kernels
    def test_out_shape_mismatch_rejected(self):
        shards = np.ones((2, 8), dtype=np.uint8)
        matrix = np.ones((3, 2), dtype=np.uint8)
        with pytest.raises(ValueError):
            gf_matmul_bytes(
                matrix, shards, out=np.zeros((2, 8), dtype=np.uint8)
            )

    @both_kernels
    def test_non_uint8_shards_rejected(self):
        matrix = np.ones((1, 2), dtype=np.uint8)
        with pytest.raises(ValueError):
            gf_matmul_bytes(matrix, np.ones((2, 8), dtype=np.int64))
        with pytest.raises(ValueError):
            gf_matmul_bytes(matrix, [[1, 2], [3, 4]])

    @both_kernels
    def test_strided_shards_and_out(self):
        rng = np.random.default_rng(17)
        matrix = rng.integers(0, 256, size=(2, 3), dtype=np.uint8)
        wide = rng.integers(0, 256, size=(3, 200), dtype=np.uint8)
        expected = gf_matmul_bytes(matrix, wide[:, ::2].copy())
        assert np.array_equal(gf_matmul_bytes(matrix, wide[:, ::2]), expected)
        backing = np.zeros((2, 200), dtype=np.uint8)
        gf_matmul_bytes(matrix, wide[:, ::2], out=backing[:, ::2])
        assert np.array_equal(backing[:, ::2], expected)
        assert not backing[:, 1::2].any()


def oracle(coeff: int, data: np.ndarray) -> np.ndarray:
    """The numpy side of galois.py, spelled out: one byte gather."""
    return _MUL_TABLE[coeff][data]


#: lengths around every SIMD width, a packet, and past 64 KiB
lengths = st.one_of(
    st.integers(0, 130),
    st.sampled_from([255, 256, 257, 4095, 4096, 4097, 65535, 65536, 70000]),
    st.integers(0, 70000),
)
#: reading ``KERNEL`` loads the kernel, before any test swaps ``_LIB``
NATIVE = galois.KERNEL.startswith("native")
#: best instruction set of this CPU: 0 scalar, 1 SSSE3, 2 AVX2
CPU_LEVEL = galois._LIB.gf_cpu_level() if NATIVE else 0
#: best CRC instruction set of this CPU: 0 byte table, 1 PCLMULQDQ fold
CRC_LEVEL = galois._LIB.crc32_cpu_level() if NATIVE else 0
levels = st.integers(0, CPU_LEVEL)


class AtLevel:
    """``galois._LIB`` with ``gf_region`` held to one instruction set.

    ``gf_matmul`` is the same block walk over the same region routine at
    every level, so it runs as the CPU dispatches it.
    """

    def __init__(self, level):
        self.lib = galois._LIB
        self.level = level
        self.gf_matmul = self.lib.gf_matmul

    def gf_region(self, *args):
        self.lib.gf_region_at(self.level, *args)


@contextlib.contextmanager
def at_level(level):
    """Inside, the wrappers run instruction set ``level``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(galois, "_LIB", AtLevel(level))
        yield


@pytest.mark.skipif(not NATIVE, reason="native kernel not built on this host")
class TestNativeMatchesOracle:
    """Each native instruction set against the byte gather."""

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_every_coefficient_every_byte(self, level):
        if level > CPU_LEVEL:
            pytest.skip("instruction set not on this CPU")
        with at_level(level):
            # every byte value, a 37-byte tail, an odd start address
            data = np.arange(3, 3 + 256 + 37, dtype=np.uint16).astype(np.uint8)
            backing = np.concatenate([np.zeros(3, np.uint8), data])
            view = backing[3:]
            for coeff in range(256):
                expected = oracle(coeff, data)
                assert np.array_equal(gf_mul_bytes(coeff, view), expected)
                acc = np.full(len(data), 0x5A, dtype=np.uint8)
                gf_addmul_bytes(acc, coeff, view)
                assert np.array_equal(acc, expected ^ 0x5A)

    @settings(max_examples=150, deadline=None)
    @given(
        level=levels,
        coeff=coeffs,
        length=lengths,
        offset=st.integers(0, 63),
        out_offset=st.integers(0, 63),
        mode=st.sampled_from(["mul", "mul-aliased", "addmul", "addmul-self"]),
        read_only=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_region_kernels(
        self, level, coeff, length, offset, out_offset, mode, read_only, seed
    ):
        with at_level(level):
            rng = np.random.default_rng(seed)
            # 64 guard bytes behind each region: a kernel that rounds a
            # tail up to its vector width writes into them.
            backing = rng.integers(0, 256, offset + length + 64, np.uint8)
            if read_only:
                assume(not mode.endswith(("aliased", "self")))
                backing = np.frombuffer(backing.tobytes(), dtype=np.uint8)
            data = backing[offset : offset + length]
            product = oracle(coeff, data)
            out_backing = rng.integers(
                0, 256, out_offset + length + 64, np.uint8
            )
            out = out_backing[out_offset : out_offset + length]
            guards = backing[offset + length :].copy(), out_backing[
                out_offset + length :
            ].copy()
            if mode == "mul":
                assert gf_mul_bytes(coeff, data, out=out) is out
                assert np.array_equal(out, product)
            elif mode == "mul-aliased":
                assert gf_mul_bytes(coeff, data, out=data) is data
                assert np.array_equal(data, product)
            elif mode == "addmul":
                expected = out ^ product
                gf_addmul_bytes(out, coeff, data)
                assert np.array_equal(out, expected)
            else:
                expected = data ^ product
                gf_addmul_bytes(data, coeff, data)
                assert np.array_equal(data, expected)
            assert np.array_equal(backing[offset + length :], guards[0])
            assert np.array_equal(
                out_backing[out_offset + length :], guards[1]
            )

    @settings(max_examples=60, deadline=None)
    @given(
        coeff=coeffs,
        length=st.integers(0, 5000),
        step=st.sampled_from([2, 3, -1]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_strided_input_takes_the_numpy_path(
        self, coeff, length, step, seed
    ):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=length, dtype=np.uint8)[::step]
        assert np.array_equal(gf_mul_bytes(coeff, data), oracle(coeff, data))
        acc = rng.integers(0, 256, size=data.shape, dtype=np.uint8)
        expected = acc ^ oracle(coeff, data)
        gf_addmul_bytes(acc, coeff, data)
        assert np.array_equal(acc, expected)

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(0, 4),
        cols=st.integers(0, 5),
        length=st.one_of(st.integers(0, 100), st.integers(8100, 8300)),
        zero_rows=st.sets(st.integers(0, 3)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matmul_shapes(self, rows, cols, length, zero_rows, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
        matrix[[r for r in zero_rows if r < rows]] = 0
        shards = rng.integers(0, 256, size=(cols, length), dtype=np.uint8)
        expected = np.zeros((rows, length), dtype=np.uint8)
        for r in range(rows):
            for s in range(cols):
                expected[r] ^= oracle(int(matrix[r, s]), shards[s])
        assert np.array_equal(gf_matmul_bytes(matrix, shards), expected)
        out = np.full((rows, length), 0xEE, dtype=np.uint8)
        assert gf_matmul_bytes(matrix, shards, out=out) is out
        assert np.array_equal(out, expected)


@contextlib.contextmanager
def crc_at_level(level):
    """Inside, ``crc32`` runs native CRC instruction set ``level`` on
    every buffer, however short."""
    lib = galois._LIB
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(galois, "_LIB", types.SimpleNamespace(
            crc32_update=functools.partial(lib.crc32_at, level)
        ))
        patch.setattr(galois, "_CRC_FOLD", True)
        patch.setattr(galois, "_CRC_FOLD_MIN", 0)
        yield


def every_crc_path(test):
    """Run ``test`` under ``both_kernels``, then at each native CRC
    instruction set this CPU has (the byte table included)."""
    on_both = both_kernels(test)

    @functools.wraps(test)
    def on_every(*args, **kwargs):
        on_both(*args, **kwargs)
        for level in range(CRC_LEVEL + 1) if NATIVE else ():
            with crc_at_level(level):
                test(*args, **kwargs)

    return on_every


def same_as_zlib(data, value=0):
    """``crc32`` returns what ``zlib.crc32`` returns, or raises its error."""
    try:
        expected = zlib.crc32(data, value)
    except (BufferError, TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            crc32(data, value)
    else:
        assert crc32(data, value) == expected


class TestCrc32:
    """``crc32`` is ``zlib.crc32``: same value for every input."""

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(0, 70000),
        offset=st.integers(0, 63),
        value=st.integers(0, 2**32 - 1),
        cut=st.floats(0, 1),
        seed=st.integers(0, 2**31 - 1),
    )
    @every_crc_path
    def test_any_length_offset_and_chained_value(
        self, length, offset, value, cut, seed
    ):
        backing = np.random.default_rng(seed).bytes(offset + length)
        data = memoryview(backing)[offset:]
        same_as_zlib(data, value)
        split = int(cut * length)
        assert crc32(data[split:], crc32(data[:split], value)) == zlib.crc32(
            data, value
        )

    @every_crc_path
    def test_every_length_across_the_fold_boundaries(self):
        data = np.random.default_rng(23).bytes(200)
        for length in range(201):
            same_as_zlib(data[:length])
            same_as_zlib(data[:length], 0xFFFFFFFF)
            same_as_zlib(memoryview(data)[1 : 1 + length], 0x1234ABCD)

    @every_crc_path
    def test_four_mib(self):
        same_as_zlib(np.random.default_rng(29).bytes(4 << 20), 99)

    @pytest.mark.parametrize("size", [100, 8191, 8192, 70001])
    @every_crc_path
    def test_every_buffer_kind(self, size):
        payload = np.random.default_rng(size).bytes(size)
        array = np.frombuffer(payload, dtype=np.uint8).copy()
        frozen = memoryview(payload)
        assert frozen.readonly
        kinds = [
            payload,
            bytearray(payload),
            frozen,
            frozen[3:],
            array[5:],
            array[: size // 8 * 8].view(np.uint64),
            frozen[: size // 4 * 4].cast("I"),
            array[::2],
            frozen[::3],
        ]
        for data in kinds:
            same_as_zlib(data, 7)

    def test_huge_or_negative_value_is_taken_mod_two_to_the_32(self):
        data = bytes(9000)
        for value in (-1, 2**32, 2**40 + 5):
            same_as_zlib(data, value)


class TestBatchedCodec:
    @pytest.mark.parametrize("batch", [1, 2, 7])
    def test_encode_batch_matches_per_stripe(self, batch):
        codec = make_codec("rs(5,3)")
        rng = np.random.default_rng(batch)
        stripes = [
            [rng.bytes(512) for _ in range(codec.k)] for _ in range(batch)
        ]
        batched = codec.encode_batch(stripes)
        assert batched == [codec.encode(stripe) for stripe in stripes]

    @pytest.mark.parametrize("size", [0, 1, 4096, 40_000, 200_000])
    def test_encode_batch_windows_match_per_stripe(self, size):
        """Several matmul windows, a ragged last one, one-stripe windows
        (a stripe larger than the window), and non-``bytes`` buffers."""
        codec = make_codec("rs(9,6)")
        rng = np.random.default_rng(size)
        # at 4 KiB: windows of 4, 4 and 3 stripes
        stripes = [
            [rng.bytes(size) for _ in range(codec.k)] for _ in range(11)
        ]
        expected = [codec.encode(stripe) for stripe in stripes]
        assert codec.encode_batch(stripes) == expected
        views = [
            [memoryview(bytearray(chunk)) for chunk in stripe]
            for stripe in stripes
        ]
        assert codec.encode_batch(views) == expected

    def test_encode_batch_rejects_wrong_k(self):
        codec = make_codec("rs(5,3)")
        with pytest.raises(ValueError):
            codec.encode_batch([[b"x" * 8] * (codec.k - 1)])

    def test_encode_batch_rejects_unequal_sizes(self):
        codec = make_codec("rs(5,3)")
        with pytest.raises(ValueError):
            codec.encode_batch(
                [[b"x" * 8] * codec.k, [b"x" * 16] * codec.k]
            )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), batch=st.integers(1, 6))
    def test_decode_batch_matches_per_stripe(self, seed, batch):
        """Mixed availability sets per stripe, grouped internally."""
        codec = make_codec("rs(5,3)")
        rng = np.random.default_rng(seed)
        coded = [
            codec.encode([rng.bytes(128) for _ in range(codec.k)])
            for _ in range(batch)
        ]
        stripes, wanted = [], []
        for chunks in coded:
            lost = sorted(
                rng.choice(codec.n, size=rng.integers(0, 3), replace=False)
            )
            available = {
                i: chunks[i] for i in range(codec.n) if i not in lost
            }
            stripes.append(available)
            wanted.append([int(i) for i in lost])
        batched = codec.decode_batch(stripes, wanted)
        expected = [
            codec.decode(avail, want)
            for avail, want in zip(stripes, wanted)
        ]
        assert batched == expected
        for chunks, rebuilt, want in zip(coded, batched, wanted):
            for index in want:
                assert rebuilt[index] == chunks[index]
