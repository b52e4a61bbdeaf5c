/* GF(2^8) region kernels and CRC-32 for repro.ec.galois (built and
 * loaded by repro.ec._native; DESIGN.md §13 "GF kernel and CRC-32").
 *
 * A product c*b splits over the two nibbles of b:
 *     c*b = c*(b & 15) ^ c*(b >> 4 << 4) = lo[b & 15] ^ hi[b >> 4],
 * so one coefficient is two 16-entry tables, and `pshufb` looks up 16
 * (SSSE3) or 32 (AVX2) bytes per instruction.  `tab` points at the 32
 * table bytes of the coefficient: lo[0..15] then hi[0..15].
 *
 * The caller (Python) owns every check: pointers valid for n bytes,
 * out either equal to in or disjoint from it.  Nothing here allocates,
 * writes shared state after load (the CRC table is filled by a load-time
 * constructor) or touches a Python object, so calls run without the GIL.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define GF_X86 1
#endif

enum { GF_SCALAR = 0, GF_SSSE3 = 1, GF_AVX2 = 2 };

/* Best instruction set this CPU runs: GF_SCALAR, GF_SSSE3 or GF_AVX2. */
int gf_cpu_level(void)
{
#ifdef GF_X86
    if (__builtin_cpu_supports("avx2"))
        return GF_AVX2;
    if (__builtin_cpu_supports("ssse3"))
        return GF_SSSE3;
#endif
    return GF_SCALAR;
}

static void region_scalar(uint8_t *out, const uint8_t *in, size_t n,
                          const uint8_t *tab, int add)
{
    for (size_t i = 0; i < n; i++) {
        uint8_t p = tab[in[i] & 15] ^ tab[16 + (in[i] >> 4)];
        out[i] = add ? out[i] ^ p : p;
    }
}

#ifdef GF_X86
__attribute__((target("ssse3")))
static size_t region_ssse3(uint8_t *out, const uint8_t *in, size_t n,
                           const uint8_t *tab, int add)
{
    const __m128i lo = _mm_loadu_si128((const __m128i *)tab);
    const __m128i hi = _mm_loadu_si128((const __m128i *)(tab + 16));
    const __m128i mask = _mm_set1_epi8(0x0f);
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m128i v = _mm_loadu_si128((const __m128i *)(in + i));
        __m128i p = _mm_xor_si128(
            _mm_shuffle_epi8(lo, _mm_and_si128(v, mask)),
            _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(v, 4), mask)));
        if (add)
            p = _mm_xor_si128(p, _mm_loadu_si128((const __m128i *)(out + i)));
        _mm_storeu_si128((__m128i *)(out + i), p);
    }
    return i;
}

__attribute__((target("avx2")))
static size_t region_avx2(uint8_t *out, const uint8_t *in, size_t n,
                          const uint8_t *tab, int add)
{
    const __m256i lo = _mm256_broadcastsi128_si256(
        _mm_loadu_si128((const __m128i *)tab));
    const __m256i hi = _mm256_broadcastsi128_si256(
        _mm_loadu_si128((const __m128i *)(tab + 16)));
    const __m256i mask = _mm256_set1_epi8(0x0f);
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i v = _mm256_loadu_si256((const __m256i *)(in + i));
        __m256i p = _mm256_xor_si256(
            _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask)),
            _mm256_shuffle_epi8(
                hi, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask)));
        if (add)
            p = _mm256_xor_si256(
                p, _mm256_loadu_si256((const __m256i *)(out + i)));
        _mm256_storeu_si256((__m256i *)(out + i), p);
    }
    return i;
}
#endif

/* out[i] = c*in[i] (add == 0) or out[i] ^= c*in[i] (add != 0) with the
 * instruction set `level`, which must not exceed gf_cpu_level(). */
static void region_at(int level, uint8_t *out, const uint8_t *in, size_t n,
                      const uint8_t *tab, int add)
{
    size_t done = 0;
#ifdef GF_X86
    if (level >= GF_AVX2)
        done = region_avx2(out, in, n, tab, add);
    else if (level >= GF_SSSE3)
        done = region_ssse3(out, in, n, tab, add);
#endif
    if (done < n)
        region_scalar(out + done, in + done, n - done, tab, add);
}

void gf_region(uint8_t *out, const uint8_t *in, size_t n,
               const uint8_t *tab, int add)
{
    region_at(gf_cpu_level(), out, in, n, tab, add);
}

/* For the tests: gf_region held to at most instruction set `level`. */
void gf_region_at(int level, uint8_t *out, const uint8_t *in, size_t n,
                  const uint8_t *tab, int add)
{
    int cpu = gf_cpu_level();
    region_at(level < cpu ? level : cpu, out, in, n, tab, add);
}

/* out (rows x len) = matrix (rows x cols) * shards (cols x len); `tabs`
 * is the 256 x 32 table of every coefficient.  Walks the length in
 * blocks so an output block stays in cache across its `cols` terms. */
void gf_matmul(uint8_t *out, const uint8_t *matrix, const uint8_t *shards,
               size_t rows, size_t cols, size_t len, const uint8_t *tabs)
{
    const size_t block = 8192;
    const int level = gf_cpu_level();
    for (size_t at = 0; at < len; at += block) {
        size_t n = len - at < block ? len - at : block;
        for (size_t r = 0; r < rows; r++) {
            uint8_t *dst = out + r * len + at;
            int add = 0;
            for (size_t s = 0; s < cols; s++) {
                uint8_t c = matrix[r * cols + s];
                if (c == 0)
                    continue;
                region_at(level, dst, shards + s * len + at, n,
                          tabs + 32 * (size_t)c, add);
                add = 1;
            }
            if (!add)
                memset(dst, 0, n);
        }
    }
}

/* CRC-32 with zlib's polynomial and conventions: crc32_update(crc, buf,
 * len) returns what zlib's crc32(crc, buf, len) returns.  Bit-reflected
 * throughout; `c` below is the register, the complement of the value
 * callers see. */
enum { CRC_TABLE = 0, CRC_PCLMUL = 1 };

static uint32_t crc_table[256];

__attribute__((constructor)) static void crc_table_init(void)
{
    for (uint32_t b = 0; b < 256; b++) {
        uint32_t c = b;
        for (int k = 0; k < 8; k++)
            c = c & 1 ? (c >> 1) ^ 0xEDB88320u : c >> 1;
        crc_table[b] = c;
    }
}

static uint32_t crc_bytes(uint32_t c, const uint8_t *p, size_t n)
{
    while (n--)
        c = crc_table[(c ^ *p++) & 0xff] ^ (c >> 8);
    return c;
}

/* Best CRC instruction set this CPU runs: CRC_TABLE or CRC_PCLMUL. */
int crc32_cpu_level(void)
{
#ifdef GF_X86
    if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1"))
        return CRC_PCLMUL;
#endif
    return CRC_TABLE;
}

#ifdef GF_X86
/* One fold step: carry the 128 bits of x forward over a distance whose
 * two constants are the halves of k, then add the next 128 bits. */
__attribute__((target("pclmul,sse4.1")))
static inline __m128i crc_fold_step(__m128i x, __m128i k, __m128i next)
{
    return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                       _mm_clmulepi64_si128(x, k, 0x11)),
                         next);
}

/* Folds n bytes (a multiple of 16, at least 64) into the register `c`:
 * four 128-bit lanes fold 64 bytes per step, collapse into one lane,
 * fold the 16-byte blocks left, then reduce 128 -> 64 -> 32 bits, the
 * last step a Barrett reduction.  Gopal et al., "Fast CRC computation
 * for generic polynomials using PCLMULQDQ instruction" (Intel, 2009).
 * With P the CRC polynomial and r() bit reflection, the constants are
 * r(x^n mod P) << 1 for n = 4*128 +- 32 (k1, k2: the four-lane
 * stride), 128 +- 32 (k3, k4: one lane) and 64 (k5), then r(P) and
 * r(floor(x^64 / P)) for the reduction. */
__attribute__((target("pclmul,sse4.1")))
static uint32_t crc_fold(uint32_t c, const uint8_t *p, size_t n)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
    __m128i x1 = _mm_loadu_si128((const __m128i *)p);
    __m128i x2 = _mm_loadu_si128((const __m128i *)(p + 16));
    __m128i x3 = _mm_loadu_si128((const __m128i *)(p + 32));
    __m128i x4 = _mm_loadu_si128((const __m128i *)(p + 48));
    __m128i t;
    x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128((int)c));
    for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
        x1 = crc_fold_step(x1, k1k2, _mm_loadu_si128((const __m128i *)p));
        x2 = crc_fold_step(
            x2, k1k2, _mm_loadu_si128((const __m128i *)(p + 16)));
        x3 = crc_fold_step(
            x3, k1k2, _mm_loadu_si128((const __m128i *)(p + 32)));
        x4 = crc_fold_step(
            x4, k1k2, _mm_loadu_si128((const __m128i *)(p + 48)));
    }
    x1 = crc_fold_step(x1, k3k4, x2);
    x1 = crc_fold_step(x1, k3k4, x3);
    x1 = crc_fold_step(x1, k3k4, x4);
    for (; n >= 16; p += 16, n -= 16)
        x1 = crc_fold_step(x1, k3k4, _mm_loadu_si128((const __m128i *)p));
    /* 128 -> 64 bits, then 64 -> 32 significant bits */
    t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
    t = _mm_srli_si128(x1, 4);
    x1 = _mm_and_si128(x1, low32);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5, 0x00), t);
    /* Barrett: subtract floor(x1 / P) * P; the remainder is bits 32..63 */
    t = _mm_and_si128(x1, low32);
    t = _mm_clmulepi64_si128(t, poly, 0x10);
    t = _mm_and_si128(t, low32);
    t = _mm_clmulepi64_si128(t, poly, 0x00);
    x1 = _mm_xor_si128(x1, t);
    return (uint32_t)_mm_extract_epi32(x1, 1);
}
#endif

/* crc32_update with the instruction set `level`, which must not exceed
 * crc32_cpu_level(). */
static uint32_t crc_at(int level, uint32_t crc, const uint8_t *p, size_t n)
{
    uint32_t c = ~crc;
#ifdef GF_X86
    if (level >= CRC_PCLMUL && n >= 64) {
        size_t blocks = n & ~(size_t)15;
        c = crc_fold(c, p, blocks);
        p += blocks;
        n -= blocks;
    }
#endif
    return ~crc_bytes(c, p, n);
}

uint32_t crc32_update(uint32_t crc, const uint8_t *buf, size_t len)
{
    return crc_at(crc32_cpu_level(), crc, buf, len);
}

/* For the tests: crc32_update held to at most instruction set `level`. */
uint32_t crc32_at(int level, uint32_t crc, const uint8_t *buf, size_t len)
{
    int cpu = crc32_cpu_level();
    return crc_at(level < cpu ? level : cpu, crc, buf, len);
}
