/* GF(2^8) region kernels for repro.ec.galois (built and loaded by
 * repro.ec._native; DESIGN.md §13 "GF kernel").
 *
 * A product c*b splits over the two nibbles of b:
 *     c*b = c*(b & 15) ^ c*(b >> 4 << 4) = lo[b & 15] ^ hi[b >> 4],
 * so one coefficient is two 16-entry tables, and `pshufb` looks up 16
 * (SSSE3) or 32 (AVX2) bytes per instruction.  `tab` points at the 32
 * table bytes of the coefficient: lo[0..15] then hi[0..15].
 *
 * The caller (Python) owns every check: pointers valid for n bytes,
 * out either equal to in or disjoint from it.  Nothing here allocates,
 * keeps state or touches a Python object, so calls run without the GIL.
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
