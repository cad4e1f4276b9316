/* SHA-256 (FIPS 180-4) compression kernels for Spitz_crypto.Sha256.

   Two compressors share one padding and one output path:
   - an x86-64 SHA-NI compressor (SHA256RNDS2/MSG1/MSG2), compiled with a
     per-function target attribute so the rest of the file stays generic;
   - a portable C compressor, the only one on other architectures.

   CPUID alone selects the compressor, once per process: the probe is a
   pure function of the CPU, so concurrent first callers compute the same
   answer and publish it through a relaxed atomic; there is no lock and no
   setting. Every entry point is [@@noalloc] on the OCaml side: it reads
   and writes only the OCaml byte buffers it is handed and never allocates
   or releases the runtime lock. */

#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SPITZ_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

static const uint32_t K[64] = {
  0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu, 0x59f111f1u,
  0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u, 0x243185beu, 0x550c7dc3u,
  0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u, 0xc19bf174u, 0xe49b69c1u, 0xefbe4786u,
  0x0fc19dc6u, 0x240ca1ccu, 0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau,
  0x983e5152u, 0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
  0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu, 0x53380d13u,
  0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u, 0xa2bfe8a1u, 0xa81a664bu,
  0xc24b8b70u, 0xc76c51a3u, 0xd192e819u, 0xd6990624u, 0xf40e3585u, 0x106aa070u,
  0x19a4c116u, 0x1e376c08u, 0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au,
  0x5b9cca4fu, 0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
  0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u
};

static const uint32_t H0[8] = {
  0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
  0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u
};

typedef void (*compress_fn)(uint32_t s[8], const unsigned char *p, size_t nblocks);

/* ---------- portable compressor ---------- */

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static inline uint32_t load_be32(const unsigned char *p)
{
  return (uint32_t)p[0] << 24 | (uint32_t)p[1] << 16 | (uint32_t)p[2] << 8 | (uint32_t)p[3];
}

static void compress_portable(uint32_t s[8], const unsigned char *p, size_t nblocks)
{
  uint32_t w[64];
  for (; nblocks > 0; nblocks--, p += 64) {
    for (int i = 0; i < 16; i++) w[i] = load_be32(p + 4 * i);
    for (int i = 16; i < 64; i++) {
      uint32_t x = w[i - 15], y = w[i - 2];
      uint32_t s0 = ROTR(x, 7) ^ ROTR(x, 18) ^ (x >> 3);
      uint32_t s1 = ROTR(y, 17) ^ ROTR(y, 19) ^ (y >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = s[0], b = s[1], c = s[2], d = s[3];
    uint32_t e = s[4], f = s[5], g = s[6], h = s[7];
    for (int i = 0; i < 64; i++) {
      uint32_t t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25)) + ((e & f) ^ (~e & g)) + K[i] + w[i];
      uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    s[0] += a; s[1] += b; s[2] += c; s[3] += d;
    s[4] += e; s[5] += f; s[6] += g; s[7] += h;
  }
}

/* ---------- SHA-NI compressor ---------- */

#ifdef SPITZ_SHA_NI
/* The SHA extensions keep the state as two lanes, ABEF and CDGH. Each
   group of four rounds adds K to four schedule words and runs two
   SHA256RNDS2; from group 4 on, MSG1/MSG2 extend the schedule in place in
   a ring of four registers. */
__attribute__((target("sha,sse4.1,ssse3")))
static void compress_shani(uint32_t s[8], const unsigned char *p, size_t nblocks)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128((const __m128i *)&s[0]);
  __m128i st1 = _mm_loadu_si128((const __m128i *)&s[4]);
  tmp = _mm_shuffle_epi32(tmp, 0xB1);          /* CDAB */
  st1 = _mm_shuffle_epi32(st1, 0x1B);          /* EFGH */
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);  /* ABEF */
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);       /* CDGH */
  for (; nblocks > 0; nblocks--, p += 64) {
    const __m128i abef = st0, cdgh = st1;
    __m128i w[4];
    for (int i = 0; i < 4; i++)
      w[i] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16 * i)), bswap);
    for (int i = 0; i < 16; i++) {
      /* w[i & 3] holds schedule words 4(i-4)..; extend it to group i */
      if (i >= 4) {
        __m128i t = _mm_sha256msg1_epu32(w[i & 3], w[(i + 1) & 3]);
        t = _mm_add_epi32(t, _mm_alignr_epi8(w[(i + 3) & 3], w[(i + 2) & 3], 4));
        w[i & 3] = _mm_sha256msg2_epu32(t, w[(i + 3) & 3]);
      }
      __m128i m = _mm_add_epi32(w[i & 3], _mm_loadu_si128((const __m128i *)&K[4 * i]));
      st1 = _mm_sha256rnds2_epu32(st1, st0, m);
      m = _mm_shuffle_epi32(m, 0x0E);
      st0 = _mm_sha256rnds2_epu32(st0, st1, m);
    }
    st0 = _mm_add_epi32(st0, abef);
    st1 = _mm_add_epi32(st1, cdgh);
  }
  tmp = _mm_shuffle_epi32(st0, 0x1B);          /* FEBA */
  st1 = _mm_shuffle_epi32(st1, 0xB1);          /* DCHG */
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);       /* DCBA */
  st1 = _mm_alignr_epi8(st1, tmp, 8);          /* HGFE */
  _mm_storeu_si128((__m128i *)&s[0], st0);
  _mm_storeu_si128((__m128i *)&s[4], st1);
}

static int cpu_has_sha_ni(void)
{
  unsigned int a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return 0;
  int ssse3 = (c >> 9) & 1, sse41 = (c >> 19) & 1;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return 0;
  return ssse3 && sse41 && ((b >> 29) & 1);
}
#endif

/* 0 = not probed yet, 1 = portable, 2 = SHA-NI */
static atomic_int selected = 0;

static compress_fn compressor(void)
{
  int sel = atomic_load_explicit(&selected, memory_order_relaxed);
  if (sel == 0) {
    sel = 1;
#ifdef SPITZ_SHA_NI
    if (cpu_has_sha_ni()) sel = 2;
#endif
    atomic_store_explicit(&selected, sel, memory_order_relaxed);
  }
#ifdef SPITZ_SHA_NI
  if (sel == 2) return compress_shani;
#endif
  return compress_portable;
}

/* ---------- padding and output ---------- */

/* Pad the [tail_len] < 64 trailing bytes of a [total]-byte message,
   compress the last one or two blocks and write the big-endian digest. */
static void finish(compress_fn f, uint32_t s[8], const unsigned char *tail, size_t tail_len,
                   uint64_t total, unsigned char *out)
{
  unsigned char block[128];
  size_t n = tail_len < 56 ? 64 : 128;
  memset(block, 0, sizeof block);
  memcpy(block, tail, tail_len);
  block[tail_len] = 0x80;
  uint64_t bits = total * 8;
  for (int i = 0; i < 8; i++) block[n - 1 - i] = (unsigned char)(bits >> (8 * i));
  f(s, block, n / 64);
  for (int i = 0; i < 8; i++) {
    out[4 * i] = (unsigned char)(s[i] >> 24);
    out[4 * i + 1] = (unsigned char)(s[i] >> 16);
    out[4 * i + 2] = (unsigned char)(s[i] >> 8);
    out[4 * i + 3] = (unsigned char)s[i];
  }
}

static void digest(compress_fn f, const unsigned char *p, size_t len, unsigned char *out)
{
  uint32_t s[8];
  memcpy(s, H0, sizeof s);
  f(s, p, len / 64);
  finish(f, s, p + (len & ~(size_t)63), len & 63, len, out);
}

/* ---------- OCaml entry points ---------- */

/* The streaming state is a 32-byte OCaml buffer holding the eight words in
   native byte order; OCaml byte buffers are word-aligned. */
#define STATE(v) ((uint32_t *)Bytes_val(v))

value spitz_sha256_init(value st)
{
  memcpy(STATE(st), H0, sizeof H0);
  return Val_unit;
}

value spitz_sha256_blocks(value st, value buf, value off, value nblocks)
{
  compressor()(STATE(st), Bytes_val(buf) + Long_val(off), Long_val(nblocks));
  return Val_unit;
}

value spitz_sha256_finish(value st, value buf, value buf_len, value total, value out)
{
  finish(compressor(), STATE(st), Bytes_val(buf), Long_val(buf_len), (uint64_t)Long_val(total),
         Bytes_val(out));
  return Val_unit;
}

value spitz_sha256_digest(value buf, value off, value len, value out)
{
  digest(compressor(), Bytes_val(buf) + Long_val(off), Long_val(len), Bytes_val(out));
  return Val_unit;
}

value spitz_sha256_digest_portable(value buf, value off, value len, value out)
{
  digest(compress_portable, Bytes_val(buf) + Long_val(off), Long_val(len), Bytes_val(out));
  return Val_unit;
}

value spitz_sha256_implementation(value unit)
{
  (void)unit;
  return caml_copy_string(compressor() == compress_portable ? "portable" : "sha-ni");
}
