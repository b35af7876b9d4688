#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_blocks.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace paai::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

}  // namespace

namespace detail {

void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
             (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

#define PAAI_SHA_TARGET __attribute__((target("sha,sse4.1")))

/// Four rounds: W[4q..4q+3] + K[4q..4q+3], two per SHA256RNDS2. The
/// state travels as ABEF/CDGH halves, as the instruction wants it.
PAAI_SHA_TARGET inline __attribute__((always_inline)) void rounds4(
    __m128i& abef, __m128i& cdgh, __m128i w, int q) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK.data() + 4 * q)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

/// W[t..t+3] for t = 4q + 16 from the four previous word groups:
/// W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
PAAI_SHA_TARGET inline __attribute__((always_inline)) __m128i schedule4(
    __m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                  _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

/// Reverses the bytes of each 32-bit lane: big-endian words <-> bytes.
PAAI_SHA_TARGET inline __attribute__((always_inline)) __m128i bswap32x4(
    __m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL));
}

/// The chaining words a..h as the ABEF/CDGH halves SHA256RNDS2 takes.
PAAI_SHA_TARGET inline __attribute__((always_inline)) void load_state(
    const std::uint32_t state[8], __m128i& abef, __m128i& cdgh) {
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  abef = _mm_alignr_epi8(cdab, efgh, 8);
  cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
}

/// Back from ABEF/CDGH to words a..d and e..h in memory order.
PAAI_SHA_TARGET inline __attribute__((always_inline)) void unload_state(
    __m128i abef, __m128i cdgh, __m128i& dcba, __m128i& hgfe) {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
}

/// One 64-byte block into the ABEF/CDGH state.
PAAI_SHA_TARGET inline __attribute__((always_inline)) void compress(
    __m128i& abef, __m128i& cdgh, const std::uint8_t* data) {
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;
  const auto* in = reinterpret_cast<const __m128i*>(data);
  __m128i w0 = bswap32x4(_mm_loadu_si128(in + 0));
  __m128i w1 = bswap32x4(_mm_loadu_si128(in + 1));
  __m128i w2 = bswap32x4(_mm_loadu_si128(in + 2));
  __m128i w3 = bswap32x4(_mm_loadu_si128(in + 3));
  for (int q = 0; q < 12; q += 4) {
    rounds4(abef, cdgh, w0, q);
    w0 = schedule4(w0, w1, w2, w3);
    rounds4(abef, cdgh, w1, q + 1);
    w1 = schedule4(w1, w2, w3, w0);
    rounds4(abef, cdgh, w2, q + 2);
    w2 = schedule4(w2, w3, w0, w1);
    rounds4(abef, cdgh, w3, q + 3);
    w3 = schedule4(w3, w0, w1, w2);
  }
  rounds4(abef, cdgh, w0, 12);
  rounds4(abef, cdgh, w1, 13);
  rounds4(abef, cdgh, w2, 14);
  rounds4(abef, cdgh, w3, 15);
  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
}

}  // namespace

PAAI_SHA_TARGET void sha256_blocks_x86_sha(std::uint32_t state[8],
                                           const std::uint8_t* data,
                                           std::size_t nblocks) {
  __m128i abef, cdgh;
  load_state(state, abef, cdgh);
  for (; nblocks > 0; --nblocks, data += 64) compress(abef, cdgh, data);
  __m128i dcba, hgfe;
  unload_state(abef, cdgh, dcba, hgfe);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

PAAI_SHA_TARGET void sha256_block_digest_x86_sha(const std::uint32_t state[8],
                                                 const std::uint8_t* block,
                                                 std::uint8_t* out) {
  __m128i abef, cdgh;
  load_state(state, abef, cdgh);
  compress(abef, cdgh, block);
  __m128i dcba, hgfe;
  unload_state(abef, cdgh, dcba, hgfe);
  // Two whole-vector stores, so a next step's loads of `out` forward.
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), bswap32x4(dcba));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16), bswap32x4(hgfe));
}

#undef PAAI_SHA_TARGET

bool sha256_x86_sha_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

namespace {

// The 16-lane body: every __m512i lives in a target("avx512f") function,
// and all but the entry point are inlined into it, so no vector crosses a
// call boundary (GCC's -Wpsabi would flag one).
#define PAAI_AVX512_TARGET __attribute__((target("avx512f")))
#define PAAI_AVX512_INLINE \
  PAAI_AVX512_TARGET inline __attribute__((always_inline))

PAAI_AVX512_INLINE __m512i add(__m512i x, __m512i y) {
  return _mm512_add_epi32(x, y);
}

// The shifts, rotates and the widening load go through their zero-masking
// forms with a full mask: the same instructions, but GCC 12 reports the
// plain forms' undefined pass-through operand as -Wuninitialized.
constexpr __mmask16 kAllLanes = 0xffff;

template <int n>
PAAI_AVX512_INLINE __m512i ror(__m512i x) {
  return _mm512_maskz_ror_epi32(kAllLanes, x, n);
}

template <int n>
PAAI_AVX512_INLINE __m512i shr(__m512i x) {
  return _mm512_maskz_srli_epi32(kAllLanes, x, n);
}

/// x ^ y ^ z in one vpternlogd.
PAAI_AVX512_INLINE __m512i xor3(__m512i x, __m512i y, __m512i z) {
  return _mm512_ternarylogic_epi32(x, y, z, 0x96);
}

/// Reverses the bytes of each 32-bit lane: bytes 3 and 1 of the result
/// come from x rotated right by 8, bytes 2 and 0 from x rotated by 24.
PAAI_AVX512_INLINE __m512i bswap32x16(__m512i x) {
  return _mm512_ternarylogic_epi32(
      _mm512_set1_epi32(static_cast<int>(0xff00ff00u)), ror<8>(x),
      ror<24>(x), 0xca);
}

/// Round i of a 16-round pass (the caller rotates the roles of a..h):
/// on passes after the first, W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) +
/// W[t-16] replaces W[t-16] in the 16-word ring first.
template <int i, bool kSchedule>
PAAI_AVX512_INLINE void round1(__m512i a, __m512i b, __m512i c, __m512i& d,
                               __m512i e, __m512i f, __m512i g, __m512i& h,
                               __m512i w[16], const std::uint32_t* k) {
  if (kSchedule) {
    const __m512i w15 = w[(i + 1) & 15];
    const __m512i w2 = w[(i + 14) & 15];
    const __m512i s0 = xor3(ror<7>(w15), ror<18>(w15), shr<3>(w15));
    const __m512i s1 = xor3(ror<17>(w2), ror<19>(w2), shr<10>(w2));
    w[i] = add(add(w[i], s0), add(w[(i + 9) & 15], s1));
  }
  const __m512i big_s1 = xor3(ror<6>(e), ror<11>(e), ror<25>(e));
  const __m512i ch = _mm512_ternarylogic_epi32(e, f, g, 0xca);  // e ? f : g
  const __m512i t1 = add(add(h, big_s1),
                         add(ch, add(w[i], _mm512_set1_epi32(
                                               static_cast<int>(k[i])))));
  const __m512i big_s0 = xor3(ror<2>(a), ror<13>(a), ror<22>(a));
  const __m512i maj = _mm512_ternarylogic_epi32(a, b, c, 0xe8);
  d = add(d, t1);
  h = add(t1, add(big_s0, maj));
}

/// Rounds 16p .. 16p + 15, with k = K + 16p.
template <bool kSchedule>
PAAI_AVX512_INLINE void rounds16(__m512i s[8], __m512i w[16],
                                 const std::uint32_t* k) {
  __m512i &a = s[0], &b = s[1], &c = s[2], &d = s[3];
  __m512i &e = s[4], &f = s[5], &g = s[6], &h = s[7];
  round1<0, kSchedule>(a, b, c, d, e, f, g, h, w, k);
  round1<1, kSchedule>(h, a, b, c, d, e, f, g, w, k);
  round1<2, kSchedule>(g, h, a, b, c, d, e, f, w, k);
  round1<3, kSchedule>(f, g, h, a, b, c, d, e, w, k);
  round1<4, kSchedule>(e, f, g, h, a, b, c, d, w, k);
  round1<5, kSchedule>(d, e, f, g, h, a, b, c, w, k);
  round1<6, kSchedule>(c, d, e, f, g, h, a, b, w, k);
  round1<7, kSchedule>(b, c, d, e, f, g, h, a, w, k);
  round1<8, kSchedule>(a, b, c, d, e, f, g, h, w, k);
  round1<9, kSchedule>(h, a, b, c, d, e, f, g, w, k);
  round1<10, kSchedule>(g, h, a, b, c, d, e, f, w, k);
  round1<11, kSchedule>(f, g, h, a, b, c, d, e, w, k);
  round1<12, kSchedule>(e, f, g, h, a, b, c, d, w, k);
  round1<13, kSchedule>(d, e, f, g, h, a, b, c, w, k);
  round1<14, kSchedule>(c, d, e, f, g, h, a, b, w, k);
  round1<15, kSchedule>(b, c, d, e, f, g, h, a, w, k);
}

/// One block per lane: out = init + the 64 rounds over `block`'s words.
PAAI_AVX512_INLINE void compress16(const __m512i init[8],
                                   const __m512i block[16], __m512i out[8]) {
  __m512i s[8], w[16];
  for (int j = 0; j < 8; ++j) s[j] = init[j];
  for (int j = 0; j < 16; ++j) w[j] = block[j];
  rounds16<false>(s, w, kK.data());
  rounds16<true>(s, w, kK.data() + 16);
  rounds16<true>(s, w, kK.data() + 32);
  rounds16<true>(s, w, kK.data() + 48);
  for (int j = 0; j < 8; ++j) out[j] = add(s[j], init[j]);
}

}  // namespace

PAAI_AVX512_TARGET void sha256_lanes_avx512(const std::uint32_t state[8],
                                            std::uint8_t* blocks,
                                            const std::uint8_t* steps,
                                            std::size_t lanes) {
  std::uint8_t lane_steps[kSha256Lanes] = {};
  std::memcpy(lane_steps, steps, lanes);
  const std::uint8_t rounds =
      *std::max_element(lane_steps, lane_steps + kSha256Lanes);
  const __m512i steps_v = _mm512_maskz_cvtepu8_epi32(
      kAllLanes,
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(lane_steps)));
  const __mmask16 stepped =
      _mm512_cmpgt_epu32_mask(steps_v, _mm512_setzero_si512());
  // Word j of lane i sits at byte 4 * (16 i + j) of `blocks`.
  const __m512i lane_words = _mm512_setr_epi32(
      0, 16, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240);

  __m512i w[16];
  for (int j = 0; j < 16; ++j) {
    w[j] = bswap32x16(_mm512_mask_i32gather_epi32(
        _mm512_setzero_si512(), stepped, lane_words, blocks + 4 * j, 4));
  }
  __m512i init[8];
  for (int j = 0; j < 8; ++j) {
    init[j] = _mm512_set1_epi32(static_cast<int>(state[j]));
  }
  for (std::uint8_t r = 0; r < rounds; ++r) {
    const __mmask16 active =
        _mm512_cmpgt_epu32_mask(steps_v, _mm512_set1_epi32(r));
    __m512i digest[8];
    compress16(init, w, digest);
    for (int j = 0; j < 8; ++j) {
      w[j] = _mm512_mask_mov_epi32(w[j], active, digest[j]);
    }
  }
  for (int j = 0; j < 8; ++j) {
    _mm512_mask_i32scatter_epi32(blocks + 4 * j, stepped, lane_words,
                                 bswap32x16(w[j]), 4);
  }
}

#undef PAAI_AVX512_INLINE
#undef PAAI_AVX512_TARGET

bool sha256_x86_avx512_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
}

#endif  // x86

void sha256_block_digest_portable(const std::uint32_t state[8],
                                  const std::uint8_t* block,
                                  std::uint8_t* out) {
  std::uint32_t s[8];
  std::memcpy(s, state, sizeof(s));
  sha256_blocks_portable(s, block, 1);
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(s[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(s[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(s[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(s[i]);
  }
}

void pad_last_block(std::uint8_t block[64], std::size_t len,
                    std::uint64_t total_bytes) {
  block[len] = 0x80;
  std::memset(block + len + 1, 0, 55 - len);
  const std::uint64_t bit_len = total_bytes * 8;
  for (int i = 0; i < 8; ++i) {
    block[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
}

void sha256_lanes_reference(const std::uint32_t state[8],
                            std::uint8_t* blocks, const std::uint8_t* steps,
                            std::size_t lanes) {
  for (std::size_t i = 0; i < lanes; ++i) {
    std::uint8_t* block = blocks + 64 * i;
    for (std::uint8_t s = 0; s < steps[i]; ++s) {
      sha256_block_digest(state, block, block);
    }
  }
}

namespace {

/// The block and lane functions for this CPU, picked once from CPUID.
struct BlockFns {
  void (*blocks)(std::uint32_t*, const std::uint8_t*, std::size_t);
  void (*block_digest)(const std::uint32_t*, const std::uint8_t*,
                       std::uint8_t*);
  void (*lanes)(const std::uint32_t*, std::uint8_t*, const std::uint8_t*,
                std::size_t);
};

const BlockFns& chosen() {
  static const BlockFns fns = [] {
    BlockFns f{&sha256_blocks_portable, &sha256_block_digest_portable,
               &sha256_lanes_reference};
#if defined(__x86_64__) || defined(__i386__)
    if (sha256_x86_sha_supported()) {
      f.blocks = &sha256_blocks_x86_sha;
      f.block_digest = &sha256_block_digest_x86_sha;
    }
    if (sha256_x86_avx512_supported()) f.lanes = &sha256_lanes_avx512;
#endif
    return f;
  }();
  return fns;
}

}  // namespace

void sha256_blocks(std::uint32_t state[8], const std::uint8_t* data,
                   std::size_t nblocks) {
  chosen().blocks(state, data, nblocks);
}

void sha256_block_digest(const std::uint32_t state[8],
                         const std::uint8_t* block, std::uint8_t* out) {
  chosen().block_digest(state, block, out);
}

void sha256_lanes(const std::uint32_t state[8], std::uint8_t* blocks,
                  const std::uint8_t* steps, std::size_t lanes) {
  chosen().lanes(state, blocks, steps, lanes);
}

}  // namespace detail

namespace {

/// Longest message tail one last block holds: 55 bytes, 0x80, 8 length
/// bytes.
constexpr std::size_t kMaxShortTail = 55;

}  // namespace

Sha256::Sha256() { reset(); }

Sha256::Sha256(const Sha256State& midstate, std::uint64_t absorbed)
    : state_(midstate), total_bytes_(absorbed) {}

void Sha256::reset() {
  state_ = kInitialState;
  buffered_ = 0;
  total_bytes_ = 0;
}

void Sha256::update(ByteView data) {
  if (data.empty()) return;
  total_bytes_ += data.size();
  const std::uint8_t* in = data.data();
  std::size_t left = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(64 - buffered_, left);
    std::memcpy(buffer_.data() + buffered_, in, take);
    buffered_ += take;
    in += take;
    left -= take;
    if (buffered_ < 64) return;
    detail::sha256_blocks(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  if (left >= 64) {
    detail::sha256_blocks(state_.data(), in, left / 64);
    in += left - left % 64;
    left %= 64;
  }
  if (left > 0) {
    std::memcpy(buffer_.data(), in, left);
    buffered_ = left;
  }
}

Digest32 Sha256::finish() {
  // 0x80, zeros up to byte 56 of a block, then the big-endian bit length.
  const std::uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    detail::sha256_blocks(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  Digest32 out;
  detail::sha256_block_digest(state_.data(), buffer_.data(), out.data());
  return out;
}

Digest32 Sha256::digest(ByteView data) {
  return finish_from(kInitialState, 0, data);
}

Digest32 Sha256::finish_from(const Sha256State& midstate,
                             std::uint64_t absorbed, ByteView rest) {
  if (rest.size() > kMaxShortTail) {
    Sha256 h(midstate, absorbed);
    h.update(rest);
    return h.finish();
  }
  std::uint8_t block[64];
  if (!rest.empty()) std::memcpy(block, rest.data(), rest.size());
  detail::pad_last_block(block, rest.size(), absorbed + rest.size());
  Digest32 out;
  detail::sha256_block_digest(midstate.data(), block, out.data());
  return out;
}

Digest32 Sha256::iterate(const Digest32& value, std::size_t steps) {
  std::uint8_t block[64];
  std::memcpy(block, value.data(), value.size());
  detail::pad_last_block(block, value.size(), value.size());
  for (std::size_t s = 0; s < steps; ++s) {
    detail::sha256_block_digest(kInitialState.data(), block, block);
  }
  Digest32 out;
  std::memcpy(out.data(), block, out.size());
  return out;
}

}  // namespace paai::crypto
