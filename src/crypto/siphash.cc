#include "crypto/siphash.h"

#include <bit>
#include <cstring>

namespace paai::crypto {

namespace {

inline std::uint64_t rotl64(std::uint64_t x, int n) {
  return (x << n) | (x >> (64 - n));
}

inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// N independent SipHash states advanced in lockstep; each step loops over
/// the lanes, so the compiler interleaves their dependency chains.
template <std::size_t N>
struct SipLanes {
  std::uint64_t v0[N], v1[N], v2[N], v3[N];

  explicit SipLanes(const SipKey* keys) {
    for (std::size_t i = 0; i < N; ++i) {
      v0[i] = 0x736f6d6570736575ULL ^ keys[i].k0;
      v1[i] = 0x646f72616e646f6dULL ^ keys[i].k1;
      v2[i] = 0x6c7967656e657261ULL ^ keys[i].k0;
      v3[i] = 0x7465646279746573ULL ^ keys[i].k1;
    }
  }

  void round() {
    for (std::size_t i = 0; i < N; ++i) {
      v0[i] += v1[i]; v1[i] = rotl64(v1[i], 13); v1[i] ^= v0[i];
      v0[i] = rotl64(v0[i], 32);
      v2[i] += v3[i]; v3[i] = rotl64(v3[i], 16); v3[i] ^= v2[i];
      v0[i] += v3[i]; v3[i] = rotl64(v3[i], 21); v3[i] ^= v0[i];
      v2[i] += v1[i]; v1[i] = rotl64(v1[i], 17); v1[i] ^= v2[i];
      v2[i] = rotl64(v2[i], 32);
    }
  }

  void compress(std::uint64_t m) {
    for (std::size_t i = 0; i < N; ++i) v3[i] ^= m;
    round();
    round();
    for (std::size_t i = 0; i < N; ++i) v0[i] ^= m;
  }

  void run(ByteView data, std::uint64_t* out) {
    const std::size_t len = data.size();
    const std::size_t end = len - (len % 8);
    for (std::size_t i = 0; i < end; i += 8) {
      compress(load_le64(data.data() + i));
    }
    // Final word: the tail bytes, zero padded, with len mod 256 on top.
    std::uint8_t tail[8] = {};
    if (len % 8 != 0) std::memcpy(tail, data.data() + end, len % 8);
    compress(load_le64(tail) | (static_cast<std::uint64_t>(len & 0xff) << 56));

    for (std::size_t i = 0; i < N; ++i) v2[i] ^= 0xff;
    round();
    round();
    round();
    round();
    for (std::size_t i = 0; i < N; ++i) out[i] = v0[i] ^ v1[i] ^ v2[i] ^ v3[i];
  }
};

}  // namespace

SipKey sip_key(const Key128& key) {
  return SipKey{load_le64(key.data()), load_le64(key.data() + 8)};
}

std::uint64_t siphash24(const Key128& key, ByteView data) {
  return siphash24(sip_key(key), data);
}

std::uint64_t siphash24(const SipKey& key, ByteView data) {
  std::uint64_t out = 0;
  SipLanes<1>(&key).run(data, &out);
  return out;
}

std::array<std::uint64_t, 4> siphash24_x4(const std::array<SipKey, 4>& keys,
                                          ByteView data) {
  std::array<std::uint64_t, 4> out{};
  SipLanes<4>(keys.data()).run(data, out.data());
  return out;
}

}  // namespace paai::crypto
