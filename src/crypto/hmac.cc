#include "crypto/hmac.h"

#include <cstring>

#include "crypto/sha256_blocks.h"

namespace paai::crypto {

namespace {

constexpr std::size_t kBlock = 64;

using detail::HmacPads;

/// The pad table: per thread, 8 sets of 4 ways, each way a key block K
/// (the key zero-padded to 64 bytes, or its digest when longer) and its
/// Pads: 4 416 bytes. Keys that zero-pad to the same K have the same
/// HMAC, so K is the whole lookup key. A miss recomputes the pads into
/// the set's next way, round robin. Four ways keep a run's dozen or so
/// hot keys (d node keys, the sampling keys, W-OTS seeds) from evicting
/// each other when two land in one set. Per thread, so lookups need no
/// lock.
constexpr std::size_t kSets = 8;
constexpr std::size_t kWays = 4;

struct PadSet {
  std::array<std::uint64_t, kWays> tag{};  // 0 = empty way
  std::array<std::array<std::uint8_t, kBlock>, kWays> key{};
  std::array<HmacPads, kWays> pads{};
  std::size_t next = 0;
};

thread_local std::array<PadSet, kSets> t_pads;

/// A nonzero 64-bit mix of K; its top bits pick the set.
std::uint64_t tag_of(const std::uint8_t* k) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < kBlock; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, k + i, 8);
    h = (h ^ w) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  return h | 1;
}

HmacPads compute_pads(const std::uint8_t* k) {
  std::uint8_t ipad[kBlock] = {}, opad[kBlock] = {};
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  HmacPads p{Sha256::kInitialState, Sha256::kInitialState};
  detail::sha256_blocks(p.inner.data(), ipad, 1);
  detail::sha256_blocks(p.outer.data(), opad, 1);
  return p;
}

}  // namespace

const HmacPads& detail::hmac_pads(ByteView key) {
  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    const Digest32 kd = Sha256::digest(key);
    std::memcpy(k.data(), kd.data(), kd.size());
  } else if (!key.empty()) {
    std::memcpy(k.data(), key.data(), key.size());
  }
  const std::uint64_t tag = tag_of(k.data());
  PadSet& set = t_pads[tag >> 61];
  for (std::size_t w = 0; w < kWays; ++w) {
    if (set.tag[w] == tag && set.key[w] == k) return set.pads[w];
  }
  const std::size_t w = set.next;
  set.next = (w + 1) % kWays;
  set.tag[w] = tag;
  set.key[w] = k;
  set.pads[w] = compute_pads(k.data());
  return set.pads[w];
}

Digest32 hmac_sha256(ByteView key, ByteView message) {
  const HmacPads& pads = detail::hmac_pads(key);
  const Digest32 inner = Sha256::finish_from(pads.inner, kBlock, message);
  return Sha256::finish_from(pads.outer, kBlock,
                             ByteView(inner.data(), inner.size()));
}

std::uint64_t hmac_prf_u64(ByteView key, ByteView message) {
  const Digest32 t = hmac_sha256(key, message);
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out = (out << 8) | t[i];
  return out;
}

}  // namespace paai::crypto
