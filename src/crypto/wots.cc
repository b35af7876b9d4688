#include "crypto/wots.h"

#include <cstring>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha256_blocks.h"
#include "obs/profile.h"
#include "util/wire.h"

namespace paai::crypto {

namespace {

/// One count per chain: a digit, or the steps a chain is hashed.
using Steps = std::array<std::uint8_t, kWotsChains>;

/// Base-16 digits of H(message) plus the 3-digit checksum.
Steps digits_of(ByteView message) {
  const Digest32 digest = Sha256::digest(message);
  Steps digits{};
  for (std::size_t i = 0; i < 32; ++i) {
    digits[2 * i] = digest[i] >> 4;
    digits[2 * i + 1] = digest[i] & 0x0f;
  }
  std::uint32_t checksum = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    checksum += kWotsDepth - digits[i];
  }
  digits[64] = static_cast<std::uint8_t>((checksum >> 8) & 0x0f);
  digits[65] = static_cast<std::uint8_t>((checksum >> 4) & 0x0f);
  digits[66] = static_cast<std::uint8_t>(checksum & 0x0f);
  return digits;
}

/// The chains ordered by step count, fewest first: a counting sort, with
/// no allocation.
Steps by_steps(const Steps& steps) {
  std::array<std::uint8_t, kWotsDepth + 2> next{};
  for (const std::uint8_t s : steps) ++next[s + 1];
  for (std::size_t s = 1; s < next.size(); ++s) next[s] += next[s - 1];
  Steps order;
  for (std::size_t c = 0; c < kWotsChains; ++c) {
    order[next[steps[c]]++] = static_cast<std::uint8_t>(c);
  }
  return order;
}

/// Hashes each chain c steps[c] times, up to kSha256Lanes chains per lane
/// batch, and writes its end to ends[32 c, 32 c + 32): chain order, as
/// the public-key hash takes them. `start(chains, n, blocks)` puts the
/// start values of the batch's `n` chains into the first 32 bytes of
/// their 64-byte lane blocks. Chains of a batch are neighbours in step
/// order, so few lanes idle while the batch's longest chain runs; the
/// first batch is the short one (67 = 3 + 4 x 16) and holds the chains
/// with the fewest steps.
template <typename Start>
void run_chains(const Steps& steps, Start&& start, std::uint8_t* ends) {
  const Steps order = by_steps(steps);
  std::uint8_t blocks[detail::kSha256Lanes * 64];
  std::uint8_t lane_steps[detail::kSha256Lanes];
  std::size_t n = (kWotsChains - 1) % detail::kSha256Lanes + 1;
  for (std::size_t first = 0; first < kWotsChains;
       first += n, n = detail::kSha256Lanes) {
    const std::uint8_t* chains = order.data() + first;
    start(chains, n, blocks);
    for (std::size_t i = 0; i < n; ++i) {
      detail::pad_last_block(blocks + 64 * i, 32, 32);
      lane_steps[i] = steps[chains[i]];
    }
    detail::sha256_lanes(Sha256::kInitialState.data(), blocks, lane_steps,
                         n);
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(ends + 32 * chains[i], blocks + 64 * i, 32);
    }
  }
}

/// The secret chain heads HMAC(seed, index as 8 big-endian bytes ||
/// chain) of `n` chains, into their lane blocks: one lane compression
/// from the seed's inner midstate (after the 64-byte key block), one from
/// its outer.
void chain_heads(const detail::HmacPads& pads, std::uint64_t index,
                 const std::uint8_t* chains, std::size_t n,
                 std::uint8_t* blocks) {
  std::uint8_t once[detail::kSha256Lanes];
  std::memset(once, 1, n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t* block = blocks + 64 * i;
    store_be(block, index);
    block[8] = chains[i];
    detail::pad_last_block(block, 9, 64 + 9);
  }
  detail::sha256_lanes(pads.inner.data(), blocks, once, n);
  for (std::size_t i = 0; i < n; ++i) {
    detail::pad_last_block(blocks + 64 * i, 32, 64 + 32);
  }
  detail::sha256_lanes(pads.outer.data(), blocks, once, n);
}

/// run_chains() from the secret heads of key (seed, index).
void run_secret_chains(const Key& seed, std::uint64_t index,
                       const Steps& steps, std::uint8_t* ends) {
  const detail::HmacPads& pads =
      detail::hmac_pads(ByteView(seed.data(), seed.size()));
  run_chains(
      steps,
      [&](const std::uint8_t* chains, std::size_t n, std::uint8_t* blocks) {
        chain_heads(pads, index, chains, n, blocks);
      },
      ends);
}

}  // namespace

// W-OTS hashes through Sha256 directly, not through a CryptoProvider, so
// each entry point opens its own kCrypto scope.
WotsPublicKey wots_public_key(const Key& seed, std::uint64_t index) {
  const obs::ScopedPhase phase(obs::Phase::kCrypto);
  Steps steps;
  steps.fill(kWotsDepth);
  std::uint8_t ends[kWotsSignatureSize];
  run_secret_chains(seed, index, steps, ends);
  return Sha256::digest(ByteView(ends, sizeof(ends)));
}

Bytes wots_sign(const Key& seed, std::uint64_t index, ByteView message) {
  const obs::ScopedPhase phase(obs::Phase::kCrypto);
  Bytes signature(kWotsSignatureSize);
  run_secret_chains(seed, index, digits_of(message), signature.data());
  return signature;
}

bool wots_verify(const WotsPublicKey& pk, ByteView message,
                 ByteView signature) {
  if (signature.size() != kWotsSignatureSize) return false;
  const obs::ScopedPhase phase(obs::Phase::kCrypto);
  Steps steps = digits_of(message);
  for (std::uint8_t& s : steps) s = static_cast<std::uint8_t>(kWotsDepth - s);
  std::uint8_t ends[kWotsSignatureSize];
  run_chains(
      steps,
      [&](const std::uint8_t* chains, std::size_t n, std::uint8_t* blocks) {
        for (std::size_t i = 0; i < n; ++i) {
          std::memcpy(blocks + 64 * i, signature.data() + 32 * chains[i], 32);
        }
      },
      ends);
  const WotsPublicKey computed = Sha256::digest(ByteView(ends, sizeof(ends)));
  return ct_equal(ByteView(computed.data(), computed.size()),
                  ByteView(pk.data(), pk.size()));
}

}  // namespace paai::crypto
