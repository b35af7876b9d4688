#include "crypto/wots.h"

#include <cstring>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "obs/profile.h"
#include "util/wire.h"

namespace paai::crypto {

namespace {

/// Base-16 digits of H(message) plus the 3-digit checksum.
std::array<std::uint8_t, kWotsChains> digits_of(ByteView message) {
  const Digest32 digest = Sha256::digest(message);
  std::array<std::uint8_t, kWotsChains> digits{};
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

/// Secret chain head for (seed, key index, chain): HMAC(seed, index as
/// 8 big-endian bytes || chain).
Digest32 chain_head(const Key& seed, std::uint64_t index, std::size_t chain) {
  std::uint8_t input[9];
  store_be(input, index);
  input[8] = static_cast<std::uint8_t>(chain);
  return hmac_sha256(ByteView(seed.data(), seed.size()),
                     ByteView(input, sizeof(input)));
}

}  // namespace

// W-OTS hashes through Sha256 directly, not through a CryptoProvider, so
// each entry point opens its own kCrypto scope.
WotsPublicKey wots_public_key(const Key& seed, std::uint64_t index) {
  const obs::ScopedPhase phase(obs::Phase::kCrypto);
  Sha256 acc;
  for (std::size_t c = 0; c < kWotsChains; ++c) {
    const Digest32 end =
        Sha256::iterate(chain_head(seed, index, c), kWotsDepth);
    acc.update(ByteView(end.data(), end.size()));
  }
  return acc.finish();
}

Bytes wots_sign(const Key& seed, std::uint64_t index, ByteView message) {
  const obs::ScopedPhase phase(obs::Phase::kCrypto);
  const auto digits = digits_of(message);
  Bytes signature;
  signature.reserve(kWotsSignatureSize);
  for (std::size_t c = 0; c < kWotsChains; ++c) {
    const Digest32 v = Sha256::iterate(chain_head(seed, index, c), digits[c]);
    signature.insert(signature.end(), v.begin(), v.end());
  }
  return signature;
}

bool wots_verify(const WotsPublicKey& pk, ByteView message,
                 ByteView signature) {
  if (signature.size() != kWotsSignatureSize) return false;
  const obs::ScopedPhase phase(obs::Phase::kCrypto);
  const auto digits = digits_of(message);
  Sha256 acc;
  for (std::size_t c = 0; c < kWotsChains; ++c) {
    Digest32 v;
    std::memcpy(v.data(), signature.data() + 32 * c, 32);
    v = Sha256::iterate(v, kWotsDepth - digits[c]);
    acc.update(ByteView(v.data(), v.size()));
  }
  const WotsPublicKey computed = acc.finish();
  return ct_equal(ByteView(computed.data(), computed.size()),
                  ByteView(pk.data(), pk.size()));
}

}  // namespace paai::crypto
