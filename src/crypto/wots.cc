#include "crypto/wots.h"

#include <cstring>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "obs/profile.h"

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

/// Secret chain head for (seed, key index, chain).
Digest32 chain_head(const Key& seed, std::uint64_t index, std::size_t chain) {
  Bytes input;
  input.reserve(16);
  for (int i = 0; i < 8; ++i) {
    input.push_back(static_cast<std::uint8_t>(index >> (56 - 8 * i)));
  }
  input.push_back(static_cast<std::uint8_t>(chain));
  return hmac_sha256(ByteView(seed.data(), seed.size()),
                     ByteView(input.data(), input.size()));
}

/// Applies the chaining function `steps` times.
Digest32 advance(Digest32 value, std::size_t steps) {
  for (std::size_t s = 0; s < steps; ++s) {
    value = Sha256::digest(ByteView(value.data(), value.size()));
  }
  return value;
}

}  // namespace

// W-OTS hashes through Sha256 directly, not through a CryptoProvider, so
// each entry point opens its own kCrypto scope.
WotsPublicKey wots_public_key(const Key& seed, std::uint64_t index) {
  const obs::ScopedPhase phase(obs::Phase::kCrypto);
  Sha256 acc;
  for (std::size_t c = 0; c < kWotsChains; ++c) {
    const Digest32 end = advance(chain_head(seed, index, c), kWotsDepth);
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
    const Digest32 v = advance(chain_head(seed, index, c), digits[c]);
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
    v = advance(v, kWotsDepth - digits[c]);
    acc.update(ByteView(v.data(), v.size()));
  }
  const WotsPublicKey computed = acc.finish();
  return ct_equal(ByteView(computed.data(), computed.size()),
                  ByteView(pk.data(), pk.size()));
}

}  // namespace paai::crypto
