#include "crypto/provider.h"

#include <cstring>

#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/siphash.h"
#include "obs/profile.h"
#include "util/wire.h"

namespace paai::crypto {

bool CryptoProvider::verify_mac(const Key& key, ByteView message,
                                const Mac& tag) const {
  const Mac expected = mac(key, message);
  return ct_equal(ByteView(expected.data(), expected.size()),
                  ByteView(tag.data(), tag.size()));
}

namespace {

Nonce96 make_nonce(std::uint64_t nonce) {
  Nonce96 n{};
  for (int i = 0; i < 8; ++i) {
    n[4 + i] = static_cast<std::uint8_t>(nonce >> (56 - 8 * i));
  }
  return n;
}

// Every provider method opens a kCrypto phase scope (two branches while
// the metrics registry is off): the crypto loops dominate PAAI-2 and
// sig-ack (perfbench's crypto.* probes); the phase counters measure them.
class RealCrypto final : public CryptoProvider {
 public:
  std::array<std::uint8_t, 32> hash(ByteView message) const override {
    const obs::ScopedPhase phase(obs::Phase::kCrypto);
    return Sha256::digest(message);
  }

  Mac mac(const Key& key, ByteView message) const override {
    const obs::ScopedPhase phase(obs::Phase::kCrypto);
    const Digest32 full =
        hmac_sha256(ByteView(key.data(), key.size()), message);
    Mac out;
    std::memcpy(out.data(), full.data(), out.size());
    return out;
  }

  std::uint64_t prf(const Key& key, ByteView message) const override {
    const obs::ScopedPhase phase(obs::Phase::kCrypto);
    return hmac_prf_u64(ByteView(key.data(), key.size()), message);
  }

  Bytes encrypt(const Key& key, std::uint64_t nonce,
                ByteView plaintext) const override {
    const obs::ScopedPhase phase(obs::Phase::kCrypto);
    return chacha20_xor(key, make_nonce(nonce), 0, plaintext);
  }

  Bytes decrypt(const Key& key, std::uint64_t nonce,
                ByteView ciphertext) const override {
    const obs::ScopedPhase phase(obs::Phase::kCrypto);
    return chacha20_xor(key, make_nonce(nonce), 0, ciphertext);
  }
};

// Lane keys of FastCrypto::hash: lane index in key byte 0, 0xa5 in byte
// 15, i.e. these little-endian words.
constexpr std::array<SipKey, 4> kHashLanes = {{{0, 0xa5ULL << 56},
                                               {1, 0xa5ULL << 56},
                                               {2, 0xa5ULL << 56},
                                               {3, 0xa5ULL << 56}}};

class FastCrypto final : public CryptoProvider {
 public:
  std::array<std::uint8_t, 32> hash(ByteView message) const override {
    const obs::ScopedPhase phase(obs::Phase::kCrypto);
    // Four SipHash lanes under fixed public keys. Wide enough that
    // accidental collisions never perturb a simulation; documented as
    // non-cryptographic in provider.h.
    const std::array<std::uint64_t, 4> h = siphash24_x4(kHashLanes, message);
    std::array<std::uint8_t, 32> out;
    for (std::size_t lane = 0; lane < 4; ++lane) {
      store_be(out.data() + 8 * lane, h[lane]);
    }
    return out;
  }

  Mac mac(const Key& key, ByteView message) const override {
    const obs::ScopedPhase phase(obs::Phase::kCrypto);
    Mac out;
    store_be(out.data(), siphash24(domain_key(key, 0x01), message));
    return out;
  }

  std::uint64_t prf(const Key& key, ByteView message) const override {
    const obs::ScopedPhase phase(obs::Phase::kCrypto);
    return siphash24(domain_key(key, 0x02), message);
  }

  Bytes encrypt(const Key& key, std::uint64_t nonce,
                ByteView plaintext) const override {
    const obs::ScopedPhase phase(obs::Phase::kCrypto);
    return stream_xor(key, nonce, plaintext);
  }

  Bytes decrypt(const Key& key, std::uint64_t nonce,
                ByteView ciphertext) const override {
    const obs::ScopedPhase phase(obs::Phase::kCrypto);
    return stream_xor(key, nonce, ciphertext);
  }

 private:
  /// The first 16 key bytes with `domain` folded into byte 0, so mac, prf
  /// and the keystream are separate PRFs under one key.
  static SipKey domain_key(const Key& key, std::uint8_t domain) {
    Key128 k;
    std::memcpy(k.data(), key.data(), k.size());
    k[0] ^= domain;
    return sip_key(k);
  }

  static Bytes stream_xor(const Key& key, std::uint64_t nonce,
                          ByteView data) {
    // SipHash-CTR keystream: block i = SipHash(key', nonce || i).
    const SipKey k = domain_key(key, 0x03);
    Bytes out(data.begin(), data.end());
    std::uint8_t block_input[16];
    store_be(block_input, nonce);
    std::uint64_t counter = 0;
    std::size_t offset = 0;
    while (offset < out.size()) {
      store_be(block_input + 8, counter);
      const std::uint64_t ks =
          siphash24(k, ByteView(block_input, sizeof(block_input)));
      const std::size_t n = std::min<std::size_t>(8, out.size() - offset);
      for (std::size_t i = 0; i < n; ++i) {
        out[offset + i] ^= static_cast<std::uint8_t>(ks >> (56 - 8 * i));
      }
      offset += n;
      ++counter;
    }
    return out;
  }
};

}  // namespace

std::unique_ptr<CryptoProvider> make_real_crypto() {
  return std::make_unique<RealCrypto>();
}

std::unique_ptr<CryptoProvider> make_fast_crypto() {
  return std::make_unique<FastCrypto>();
}

std::unique_ptr<CryptoProvider> make_crypto(CryptoKind kind) {
  return kind == CryptoKind::kReal ? make_real_crypto() : make_fast_crypto();
}

}  // namespace paai::crypto
