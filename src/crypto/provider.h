// CryptoProvider: the seam between the protocol logic and the primitives.
//
// The paper's protocols need four operations: a collision-resistant hash h
// (packet identifiers), a MAC [m]_K (onion reports), a keyed PRF (secure
// sampling / selection predicates / challenges), and symmetric encryption
// E_K (PAAI-2's layered report re-encryption).
//
// Two implementations:
//   * RealCrypto — SHA-256 / HMAC-SHA256 / ChaCha20. Used by default, by all
//     examples, and by every security test.
//   * FastCrypto — SipHash-2-4 based. Identical interface and statistical
//     behaviour (it is still a keyed PRF family); selected by the
//     multi-million-packet Monte-Carlo benches. NOT cryptographically
//     collision resistant — never use it outside simulation studies.
//
// The speed gap is small on a CPU with the SHA extensions: per simulated
// packet a real run costs ~1.1-1.25x a fast one (PAAI-1, PAAI-2 and
// full-ack; medians and minima of 15 alternated 4 000-packet runs per
// provider on a 4-core x86-64 host, the runs perfbench's
// runner.*.us_per_packet rows time once each). Per call, fast mac/prf
// are 2-5x cheaper and the fast hash is dearer than SHA-256.
//
// MAC tags are truncated to 8 bytes, matching what an actual deployment on
// resource-constrained networks (the paper's motivating setting) would use.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "util/bytes.h"

namespace paai::crypto {

/// Symmetric key shared between the source and one node.
using Key = std::array<std::uint8_t, 32>;

/// Truncated MAC tag. 64-bit tags are standard for in-network
/// authentication (e.g. TESLA, SPINS) and keep onion reports compact.
using Mac = std::array<std::uint8_t, 8>;

constexpr std::size_t kMacSize = 8;

class CryptoProvider {
 public:
  virtual ~CryptoProvider() = default;

  /// Collision-resistant hash h(.) — 32-byte digest.
  virtual std::array<std::uint8_t, 32> hash(ByteView message) const = 0;

  /// MAC [message]_key, truncated to kMacSize bytes.
  virtual Mac mac(const Key& key, ByteView message) const = 0;

  /// Keyed PRF mapping message -> uniform u64.
  virtual std::uint64_t prf(const Key& key, ByteView message) const = 0;

  /// Symmetric encryption E_K. `nonce` must be unique per (key, plaintext);
  /// protocols derive it from the packet identifier. Ciphertext length ==
  /// plaintext length (constant-size acks are part of PAAI-2's design).
  virtual Bytes encrypt(const Key& key, std::uint64_t nonce,
                        ByteView plaintext) const = 0;
  virtual Bytes decrypt(const Key& key, std::uint64_t nonce,
                        ByteView ciphertext) const = 0;

  /// Verifies a truncated MAC in constant time.
  bool verify_mac(const Key& key, ByteView message, const Mac& tag) const;
};

/// SHA-256 / HMAC-SHA256 / ChaCha20 provider.
std::unique_ptr<CryptoProvider> make_real_crypto();

/// SipHash-2-4-based provider for large-scale simulation only.
std::unique_ptr<CryptoProvider> make_fast_crypto();

enum class CryptoKind { kReal, kFast };

std::unique_ptr<CryptoProvider> make_crypto(CryptoKind kind);

}  // namespace paai::crypto
