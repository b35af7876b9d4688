// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used as the collision-resistant hash h of the paper: packet identifiers
// H(m) are (truncated) SHA-256 digests, and HMAC-SHA256 provides the MAC and
// PRF the protocols rely on. Verified against NIST test vectors in
// tests/crypto_test.cc. The compression runs on the x86 SHA extensions
// when CPUID reports them and on the portable C++ function otherwise
// (crypto/sha256_blocks.h); both give the same digests.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace paai::crypto {

using Digest32 = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  /// Absorbs more input; may be called repeatedly. All whole blocks of
  /// the input go to the block function in one call.
  void update(ByteView data);

  /// Pads in place (at most two more compressions) and returns the
  /// digest. The object must not be reused afterwards without calling
  /// reset().
  Digest32 finish();

  void reset();

  /// One-shot convenience.
  static Digest32 digest(ByteView data);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace paai::crypto
