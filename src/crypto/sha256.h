// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used as the collision-resistant hash h of the paper: packet identifiers
// H(m) are (truncated) SHA-256 digests, and HMAC-SHA256 provides the MAC and
// PRF the protocols rely on. Verified against NIST test vectors in
// tests/crypto_test.cc. The compression runs on the x86 SHA extensions
// when CPUID reports them and on the portable C++ function otherwise
// (crypto/sha256_blocks.h); both give the same digests. W-OTS
// (crypto/wots.cc) hashes its chains through the same header's lane
// batch: 16 one-block compressions per AVX-512F vector when CPUID
// reports it, one lane at a time on the block function otherwise; every
// chain value is the one iterate() gives.
//
// The short-message paths — digest() of at most 55 bytes, finish_from() on
// a midstate (HMAC's keyed pads, crypto/hmac.cc) and iterate() (W-OTS
// chains) — pad one block on the stack and compress it straight to the
// digest bytes (detail::sha256_block_digest), with no Sha256 object; their
// digests are the ones update()/finish() give.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace paai::crypto {

using Digest32 = std::array<std::uint8_t, 32>;

/// The eight chaining words after some whole 64-byte blocks.
using Sha256State = std::array<std::uint32_t, 8>;

class Sha256 {
 public:
  /// The FIPS 180-4 initial state.
  static constexpr Sha256State kInitialState = {
      0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

  Sha256();

  /// Resumes a hash whose first `absorbed` bytes (a multiple of 64) are
  /// already compressed into `midstate`.
  Sha256(const Sha256State& midstate, std::uint64_t absorbed);

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

  /// The digest of a message whose first `absorbed` bytes (a multiple of
  /// 64) are compressed into `midstate` and whose remaining bytes are
  /// `rest`. A `rest` of at most 55 bytes (so that 0x80 and the 8-byte
  /// length still fit) is one padded stack block and one compression.
  static Digest32 finish_from(const Sha256State& midstate,
                              std::uint64_t absorbed, ByteView rest);

  /// H applied `steps` times to a 32-byte value (a W-OTS chain). The
  /// block is padded once; each step compresses it in place.
  static Digest32 iterate(const Digest32& value, std::size_t steps);

 private:
  Sha256State state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace paai::crypto
