// SipHash-2-4 (Aumasson & Bernstein), implemented from scratch.
//
// Backs the `FastCrypto` provider: a keyed 64-bit PRF. On a 4-core
// x86-64 host with the SHA extensions, perfbench's crypto probes read its
// mac at 86-105 ns and prf at 42-50 ns against HMAC-SHA256's 222-285 and
// 174-228 ns (crypto.fast.* vs crypto.real.*, six traced runs): 2-5x,
// and the fast hash is slower than SHA-NI SHA-256. The Monte-Carlo
// benches that push millions of packets through PAAI-2 use it; the
// security-relevant tests always run against the real HMAC/ChaCha20
// provider (see crypto/provider.h).
//
// The kernel reads the message a little-endian word at a time (memcpy
// loads, so any alignment and either host byte order work) and can run
// several keys over one message in lockstep: siphash24_x4 interleaves four
// independent lanes so their rounds overlap in the pipeline.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace paai::crypto {

using Key128 = std::array<std::uint8_t, 16>;

/// A key as the two little-endian words the rounds consume.
struct SipKey {
  std::uint64_t k0 = 0;
  std::uint64_t k1 = 0;
};

SipKey sip_key(const Key128& key);

/// SipHash-2-4 64-bit tag.
std::uint64_t siphash24(const Key128& key, ByteView data);
std::uint64_t siphash24(const SipKey& key, ByteView data);

/// Four SipHash-2-4 tags of one message, one per key, computed in lockstep.
std::array<std::uint64_t, 4> siphash24_x4(const std::array<SipKey, 4>& keys,
                                          ByteView data);

}  // namespace paai::crypto
