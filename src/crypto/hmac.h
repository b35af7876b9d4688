// HMAC-SHA256 (RFC 2104 / FIPS 198-1), built on our SHA-256.
//
// This is both the MAC ([m]_K in the paper) and — truncated — the keyed PRF
// used for secure sampling and the PAAI-2 selection predicate.
//
// Each key's inner and outer midstates (SHA-256 after the K ^ ipad and
// K ^ opad blocks) are computed once and kept in a ~4.3 KiB thread-local
// table in hmac.cc, looked up by the zero-padded key block; a miss
// recomputes them. A message of at most 55 bytes then costs two
// compressions instead of four. Tags are the RFC 2104 ones either way
// (tests/crypto_test.cc checks them against a plain Sha256 reference).
#pragma once

#include <array>
#include <cstdint>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace paai::crypto {

/// Full 32-byte HMAC-SHA256 tag.
Digest32 hmac_sha256(ByteView key, ByteView message);

/// First 8 bytes of the tag as a big-endian u64 — a PRF output usable for
/// sampling decisions.
std::uint64_t hmac_prf_u64(ByteView key, ByteView message);

namespace detail {

/// A key's inner and outer midstates: SHA-256's state after the one
/// block K ^ ipad, resp. K ^ opad (internal to src/crypto: W-OTS hashes
/// its chain heads from them in lanes).
struct HmacPads {
  Sha256State inner;
  Sha256State outer;
};

/// The key's pads from this thread's table, computed on a miss. The
/// reference holds until the next HMAC call on this thread.
const HmacPads& hmac_pads(ByteView key);

}  // namespace detail

}  // namespace paai::crypto
