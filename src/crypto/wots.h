// Winternitz one-time signatures (W-OTS) over SHA-256, from scratch.
//
// The paper's footnote 1 mentions "a fairly simple AAI protocol that
// employs asymmetric key cryptography" and dismisses it for its "high
// per-packet computation and communication overhead". We implement the
// cheapest practical hash-based signature so the signature-ack protocol
// (src/protocols/sigack.h) can *measure* that overhead instead of taking
// it on faith: with w = 16, one signature is 67 hash chains x 32 B =
// 2144 B — two orders of magnitude above an 8-byte MAC tag — and
// signing/verification cost hundreds of compression calls.
//
// Parameters: message digest 32 B -> 64 base-16 digits, plus a 3-digit
// checksum (sum of 15-digit complements <= 960 < 16^3). Keys are derived
// deterministically from a seed, so a node can use key index = packet
// sequence number and the verifier can reconstruct the expected public
// key (standing in for the Merkle-tree key registration a deployment
// would use — which would only add more overhead).
//
// The 67 chains are independent, so keygen, sign and verify hash them up
// to 16 at a time in the SHA-256 lane batch (crypto/sha256_blocks.h),
// chains with similar step counts together; keys and signatures are the
// bytes of hashing each chain on its own.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/provider.h"
#include "util/bytes.h"

namespace paai::crypto {

constexpr std::size_t kWotsChains = 67;   // 64 message + 3 checksum digits
constexpr std::size_t kWotsDepth = 15;    // w - 1 with w = 16
constexpr std::size_t kWotsSignatureSize = kWotsChains * 32;

using WotsPublicKey = std::array<std::uint8_t, 32>;

/// Derives the one-time public key for (seed, index).
WotsPublicKey wots_public_key(const Key& seed, std::uint64_t index);

/// Signs `message` with the one-time key (seed, index). Returns
/// kWotsSignatureSize bytes. Reusing an index breaks one-timeness —
/// callers bind index to the packet sequence number.
Bytes wots_sign(const Key& seed, std::uint64_t index, ByteView message);

/// Verifies a signature against the public key.
bool wots_verify(const WotsPublicKey& pk, ByteView message,
                 ByteView signature);

}  // namespace paai::crypto
