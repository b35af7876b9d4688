// SHA-256 block functions (internal to src/crypto and its tests).
//
// Each function runs the FIPS 180-4 compression over `nblocks` consecutive
// 64-byte blocks, updating the eight-word chaining state in place. The
// portable function is plain C++ and the reference the tests compare
// against; on x86 a second function uses the SHA extensions (SHA-NI).
// sha256_blocks() is the one Sha256 calls: it picks the SHA-extension
// function once, from CPUID, when the CPU has it, and the portable one
// otherwise.
#pragma once

#include <cstddef>
#include <cstdint>

namespace paai::crypto::detail {

void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks);

#if defined(__x86_64__) || defined(__i386__)
/// Requires sha256_x86_sha_supported().
void sha256_blocks_x86_sha(std::uint32_t state[8], const std::uint8_t* data,
                           std::size_t nblocks);

/// True when CPUID reports the SHA extensions and SSE4.1.
bool sha256_x86_sha_supported();
#endif

/// The block function chosen for this CPU.
void sha256_blocks(std::uint32_t state[8], const std::uint8_t* data,
                   std::size_t nblocks);

}  // namespace paai::crypto::detail
