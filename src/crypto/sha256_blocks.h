// SHA-256 block functions (internal to src/crypto and its tests).
//
// Each function runs the FIPS 180-4 compression over `nblocks` consecutive
// 64-byte blocks, updating the eight-word chaining state in place. The
// portable function is plain C++ and the reference the tests compare
// against; on x86 a second function uses the SHA extensions (SHA-NI).
// sha256_blocks() is the one Sha256 calls: it picks the SHA-extension
// function once, from CPUID, when the CPU has it, and the portable one
// otherwise. sha256_block_digest() is the same compression for one last
// block, from a state it leaves alone, straight to the digest bytes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace paai::crypto::detail {

void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t* data,
                            std::size_t nblocks);

/// One block compressed from `state` (not modified); the eight result
/// words go big-endian to out[0, 32), which may alias the block.
void sha256_block_digest_portable(const std::uint32_t state[8],
                                  const std::uint8_t* block,
                                  std::uint8_t* out);

#if defined(__x86_64__) || defined(__i386__)
/// Requires sha256_x86_sha_supported().
void sha256_blocks_x86_sha(std::uint32_t state[8], const std::uint8_t* data,
                           std::size_t nblocks);
void sha256_block_digest_x86_sha(const std::uint32_t state[8],
                                 const std::uint8_t* block,
                                 std::uint8_t* out);

/// True when CPUID reports the SHA extensions and SSE4.1.
bool sha256_x86_sha_supported();
#endif

/// The block functions chosen for this CPU.
void sha256_blocks(std::uint32_t state[8], const std::uint8_t* data,
                   std::size_t nblocks);
void sha256_block_digest(const std::uint32_t state[8],
                         const std::uint8_t* block, std::uint8_t* out);

}  // namespace paai::crypto::detail
