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
//
// sha256_lanes() is the lane batch W-OTS hashes its chains with: up to 16
// independent one-block hashes from one common state. On x86 with
// AVX-512F it runs them in the 16 lanes of one vector, state transposed;
// elsewhere the reference function loops sha256_block_digest() per lane.
// It is picked once, from CPUID, like the block functions.
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

/// Pads a last block holding its `len` <= 55 message bytes in
/// block[0, len): 0x80, zeros up to byte 56, then the big-endian bit
/// length of the whole `total_bytes`-byte message.
void pad_last_block(std::uint8_t block[64], std::size_t len,
                    std::uint64_t total_bytes);

/// The most lanes one sha256_lanes() call takes.
constexpr std::size_t kSha256Lanes = 16;

/// Lane i < `lanes` (at most kSha256Lanes) compresses its 64-byte block
/// blocks[64i, 64i + 64) from `state`, steps[i] times over: each
/// compression's digest (big-endian) replaces the block's first 32 bytes,
/// and the next one compresses the block so changed. A padded 32-byte
/// message from the initial state is thus a W-OTS chain: the block's
/// first 32 bytes end as H applied steps[i] times. A lane with 0 steps
/// keeps its block; bytes 32..63 are never written.
void sha256_lanes_reference(const std::uint32_t state[8],
                            std::uint8_t* blocks, const std::uint8_t* steps,
                            std::size_t lanes);

#if defined(__x86_64__) || defined(__i386__)
/// Requires sha256_x86_avx512_supported().
void sha256_lanes_avx512(const std::uint32_t state[8], std::uint8_t* blocks,
                         const std::uint8_t* steps, std::size_t lanes);

/// True when CPUID reports AVX-512F (and the OS saves its registers).
bool sha256_x86_avx512_supported();
#endif

/// The block functions chosen for this CPU.
void sha256_blocks(std::uint32_t state[8], const std::uint8_t* data,
                   std::size_t nblocks);
void sha256_block_digest(const std::uint32_t state[8],
                         const std::uint8_t* block, std::uint8_t* out);
void sha256_lanes(const std::uint32_t state[8], std::uint8_t* blocks,
                  const std::uint8_t* steps, std::size_t lanes);

}  // namespace paai::crypto::detail
