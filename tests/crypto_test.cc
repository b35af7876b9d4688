// Crypto substrate tests: official test vectors for SHA-256 (FIPS 180-4 /
// NIST CAVS), HMAC-SHA256 (RFC 4231), ChaCha20 (RFC 8439), and SipHash-2-4
// (reference vectors from the SipHash paper), the one-block SHA-256 paths,
// HMAC pad table and W-OTS lane batch against plain Sha256 references,
// plus behavioural tests for the provider seam, key store, and keyed
// samplers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "crypto/provider.h"
#include "crypto/sampler.h"
#include "crypto/sha256.h"
#include "crypto/sha256_blocks.h"
#include "crypto/siphash.h"
#include "util/bytes.h"
#include "util/wire.h"

namespace paai::crypto {
namespace {

std::string hex_digest(const Digest32& d) {
  return to_hex(ByteView(d.data(), d.size()));
}

Bytes pattern_bytes(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + 37 * i);
  }
  return b;
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_digest(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  const Bytes msg = bytes_of("abc");
  EXPECT_EQ(hex_digest(Sha256::digest(ByteView(msg.data(), msg.size()))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  const Bytes msg =
      bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(hex_digest(Sha256::digest(ByteView(msg.data(), msg.size()))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(ByteView(chunk.data(), chunk.size()));
  EXPECT_EQ(hex_digest(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Any split of the input into update() calls gives the one-shot digest:
// byte-at-a-time, partial buffer fills, multi-block runs in one call.
TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes msg(300);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const Digest32 want = Sha256::digest(ByteView(msg.data(), msg.size()));
  for (std::size_t chunk = 1; chunk <= 200; ++chunk) {
    Sha256 h;
    for (std::size_t at = 0; at < msg.size(); at += chunk) {
      h.update(ByteView(msg.data() + at, std::min(chunk, msg.size() - at)));
    }
    EXPECT_EQ(h.finish(), want) << "chunk " << chunk;
  }
}

// n x 'a' at the block boundary and the padding edges around it: 55 is
// the longest message that pads in one block, 56..63 push the length
// into a second block, and 119/120 are the same edge one block later.
// Digests from python3 hashlib.
TEST(Sha256, ExactBlockBoundary) {
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [n, hex] : cases) {
    const Bytes msg(n, 'a');
    EXPECT_EQ(hex_digest(Sha256::digest(ByteView(msg.data(), msg.size()))),
              hex)
        << n << " bytes";
  }
}

// The one-block finish on a midstate and the chain helper against the
// object path: every tail length up to 130 bytes after 0, 64 and 128
// absorbed bytes, and 0, 1 and 15 chain steps.
TEST(Sha256, FinishFromMatchesIncremental) {
  const Bytes msg = pattern_bytes(128 + 130, 11);
  for (const std::size_t absorbed : {0, 64, 128}) {
    Sha256 prefix;
    prefix.update(ByteView(msg.data(), absorbed));
    Sha256State midstate = Sha256::kInitialState;
    detail::sha256_blocks(midstate.data(), msg.data(), absorbed / 64);
    for (std::size_t n = 0; n <= 130; ++n) {
      Sha256 whole = prefix;
      whole.update(ByteView(msg.data() + absorbed, n));
      ASSERT_EQ(hex_digest(Sha256::finish_from(
                    midstate, absorbed, ByteView(msg.data() + absorbed, n))),
                hex_digest(whole.finish()))
          << absorbed << " absorbed, " << n << " more";
    }
  }
}

TEST(Sha256, IterateMatchesRepeatedDigest) {
  const Digest32 start = Sha256::digest(ByteView());
  for (const std::size_t steps : {0, 1, 15}) {
    Digest32 want = start;
    for (std::size_t s = 0; s < steps; ++s) {
      Sha256 h;
      h.update(ByteView(want.data(), want.size()));
      want = h.finish();
    }
    EXPECT_EQ(hex_digest(Sha256::iterate(start, steps)), hex_digest(want))
        << steps << " steps";
  }
}

// The SHA-extension block functions against the portable references on
// random chaining states: 1-4 random blocks, and the one-block digest.
TEST(Sha256Blocks, X86ShaMatchesPortable) {
#if defined(__x86_64__) || defined(__i386__)
  if (!detail::sha256_x86_sha_supported()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions; only the portable "
                    "block function runs here";
  }
  std::mt19937_64 rng(20081209);
  std::uint8_t data[4 * 64];
  for (int trial = 0; trial < 10000; ++trial) {
    std::uint32_t want[8];
    for (auto& word : want) word = static_cast<std::uint32_t>(rng());
    std::uint32_t got[8];
    std::memcpy(got, want, sizeof(got));
    const std::size_t nblocks = 1 + rng() % 4;
    for (std::size_t i = 0; i < nblocks * 64; ++i) {
      data[i] = static_cast<std::uint8_t>(rng());
    }
    std::uint8_t want_digest[32], got_digest[32];
    detail::sha256_block_digest_portable(want, data, want_digest);
    detail::sha256_block_digest_x86_sha(want, data, got_digest);
    ASSERT_EQ(0, std::memcmp(want_digest, got_digest, sizeof(got_digest)))
        << "trial " << trial << ", one-block digest";
    detail::sha256_blocks_portable(want, data, nblocks);
    detail::sha256_blocks_x86_sha(got, data, nblocks);
    ASSERT_EQ(0, std::memcmp(want, got, sizeof(got)))
        << "trial " << trial << ", " << nblocks << " blocks";
  }
#else
  GTEST_SKIP() << "not an x86 build; only the portable block function exists";
#endif
}

using LaneFn = void (*)(const std::uint32_t*, std::uint8_t*,
                        const std::uint8_t*, std::size_t);

/// Lane blocks plus one spare block past the last lane, which no call
/// may touch.
using LaneBlocks = std::array<std::uint8_t, (detail::kSha256Lanes + 1) * 64>;

// A lane function against Sha256::iterate (random 32-byte values, every
// step count 0..15 in every lane, 1..16 lanes: W-OTS's 67 = 4 x 16 + 3
// chains make partial batches) and against hmac_sha256 (W-OTS chain heads
// from a random seed's pads and index). Results land in place, in each
// block's first 32 bytes; the rest of each block and every block past
// the last lane stay as they were.
void expect_lanes_match_iterate_and_hmac(LaneFn lanes) {
  std::mt19937_64 rng(20081209);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + trial % detail::kSha256Lanes;
    LaneBlocks blocks;
    for (auto& b : blocks) b = static_cast<std::uint8_t>(rng());
    std::array<Digest32, detail::kSha256Lanes> start;
    std::uint8_t steps[detail::kSha256Lanes];
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(start[i].data(), blocks.data() + 64 * i, 32);
      detail::pad_last_block(blocks.data() + 64 * i, 32, 32);
      steps[i] = static_cast<std::uint8_t>((trial / 16 + i) % 16);
    }
    const LaneBlocks before = blocks;
    lanes(Sha256::kInitialState.data(), blocks.data(), steps, n);
    for (std::size_t i = 0; i < n; ++i) {
      const Digest32 want = Sha256::iterate(start[i], steps[i]);
      ASSERT_EQ(0, std::memcmp(blocks.data() + 64 * i, want.data(), 32))
          << "trial " << trial << ", lane " << i << " of " << n << ", "
          << int{steps[i]} << " steps";
    }
    for (std::size_t k = 0; k < blocks.size(); ++k) {
      if (k % 64 < 32 && k / 64 < n) continue;
      ASSERT_EQ(before[k], blocks[k]) << "trial " << trial << ", byte " << k;
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + trial % detail::kSha256Lanes;
    Key seed;
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng());
    const std::uint64_t index = rng();
    const detail::HmacPads pads =
        detail::hmac_pads(ByteView(seed.data(), seed.size()));
    LaneBlocks blocks{};
    std::uint8_t once[detail::kSha256Lanes];
    std::memset(once, 1, sizeof(once));
    for (std::size_t i = 0; i < n; ++i) {
      store_be(blocks.data() + 64 * i, index);
      blocks[64 * i + 8] = static_cast<std::uint8_t>(i);
      detail::pad_last_block(blocks.data() + 64 * i, 9, 64 + 9);
    }
    lanes(pads.inner.data(), blocks.data(), once, n);
    for (std::size_t i = 0; i < n; ++i) {
      detail::pad_last_block(blocks.data() + 64 * i, 32, 64 + 32);
    }
    lanes(pads.outer.data(), blocks.data(), once, n);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint8_t input[9];
      store_be(input, index);
      input[8] = static_cast<std::uint8_t>(i);
      const Digest32 want = hmac_sha256(ByteView(seed.data(), seed.size()),
                                        ByteView(input, sizeof(input)));
      ASSERT_EQ(0, std::memcmp(blocks.data() + 64 * i, want.data(), 32))
          << "trial " << trial << ", head " << i << " of " << n;
    }
  }
}

TEST(Sha256Lanes, ReferenceMatchesIterateAndHmac) {
  expect_lanes_match_iterate_and_hmac(&detail::sha256_lanes_reference);
}

// The AVX-512 body against the iterate/HMAC references, and against the
// reference body on random chaining states, random whole blocks and
// random step counts.
TEST(Sha256Lanes, Avx512MatchesReference) {
#if defined(__x86_64__) || defined(__i386__)
  if (!detail::sha256_x86_avx512_supported()) {
    GTEST_SKIP() << "CPU lacks AVX-512F; only the reference lane body "
                    "runs here";
  }
  expect_lanes_match_iterate_and_hmac(&detail::sha256_lanes_avx512);
  std::mt19937_64 rng(20260101);
  for (int trial = 0; trial < 2000; ++trial) {
    std::uint32_t state[8];
    for (auto& word : state) word = static_cast<std::uint32_t>(rng());
    const std::size_t n = 1 + rng() % detail::kSha256Lanes;
    std::uint8_t steps[detail::kSha256Lanes];
    for (auto& s : steps) s = static_cast<std::uint8_t>(rng() % 16);
    LaneBlocks want;
    for (auto& b : want) b = static_cast<std::uint8_t>(rng());
    LaneBlocks got = want;
    detail::sha256_lanes_reference(state, want.data(), steps, n);
    detail::sha256_lanes_avx512(state, got.data(), steps, n);
    ASSERT_EQ(want, got) << "trial " << trial << ", " << n << " lanes";
  }
#else
  GTEST_SKIP() << "not an x86 build; only the reference lane body exists";
#endif
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes msg = bytes_of("Hi There");
  const Digest32 tag = hmac_sha256(ByteView(key.data(), key.size()),
                                   ByteView(msg.data(), msg.size()));
  EXPECT_EQ(hex_digest(tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(Hmac, Rfc4231Case2) {
  const Bytes key = bytes_of("Jefe");
  const Bytes msg = bytes_of("what do ya want for nothing?");
  const Digest32 tag = hmac_sha256(ByteView(key.data(), key.size()),
                                   ByteView(msg.data(), msg.size()));
  EXPECT_EQ(hex_digest(tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3 (0xaa key, 0xdd data).
TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  const Digest32 tag = hmac_sha256(ByteView(key.data(), key.size()),
                                   ByteView(msg.data(), msg.size()));
  EXPECT_EQ(hex_digest(tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(Hmac, Rfc4231LongKey) {
  const Bytes key(131, 0xaa);
  const Bytes msg = bytes_of("Test Using Larger Than Block-Size Key - Hash Key First");
  const Digest32 tag = hmac_sha256(ByteView(key.data(), key.size()),
                                   ByteView(msg.data(), msg.size()));
  EXPECT_EQ(hex_digest(tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

/// RFC 2104 HMAC written out on Sha256::update/finish only: no pad table,
/// no one-block finish.
Digest32 reference_hmac(ByteView key, ByteView message) {
  std::array<std::uint8_t, 64> k{};
  if (key.size() > k.size()) {
    Sha256 kh;
    kh.update(key);
    const Digest32 kd = kh.finish();
    std::copy(kd.begin(), kd.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::array<std::uint8_t, 64> ipad, opad;
  for (std::size_t i = 0; i < k.size(); ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  Sha256 inner;
  inner.update(ByteView(ipad.data(), ipad.size()));
  inner.update(message);
  const Digest32 id = inner.finish();
  Sha256 outer;
  outer.update(ByteView(opad.data(), opad.size()));
  outer.update(ByteView(id.data(), id.size()));
  return outer.finish();
}

// Key lengths around the 64-byte block (65 and 131 are hashed first)
// and every message length up to 130 bytes: the 55/56/64-byte padding
// edges of the one-block finish and of the Sha256 fallback.
TEST(Hmac, MatchesReferenceAtEveryLength) {
  const Bytes msg = pattern_bytes(130, 7);
  for (const std::size_t key_len : {0, 20, 32, 64, 65, 131}) {
    const Bytes key =
        pattern_bytes(key_len, static_cast<std::uint8_t>(key_len));
    const ByteView kv(key.data(), key.size());
    for (std::size_t n = 0; n <= msg.size(); ++n) {
      const ByteView mv(msg.data(), n);
      ASSERT_EQ(hex_digest(hmac_sha256(kv, mv)),
                hex_digest(reference_hmac(kv, mv)))
          << "key " << key_len << " B, message " << n << " B";
    }
  }
}

// 200 distinct keys, far more than the pad table's 32 ways, cycled
// twice in order and then revisited in a scrambled order: every lookup
// is an eviction, a hit or a set collision somewhere along the way, and
// each tag must still be the reference one. Keys that differ only in
// trailing zeros share a key block and must share a tag.
TEST(Hmac, PadTableEvictionAndCollisions) {
  constexpr std::size_t kKeys = 200;
  std::vector<Bytes> keys;
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys.push_back(pattern_bytes(32, static_cast<std::uint8_t>(i)));
    keys.back()[0] = static_cast<std::uint8_t>(i >> 8);
  }
  const Bytes msg = bytes_of("packet identifier and sequence");
  const ByteView mv(msg.data(), msg.size());
  std::vector<Digest32> want;
  for (const Bytes& k : keys) {
    want.push_back(reference_hmac(ByteView(k.data(), k.size()), mv));
  }
  auto check = [&](std::size_t i) {
    const Bytes& k = keys[i];
    ASSERT_EQ(hmac_sha256(ByteView(k.data(), k.size()), mv), want[i])
        << "key " << i;
  };
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < kKeys; ++i) check(i);
  }
  for (std::size_t i = 0; i < kKeys; ++i) check((i * 73) % kKeys);
  for (std::size_t i = 0; i < 8; ++i) {  // a few hot keys, back to back
    check(3);
    check(150);
  }

  const Bytes short_key = bytes_of("key");
  Bytes padded_key = short_key;
  padded_key.resize(40, 0);
  const ByteView sk(short_key.data(), short_key.size());
  const Digest32 a = hmac_sha256(sk, mv);
  EXPECT_EQ(a, hmac_sha256(ByteView(padded_key.data(), padded_key.size()), mv));
  EXPECT_EQ(a, reference_hmac(sk, mv));
}

// The pad table is per thread: four threads hashing shared and private
// keys in interleaved orders must each get the serial tags.
TEST(Hmac, ThreadsAgreeWithSerial) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 24;
  constexpr std::size_t kShared = 24;
  std::vector<Bytes> keys;  // kShared shared keys, then each thread's own
  for (std::size_t i = 0; i < kShared + kThreads * kPerThread; ++i) {
    keys.push_back(pattern_bytes(32, static_cast<std::uint8_t>(i)));
    keys.back()[31] = static_cast<std::uint8_t>(i >> 8);
  }
  const Bytes msg = bytes_of("H(m) || seq");
  const ByteView mv(msg.data(), msg.size());
  std::vector<Digest32> serial;
  for (const Bytes& k : keys) {
    serial.push_back(hmac_sha256(ByteView(k.data(), k.size()), mv));
  }

  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        for (std::size_t j = 0; j < kPerThread; ++j) {
          const std::size_t shared = (j * (t + 1) + round) % kShared;
          const std::size_t own = kShared + t * kPerThread + j;
          for (const std::size_t i : {shared, own}) {
            const Bytes& k = keys[i];
            if (hmac_sha256(ByteView(k.data(), k.size()), mv) != serial[i]) {
              ++mismatches[t];
            }
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

// RFC 8439 §2.3.2 block function test vector.
TEST(ChaCha20, Rfc8439BlockVector) {
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  Nonce96 nonce{0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const auto block = chacha20_block(key, nonce, 1);
  EXPECT_EQ(to_hex(ByteView(block.data(), 16)),
            "10f1e7e4d13b5915500fdd1fa32071c4");
  EXPECT_EQ(to_hex(ByteView(block.data() + 48, 16)),
            "b5129cd1de164eb9cbd083e8a2503c4e");
}

// RFC 8439 §2.4.2 encryption test vector.
TEST(ChaCha20, Rfc8439EncryptionVector) {
  Key256 key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  Nonce96 nonce{0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const Bytes plaintext = bytes_of(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  const Bytes ct =
      chacha20_xor(key, nonce, 1, ByteView(plaintext.data(), plaintext.size()));
  EXPECT_EQ(to_hex(ByteView(ct.data(), 16)), "6e2e359a2568f98041ba0728dd0d6981");
  // Round trip.
  const Bytes pt = chacha20_xor(key, nonce, 1, ByteView(ct.data(), ct.size()));
  EXPECT_EQ(pt, plaintext);
}

// SipHash-2-4 reference vectors (key 000102..0f, messages 00,01,02,...).
TEST(SipHash, ReferenceVectors) {
  Key128 key;
  for (int i = 0; i < 16; ++i) key[i] = static_cast<std::uint8_t>(i);
  const std::uint64_t expected[] = {
      0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
      0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
      0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL, 0x93f5f5799a932462ULL,
  };
  Bytes msg;
  for (int len = 0; len < 9; ++len) {
    EXPECT_EQ(siphash24(key, ByteView(msg.data(), msg.size())), expected[len])
        << "length " << len;
    msg.push_back(static_cast<std::uint8_t>(len));
  }
}

// Word loads must not assume alignment: the same reference vectors (the
// 8-, 15-, 16- and 63-byte entries of the SipHash paper's table) hashed
// from a buffer that starts at an odd address.
TEST(SipHash, ReferenceVectorsAtOddOffset) {
  Key128 key;
  for (int i = 0; i < 16; ++i) key[i] = static_cast<std::uint8_t>(i);
  std::uint8_t buf[1 + 64];
  for (int i = 0; i < 64; ++i) buf[1 + i] = static_cast<std::uint8_t>(i);
  const struct {
    std::size_t len;
    std::uint64_t tag;
  } cases[] = {{8, 0x93f5f5799a932462ULL},
               {15, 0xa129ca6149be45e5ULL},
               {16, 0x3f2acc7f57c29bdbULL},
               {63, 0x958a324ceb064572ULL}};
  for (const auto& c : cases) {
    EXPECT_EQ(siphash24(key, ByteView(buf + 1, c.len)), c.tag)
        << "length " << c.len;
  }
}

// FastCrypto's outputs are part of every fast-crypto verdict digest, so
// they are pinned bit for bit: key bytes 7i+3, message bytes 37i+11,
// nonce 0x0123456789abcdef.
TEST(Provider, FastCryptoGoldenVectors) {
  const struct {
    std::size_t len;
    const char* hash;
    const char* mac;
    std::uint64_t prf;
    const char* ciphertext;
  } vectors[] = {
      {0, "5b23f4db14ef1308c657c5cb05a411a2e1bb33e8d123c4bd5a5ccf687388450f",
       "0b6f170f9e45bcf3", 0xecb5578d2b0812f9ULL, ""},
      {7, "9d929caa4340a18189d4b89c89bbfc81f77a0b35a0b716806d31c6a4617395ce",
       "65e68ce7e37d1aa4", 0xb63109a783091a14ULL, "f62b56fdfa203e"},
      {8, "605321ebafe080c43b7cde167abdd76bcc30e7dd3500df8bcc9d6623f6456d10",
       "943c535c6fbc8544", 0x6c7c5dcc1f6cf171ULL, "f62b56fdfa203eed"},
      {16, "88ac321c389b3af0cf3541f58d4d78345c9a0249e0801ce42d3afa9f6f57d534",
       "d2176ec52d397eaa", 0x3788eac717ab0722ULL,
       "f62b56fdfa203eed1748a8919a8d8f13"},
      {19, "030c53a48bf7da65694941f915276186f9ed8083ebfe3d9c9069025630d07bf5",
       "42d27dd4415b683a", 0xe29f539c92e06552ULL,
       "f62b56fdfa203eed1748a8919a8d8f1383eea4"},
      {27, "72402840b858808137f79ec444845b25fdf7c81f506f08b615c6604768b191a0",
       "55036fcf487023ed", 0x6af4ab649faab54eULL,
       "f62b56fdfa203eed1748a8919a8d8f1383eea443ebd0eeef9fda94"},
      {64, "92a86da6daddcb8a9417071febcd1ca6101c1c6b5d29d7329d64b294b77aaa83",
       "0ca4c3d3a95e8646", 0x0f870d4c11530e0eULL,
       "f62b56fdfa203eed1748a8919a8d8f1383eea443ebd0eeef9fda94eadd92df1e"
       "56a6e7699a1a842eb1806efc9fb70a0deda0c6c4b2789a108e3f2eac33d42b01"},
  };
  const auto crypto = make_fast_crypto();
  Key key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i * 7 + 3);
  const std::uint64_t nonce = 0x0123456789abcdefULL;
  for (const auto& v : vectors) {
    Bytes msg(v.len);
    for (std::size_t i = 0; i < v.len; ++i) {
      msg[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    const ByteView m(msg.data(), msg.size());
    const auto digest = crypto->hash(m);
    const Mac tag = crypto->mac(key, m);
    const Bytes ct = crypto->encrypt(key, nonce, m);
    EXPECT_EQ(to_hex(ByteView(digest.data(), digest.size())), v.hash)
        << "length " << v.len;
    EXPECT_EQ(to_hex(ByteView(tag.data(), tag.size())), v.mac)
        << "length " << v.len;
    EXPECT_EQ(crypto->prf(key, m), v.prf) << "length " << v.len;
    EXPECT_EQ(to_hex(ByteView(ct.data(), ct.size())), v.ciphertext)
        << "length " << v.len;
    // A keystream cipher: decrypting the message bytes yields the same
    // bytes encrypting them does, and decrypting the ciphertext inverts.
    const Bytes dt = crypto->decrypt(key, nonce, m);
    EXPECT_EQ(to_hex(ByteView(dt.data(), dt.size())), v.ciphertext)
        << "length " << v.len;
    EXPECT_EQ(crypto->decrypt(key, nonce, ByteView(ct.data(), ct.size())),
              msg)
        << "length " << v.len;
  }
}

TEST(Provider, MacVerifyRoundTrip) {
  for (const auto kind : {CryptoKind::kReal, CryptoKind::kFast}) {
    const auto crypto = make_crypto(kind);
    const Key key = test_master_key(7);
    const Bytes msg = bytes_of("attack at dawn");
    const Mac tag = crypto->mac(key, ByteView(msg.data(), msg.size()));
    EXPECT_TRUE(crypto->verify_mac(key, ByteView(msg.data(), msg.size()), tag));
    Mac bad = tag;
    bad[0] ^= 1;
    EXPECT_FALSE(
        crypto->verify_mac(key, ByteView(msg.data(), msg.size()), bad));
    // Different key must not verify.
    const Key other = test_master_key(8);
    EXPECT_FALSE(
        crypto->verify_mac(other, ByteView(msg.data(), msg.size()), tag));
  }
}

TEST(Provider, EncryptDecryptRoundTrip) {
  for (const auto kind : {CryptoKind::kReal, CryptoKind::kFast}) {
    const auto crypto = make_crypto(kind);
    const Key key = test_master_key(11);
    for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 300u}) {
      Bytes pt(len);
      for (std::size_t i = 0; i < len; ++i) pt[i] = static_cast<std::uint8_t>(i);
      const Bytes ct = crypto->encrypt(key, 42, ByteView(pt.data(), pt.size()));
      EXPECT_EQ(ct.size(), pt.size());
      if (len > 2) {
        EXPECT_NE(ct, pt);
      }
      EXPECT_EQ(crypto->decrypt(key, 42, ByteView(ct.data(), ct.size())), pt);
      // Wrong nonce decrypts to garbage (not the plaintext) for len > 8.
      if (len > 8) {
        EXPECT_NE(crypto->decrypt(key, 43, ByteView(ct.data(), ct.size())), pt);
      }
    }
  }
}

TEST(KeyStore, DerivesDistinctPerNodeKeys) {
  const KeyStore ks(test_master_key(1), 6);
  for (std::size_t i = 1; i <= 6; ++i) {
    for (std::size_t j = i + 1; j <= 6; ++j) {
      EXPECT_NE(ks.node_key(i), ks.node_key(j));
    }
    EXPECT_NE(ks.node_key(i), ks.source_sampling_key());
    EXPECT_NE(ks.node_key(i), ks.fl_sampling_key(i));
  }
  EXPECT_EQ(ks.destination_key(), ks.node_key(6));
  EXPECT_THROW(ks.node_key(0), std::out_of_range);
  EXPECT_THROW(ks.node_key(7), std::out_of_range);
}

TEST(KeyStore, DeterministicAcrossInstances) {
  const KeyStore a(test_master_key(5), 4);
  const KeyStore b(test_master_key(5), 4);
  for (std::size_t i = 1; i <= 4; ++i) EXPECT_EQ(a.node_key(i), b.node_key(i));
  const KeyStore c(test_master_key(6), 4);
  EXPECT_NE(a.node_key(1), c.node_key(1));
}

TEST(SecureSampler, RateConcentratesAroundP) {
  const auto crypto = make_real_crypto();
  const Key key = test_master_key(3);
  const double p = 1.0 / 36.0;
  const SecureSampler sampler(*crypto, key, p);
  const int trials = 20000;
  int hits = 0;
  for (int i = 0; i < trials; ++i) {
    std::uint8_t id[16] = {};
    for (int b = 0; b < 4; ++b) id[b] = static_cast<std::uint8_t>(i >> (8 * b));
    if (sampler.sampled(ByteView(id, sizeof(id)))) ++hits;
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, p, 4.0 * std::sqrt(p * (1 - p) / trials));
}

TEST(SecureSampler, DegenerateProbabilities) {
  const auto crypto = make_fast_crypto();
  const Key key = test_master_key(3);
  const SecureSampler never(*crypto, key, 0.0);
  const SecureSampler always(*crypto, key, 1.0);
  const Bytes id = bytes_of("0123456789abcdef");
  EXPECT_FALSE(never.sampled(ByteView(id.data(), id.size())));
  EXPECT_TRUE(always.sampled(ByteView(id.data(), id.size())));
}

TEST(SelectionPredicate, DestinationAlwaysFires) {
  const auto crypto = make_fast_crypto();
  const KeyStore ks(test_master_key(2), 6);
  const Bytes challenge = bytes_of("challenge-xyz");
  EXPECT_TRUE(selection_predicate(*crypto, ks.node_key(6),
                                  ByteView(challenge.data(), challenge.size()),
                                  6, 6));
}

TEST(SelectionPredicate, SelectedNodeIsUniform) {
  const auto crypto = make_fast_crypto();
  const std::size_t d = 6;
  const KeyStore ks(test_master_key(9), d);
  std::vector<Key> keys(d + 1);
  for (std::size_t i = 1; i <= d; ++i) keys[i] = ks.node_key(i);

  std::vector<std::uint64_t> histogram(d, 0);
  const int trials = 60000;
  for (int t = 0; t < trials; ++t) {
    std::uint8_t challenge[8];
    for (int b = 0; b < 8; ++b) {
      challenge[b] = static_cast<std::uint8_t>(
          (static_cast<std::uint64_t>(t) * 2654435761u) >> (8 * b));
    }
    const std::size_t e =
        selected_node(*crypto, keys, ByteView(challenge, 8), d);
    ASSERT_GE(e, 1u);
    ASSERT_LE(e, d);
    ++histogram[e - 1];
  }
  // Chi-square with d-1 = 5 dof; 99.9% critical value ~20.5. Deterministic
  // inputs, so no flakiness.
  double stat = 0.0;
  const double expected = static_cast<double>(trials) / d;
  for (const auto c : histogram) {
    const double diff = static_cast<double>(c) - expected;
    stat += diff * diff / expected;
  }
  EXPECT_LT(stat, 20.5) << "selection not uniform";
}

TEST(DeriveKey, SeparatesLabelsAndIndices) {
  const Key master = test_master_key(1);
  const Bytes l1 = bytes_of("label-a");
  const Bytes l2 = bytes_of("label-b");
  const Key a = derive_key(master, ByteView(l1.data(), l1.size()), 0);
  const Key b = derive_key(master, ByteView(l2.data(), l2.size()), 0);
  const Key c = derive_key(master, ByteView(l1.data(), l1.size()), 1);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

// derive_key builds label || index on the stack: the tag is HMAC(master,
// label || big-endian index) up to the 60-byte label limit, and a longer
// label is refused.
TEST(DeriveKey, IsHmacOfLabelAndIndex) {
  const Key master = test_master_key(2);
  const ByteView mk(master.data(), master.size());
  for (const std::size_t len : {std::size_t{0}, std::size_t{13},
                                 kMaxKeyLabel}) {
    Bytes input = pattern_bytes(len, 3);
    const Key got = derive_key(master, ByteView(input.data(), len), 0x01020304);
    for (const std::uint8_t b : {1, 2, 3, 4}) input.push_back(b);
    const Digest32 want =
        reference_hmac(mk, ByteView(input.data(), input.size()));
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
        << len << "-byte label";
  }
  const Bytes too_long = pattern_bytes(kMaxKeyLabel + 1, 3);
  EXPECT_THROW(
      derive_key(master, ByteView(too_long.data(), too_long.size()), 0),
      std::invalid_argument);
}

}  // namespace
}  // namespace paai::crypto
