// Allocation budgets for the simulator hot path: steady-state event
// scheduling makes no heap allocation, a fast-crypto §8.1 reference run
// stays within a per-packet allocation budget for each Fig. 2 protocol,
// and the real primitives and W-OTS allocate nothing but a signature.
//
// Counts come from a replaced global operator new (the same technique as
// stream_test), switched on only around the measured calls.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "crypto/provider.h"
#include "crypto/wots.h"
#include "protocols/context.h"
#include "runner/experiment.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free() with a
// library-side new and warn about a mismatch that cannot happen here.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace paai {
namespace {

/// Heap allocations made by `fn`.
template <typename Fn>
std::uint64_t count_allocs(Fn&& fn) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  fn();
  g_count_allocs.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

TEST(AllocBudget, SteadyStateEventsAreHeapFree) {
  constexpr int kRounds = 100;
  constexpr int kEventsPerRound = 1000;
  sim::Simulator simulator;
  const sim::PacketEnv env{sim::Wire(Bytes(19, 1)), 19,
                           sim::Direction::kToDest};
  std::uint64_t delivered = 0;
  // One round of events: a link delivery's capture shape (PacketEnv plus
  // a pointer) at spread-out delays, so the heap reorders them.
  auto round = [&] {
    for (int i = 0; i < kEventsPerRound; ++i) {
      auto deliver = [&delivered, env] { delivered += env.wire_size; };
      static_assert(sizeof(deliver) ==
                    sizeof(sim::PacketEnv) + sizeof(void*));
      static_assert(sizeof(deliver) <= sim::kEventSlotBytes);
      simulator.after((i * 7919) % 1000, deliver);
    }
    simulator.run();
  };
  round();  // warm-up: the slab and the key heap reach their high-water

  const std::uint64_t allocs = count_allocs([&] {
    for (int r = 0; r < kRounds; ++r) round();
  });
  std::printf("[alloc] %d events: %llu allocations\n",
              kRounds * kEventsPerRound,
              static_cast<unsigned long long>(allocs));
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(delivered, 19u * (kRounds + 1) * kEventsPerRound);
  EXPECT_EQ(simulator.events_processed(),
            static_cast<std::uint64_t>((kRounds + 1) * kEventsPerRound));
}

/// Allocations per data packet over one fast-crypto reference run,
/// setup and teardown included.
double allocs_per_packet(protocols::ProtocolKind kind) {
  constexpr std::uint64_t kPackets = 5000;
  runner::ExperimentConfig cfg = runner::paper_config(kind, kPackets, 1);
  cfg.crypto = crypto::CryptoKind::kFast;
  runner::ExperimentResult result;
  const std::uint64_t allocs =
      count_allocs([&] { result = runner::run_experiment(cfg); });
  EXPECT_EQ(result.packets_sent, kPackets);
  const double per_packet =
      static_cast<double>(allocs) / static_cast<double>(kPackets);
  std::printf("[alloc] %s: %llu allocations, %.2f per packet\n",
              protocols::protocol_name(kind),
              static_cast<unsigned long long>(allocs), per_packet);
  return per_packet;
}

TEST(AllocBudget, FullAckReferenceRun) {
  EXPECT_LE(allocs_per_packet(protocols::ProtocolKind::kFullAck), 4.0);
}

TEST(AllocBudget, Paai1ReferenceRun) {
  EXPECT_LE(allocs_per_packet(protocols::ProtocolKind::kPaai1), 1.0);
}

TEST(AllocBudget, Paai2ReferenceRun) {
  EXPECT_LE(allocs_per_packet(protocols::ProtocolKind::kPaai2), 3.5);
}

// Once a key's HMAC pads are in this thread's table (one warm-up call),
// real mac/prf/hash and W-OTS keygen and verify make no heap allocation;
// signing makes exactly one, the returned signature.
TEST(AllocBudget, RealCryptoAndWotsAreHeapFree) {
  const crypto::Key key = crypto::test_master_key(7);
  const auto real = crypto::make_real_crypto();
  std::array<std::uint8_t, 40> msg{};
  msg.fill(0x5a);
  const ByteView mv(msg.data(), msg.size());
  const crypto::WotsPublicKey pk = crypto::wots_public_key(key, 0);
  const Bytes sig = crypto::wots_sign(key, 0, mv);
  real->mac(key, mv);

  bool verified = false;
  const std::uint64_t keygen =
      count_allocs([&] { crypto::wots_public_key(key, 1); });
  const std::uint64_t verify =
      count_allocs([&] { verified = crypto::wots_verify(pk, mv, sig); });
  Bytes sig1;
  const std::uint64_t sign =
      count_allocs([&] { sig1 = crypto::wots_sign(key, 1, mv); });
  const std::uint64_t primitives = count_allocs([&] {
    real->mac(key, mv);
    real->prf(key, mv);
    real->hash(mv);
  });
  std::printf("[alloc] wots keygen %llu, verify %llu, sign %llu; "
              "real mac+prf+hash %llu\n",
              static_cast<unsigned long long>(keygen),
              static_cast<unsigned long long>(verify),
              static_cast<unsigned long long>(sign),
              static_cast<unsigned long long>(primitives));
  EXPECT_TRUE(verified);
  EXPECT_EQ(sig1.size(), crypto::kWotsSignatureSize);
  EXPECT_EQ(keygen, 0u);
  EXPECT_EQ(verify, 0u);
  EXPECT_EQ(sign, 1u);
  EXPECT_EQ(primitives, 0u);
}

}  // namespace
}  // namespace paai
