// Simulator-core tests: event ordering and determinism, the event slab's
// capture lifetime and size bound, link loss and latency behaviour, path
// construction, RTT-bound nesting (the property the protocol wait-timer
// cascade relies on), storage metering, traffic accounting, and the pooled
// Wire buffer (reference counts, id reset on reuse, cross-thread release).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sim/link.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "sim/storage.h"
#include "sim/trace.h"
#include "sim/wire.h"

namespace paai::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, TieBreakIsSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedSchedulingFromHandlers) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.at(10, [&] {
    times.push_back(sim.now());
    sim.after(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  SimTime fired = -1;
  sim.at(100, [&] {
    sim.at(50, [&] { fired = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_EQ(fired, 100);
}

TEST(Simulator, RunUntilStopsBeforeBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(20, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 20);
  sim.run();
  EXPECT_EQ(fired, 2);
}

// A handler that schedules far more events than the slab holds must still
// read its own capture afterwards: new chunks never move its slot (ASan
// reports a use-after-free if they did).
TEST(Simulator, HandlerCaptureSurvivesItsOwnScheduling) {
  Simulator sim;
  int fired = 0;
  std::uint64_t seen = 0;
  const std::array<std::uint64_t, 3> words = {11, 22, 33};
  auto handler = [&sim, &fired, &seen, w0 = words[0], w1 = words[1],
                  w2 = words[2]] {
    for (int i = 0; i < 10000; ++i) {
      sim.after(i % 97, [&fired] { ++fired; });
    }
    seen = w0 + w1 + w2;
  };
  static_assert(sizeof(handler) == 48);
  sim.at(10, handler);
  sim.run();
  EXPECT_EQ(seen, 66u);
  EXPECT_EQ(fired, 10000);
  EXPECT_EQ(sim.events_processed(), 10001u);
}

TEST(Simulator, DestructionReleasesPendingCaptures) {
  auto token = std::make_shared<int>(7);
  {
    Simulator sim;
    for (int i = 0; i < 100; ++i) sim.at(i, [token] { (void)*token; });
    sim.run_until(50);  // dispatches (and releases) times 0..49
    EXPECT_EQ(token.use_count(), 51);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, ThrowingHandlerReleasesItsCapture) {
  auto token = std::make_shared<int>(7);
  Simulator sim;
  sim.at(1, [token] { throw std::runtime_error("handler failed"); });
  sim.at(2, [] {});
  EXPECT_THROW(sim.step(), std::runtime_error);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(sim.step());  // the queue is intact
  EXPECT_TRUE(sim.empty());
}

// The capture bound is a compile-time property: a callable larger than a
// slot, or over-aligned for one, cannot be scheduled at all.
struct FitsSlot {
  std::array<std::uint8_t, kEventSlotBytes> bytes;
  void operator()() const {}
};
struct OversizedCapture {
  std::array<std::uint8_t, kEventSlotBytes + 1> bytes;
  void operator()() const {}
};
struct alignas(2 * alignof(std::max_align_t)) OveralignedCapture {
  void operator()() const {}
};
template <typename F>
concept Schedulable = requires(Simulator& s, F f) { s.after(0, f); };
static_assert(InlineEvent<FitsSlot> && Schedulable<FitsSlot>);
static_assert(!InlineEvent<OversizedCapture> &&
              !Schedulable<OversizedCapture>);
static_assert(!InlineEvent<OveralignedCapture> &&
              !Schedulable<OveralignedCapture>);

TEST(StorageMeter, TracksCurrentAndPeak) {
  StorageMeter m;
  m.add(3);
  m.add();
  EXPECT_EQ(m.current(), 4u);
  EXPECT_EQ(m.peak(), 4u);
  m.remove(2);
  EXPECT_EQ(m.current(), 2u);
  EXPECT_EQ(m.peak(), 4u);
  m.remove(10);  // saturates at zero
  EXPECT_EQ(m.current(), 0u);
}

TEST(TrafficCounters, AggregatesByTypeAndOverhead) {
  TrafficCounters c(3);
  c.on_transmit(net::PacketType::kData, 1000, 0);
  c.on_transmit(net::PacketType::kData, 1000, 1);
  c.on_transmit(net::PacketType::kDestAck, 25, 1);
  c.on_transmit(net::PacketType::kProbe, 25, 2);
  c.on_link_drop(1, net::PacketType::kData);
  EXPECT_EQ(c.by_type(net::PacketType::kData).packets, 2u);
  EXPECT_EQ(c.by_type(net::PacketType::kDestAck).bytes, 25u);
  EXPECT_DOUBLE_EQ(c.overhead_ratio(), 50.0 / 2000.0);
  EXPECT_DOUBLE_EQ(c.control_packets_per_data(), 1.0);
  EXPECT_EQ(c.drops_on_link(1), 1u);
  EXPECT_EQ(c.drops_on_link(0), 0u);
  EXPECT_EQ(c.data_tx(1), 1u);
  EXPECT_EQ(c.data_drops(1), 1u);
  EXPECT_DOUBLE_EQ(c.true_link_loss(1), 1.0);
  EXPECT_DOUBLE_EQ(c.true_link_loss(0), 0.0);
  EXPECT_EQ(c.total_packets(), 4u);
  c.reset();
  EXPECT_EQ(c.total_packets(), 0u);
  EXPECT_EQ(c.data_tx(1), 0u);
}

class CountingAgent final : public Agent {
 public:
  void on_packet(const PacketEnv& env) override {
    ++received;
    last_size = env.wire_size;
  }
  int received = 0;
  std::size_t last_size = 0;
};

PacketEnv make_env(Direction dir) {
  net::DataPacket pkt{1, 2, 100};
  return PacketEnv{Wire::of(pkt), pkt.wire_size(), dir};
}

TEST(Link, DeliversAfterLatencyWithoutLoss) {
  Simulator sim;
  TrafficCounters counters(1);
  Node a(sim, 0), b(sim, 1);
  Link link(sim, 0, /*loss=*/0.0, milliseconds(3.0), Rng(1), &counters);
  link.connect(&a, &b);
  a.set_link_toward_dest(&link);
  b.set_link_toward_source(&link);
  auto agent = std::make_unique<CountingAgent>();
  CountingAgent* bp = agent.get();
  b.attach_agent(std::move(agent));

  a.originate(Direction::kToDest, make_env(Direction::kToDest).wire, 119);
  sim.run();
  EXPECT_EQ(bp->received, 1);
  EXPECT_EQ(bp->last_size, 119u);
  EXPECT_EQ(sim.now(), milliseconds(3.0));
  EXPECT_EQ(counters.by_type(net::PacketType::kData).packets, 1u);
}

TEST(Link, EmpiricalLossRateMatchesConfig) {
  Simulator sim;
  TrafficCounters counters(1);
  Node a(sim, 0), b(sim, 1);
  Link link(sim, 0, /*loss=*/0.1, 0, Rng(99), &counters);
  link.connect(&a, &b);
  auto agent = std::make_unique<CountingAgent>();
  CountingAgent* bp = agent.get();
  b.attach_agent(std::move(agent));

  const int n = 20000;
  const auto env = make_env(Direction::kToDest);
  for (int i = 0; i < n; ++i) link.transmit(env);
  sim.run();
  const double delivered = static_cast<double>(bp->received) / n;
  EXPECT_NEAR(delivered, 0.9, 0.01);
  EXPECT_EQ(counters.drops_on_link(0) + bp->received,
            static_cast<std::uint64_t>(n));
}

TEST(Link, UntypedWireDropIsNotADataDrop) {
  Simulator sim;
  TrafficCounters counters(1);
  Node a(sim, 0), b(sim, 1);
  Link link(sim, 0, /*loss=*/1.0, 0, Rng(5), &counters);
  link.connect(&a, &b);
  const PacketEnv env{Wire(Bytes{0xFF, 1, 2}), 3, Direction::kToDest};
  for (int i = 0; i < 10; ++i) link.transmit(env);
  sim.run();
  EXPECT_EQ(counters.data_tx(0), 0u);
  EXPECT_EQ(counters.data_drops(0), 0u);
  EXPECT_EQ(counters.drops_on_link(0), 10u);  // still a drop on the link
  EXPECT_EQ(counters.total_packets(), 0u);
}

TEST(Wire, CopiesCountReferencesAndMovesAreFree) {
  Wire a(Bytes{1, 2, 3});
  EXPECT_EQ(a.use_count(), 1u);
  {
    Wire b = a;
    EXPECT_EQ(a.use_count(), 2u);
    EXPECT_EQ(b.view().data(), a.view().data());  // one buffer, not a copy
    Wire c = std::move(b);
    EXPECT_EQ(c.use_count(), 2u);  // the move took b's reference over
    Wire d;
    d = c;
    EXPECT_EQ(a.use_count(), 3u);
    d = Wire();
    EXPECT_EQ(a.use_count(), 2u);
    Wire e;
    e = std::move(c);
    EXPECT_EQ(a.use_count(), 2u);
  }
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_TRUE(std::ranges::equal(a.view(), Bytes{1, 2, 3}));

  const Wire empty;
  EXPECT_EQ(empty.use_count(), 0u);
  EXPECT_TRUE(empty.view().empty());
  EXPECT_EQ(empty.id(), nullptr);
}

TEST(Wire, RecycledBufferNeverCarriesThePreviousId) {
  net::PacketId id{};
  id[0] = 0xAB;
  const std::uint8_t* first = nullptr;
  {
    Wire w = Wire::of(net::DataPacket{1, 2, 100});
    EXPECT_EQ(w.id(), nullptr);
    w.set_id(id);
    ASSERT_NE(w.id(), nullptr);
    EXPECT_EQ(*w.id(), id);
    const Wire copy = w;  // every holder reads the same id
    ASSERT_NE(copy.id(), nullptr);
    EXPECT_EQ(*copy.id(), id);
    first = w.view().data();
  }
  // The free list is LIFO: the next wire reuses the buffer just released,
  // bytes capacity included, and it starts without an id.
  const net::DataPacket next{2, 3, 100};
  const Wire w = Wire::of(next);
  EXPECT_EQ(w.view().data(), first);
  EXPECT_EQ(w.id(), nullptr);
  EXPECT_TRUE(std::ranges::equal(w.view(), next.encode()));
}

TEST(Wire, SharedPtrConstructorCopiesTheBytes) {
  const auto bytes = std::make_shared<const Bytes>(Bytes{7, 8, 9});
  const Wire w = bytes;  // implicit, like PacketEnv{shared_ptr, size, dir}
  EXPECT_NE(w.view().data(), bytes->data());
  EXPECT_TRUE(std::ranges::equal(w.view(), *bytes));
  EXPECT_EQ(w.id(), nullptr);
  EXPECT_EQ(bytes.use_count(), 1);  // nothing shares the source buffer
  const Wire none = std::shared_ptr<const Bytes>();
  EXPECT_EQ(none.use_count(), 0u);
}

TEST(Wire, BuiltOnOneThreadReleasedOnAnotherAfterJoin) {
  net::PacketId id{};
  id[3] = 0x5A;
  Wire handed;
  std::thread producer([&] {
    Wire w = Wire::of(net::DataPacket{4, 5, 100});
    w.set_id(id);
    handed = w;
    // Outlives this thread's pool: released after it, so deleted directly.
    thread_local Wire late;
    late = Wire(Bytes{1});
  });
  producer.join();
  ASSERT_EQ(handed.use_count(), 1u);
  ASSERT_NE(handed.id(), nullptr);
  EXPECT_EQ(*handed.id(), id);

  std::thread consumer([w = std::move(handed)]() mutable {
    const Wire copy = w;
    EXPECT_EQ(copy.use_count(), 2u);
    w = Wire();
    EXPECT_EQ(copy.use_count(), 1u);
    EXPECT_EQ(net::DataPacket::decode(copy.view())->seq, 4u);
  });
  consumer.join();
}

TEST(PathNetwork, BuildsChainAndValidates) {
  Simulator sim;
  PathConfig cfg;
  cfg.length = 6;
  cfg.seed = 3;
  PathNetwork net(sim, cfg);
  EXPECT_EQ(net.length(), 6u);
  EXPECT_EQ(net.source().index(), 0u);
  EXPECT_EQ(net.destination().index(), 6u);
  EXPECT_EQ(net.node(3).link_toward_dest(), &net.link(3));
  EXPECT_EQ(net.node(3).link_toward_source(), &net.link(2));
  EXPECT_EQ(net.source().link_toward_source(), nullptr);
  EXPECT_EQ(net.destination().link_toward_dest(), nullptr);

  PathConfig bad;
  bad.length = 1;
  EXPECT_THROW(PathNetwork(sim, bad), std::invalid_argument);
}

TEST(PathNetwork, LatenciesWithinConfiguredRange) {
  Simulator sim;
  PathConfig cfg;
  cfg.length = 6;
  cfg.min_latency_ms = 0.0;
  cfg.max_latency_ms = 5.0;
  cfg.seed = 11;
  PathNetwork net(sim, cfg);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_GE(net.link(i).latency(), 0);
    EXPECT_LE(net.link(i).latency(), milliseconds(5.0));
  }
}

TEST(PathNetwork, RttBoundsNestStrictly) {
  // r_i > r_{i+1} + 2 * latency(l_i): the wait-timer cascade property —
  // a downstream node's timed-out report always beats its upstream
  // neighbour's own deadline.
  Simulator sim;
  PathConfig cfg;
  cfg.length = 8;
  cfg.seed = 17;
  PathNetwork net(sim, cfg);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_GT(net.rtt_bound(i),
              net.rtt_bound(i + 1) + 2 * net.link(i).latency())
        << "at node " << i;
  }
  EXPECT_EQ(net.rtt_bound(8), 0);
  EXPECT_THROW(net.rtt_bound(9), std::out_of_range);
}

TEST(PathNetwork, ClockOffsetsWithinSyncBound) {
  Simulator sim;
  PathConfig cfg;
  cfg.length = 6;
  cfg.max_clock_error_ms = 2.0;
  cfg.seed = 23;
  PathNetwork net(sim, cfg);
  for (std::size_t i = 0; i <= 6; ++i) {
    const SimTime local = net.node(i).local_now();
    EXPECT_LE(std::abs(local - sim.now()), milliseconds(2.0));
  }
}

TEST(PathNetwork, DeterministicForSeed) {
  Simulator s1, s2;
  PathConfig cfg;
  cfg.length = 6;
  cfg.seed = 5;
  PathNetwork a(s1, cfg), b(s2, cfg);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(a.link(i).latency(), b.link(i).latency());
  }
}

TEST(TrafficCounters, RatiosAreZeroWithoutDataTraffic) {
  // Pure control traffic: the per-data ratios must not divide by zero.
  TrafficCounters c(4);
  c.on_transmit(net::PacketType::kProbe, 40, 0);
  c.on_transmit(net::PacketType::kDestAck, 24, 3);
  EXPECT_EQ(c.overhead_ratio(), 0.0);
  EXPECT_EQ(c.control_packets_per_data(), 0.0);
  EXPECT_EQ(c.total_packets(), 2u);
  EXPECT_EQ(c.total_bytes(), 64u);
}

TEST(TrafficCounters, TrueLinkLossOnUntraversedLinkIsZero) {
  TrafficCounters c(4);
  // No data packet ever entered link 2 — loss is 0/0, reported as 0, and
  // out-of-range indices behave the same instead of reading past the end.
  EXPECT_EQ(c.true_link_loss(2), 0.0);
  EXPECT_EQ(c.true_link_loss(99), 0.0);
  EXPECT_EQ(c.data_tx(99), 0u);
  EXPECT_EQ(c.data_drops(99), 0u);
  EXPECT_EQ(c.drops_on_link(99), 0u);
  // One traversal, one drop: loss is exact, neighbours stay untouched.
  c.on_transmit(net::PacketType::kData, 1500, 1);
  c.on_link_drop(1, net::PacketType::kData);
  EXPECT_EQ(c.true_link_loss(1), 1.0);
  EXPECT_EQ(c.true_link_loss(0), 0.0);
}

TEST(TrafficCounters, ResetClearsEverything) {
  TrafficCounters c(2);
  c.on_transmit(net::PacketType::kData, 1500, 0);
  c.on_transmit(net::PacketType::kProbe, 40, 0);
  c.on_link_drop(0, net::PacketType::kData);
  c.on_link_drop(1, net::PacketType::kProbe);
  c.reset();
  EXPECT_EQ(c.total_packets(), 0u);
  EXPECT_EQ(c.total_bytes(), 0u);
  EXPECT_EQ(c.data_tx(0), 0u);
  EXPECT_EQ(c.data_drops(0), 0u);
  EXPECT_EQ(c.drops_on_link(0), 0u);
  EXPECT_EQ(c.drops_on_link(1), 0u);
  EXPECT_EQ(c.true_link_loss(0), 0.0);
  EXPECT_EQ(c.by_type(net::PacketType::kData).packets, 0u);
  // The instance stays usable after reset.
  c.on_transmit(net::PacketType::kData, 100, 1);
  EXPECT_EQ(c.data_tx(1), 1u);
}

}  // namespace
}  // namespace paai::sim
