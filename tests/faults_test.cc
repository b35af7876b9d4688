// Fault-injection subsystem tests (src/faults) and the robustness chaos
// suite: the Gilbert-Elliott model's long-run statistics, the FaultPlan
// compact grammar, construction-time validation across
// Link/PathNetwork/FaultInjector, node crash/restart semantics (including
// PendingStore state loss and recovery), and the false-identification
// invariant — every shipped benign plan, run against every protocol at
// paper scale with no adversary, must convict nobody, bit-identically
// across --jobs values.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "faults/injector.h"
#include "faults/loss_process.h"
#include "faults/plan.h"
#include "protocols/context.h"
#include "protocols/pending.h"
#include "runner/experiment.h"
#include "runner/montecarlo.h"
#include "sim/link.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/rng.h"

namespace paai {
namespace {

using faults::FaultPlan;
using faults::GilbertElliott;

// ---------------------------------------------------------------------------
// Gilbert-Elliott model

TEST(GilbertElliott, StationaryLossMatchesEmpiricalRate) {
  GilbertElliott::Params p;
  p.loss_good = 0.005;
  p.loss_bad = 0.3;
  p.good_to_bad = 0.003;
  p.bad_to_good = 0.15;
  GilbertElliott ge(p);

  // pi_bad = g2b / (g2b + b2g) ~ 0.0196; mixture ~ 0.0108.
  EXPECT_NEAR(ge.stationary_loss(), 0.0108, 0.0005);

  Rng rng(42);
  std::uint64_t drops = 0;
  const std::uint64_t draws = 1'000'000;
  for (std::uint64_t i = 0; i < draws; ++i) {
    if (ge.drop(static_cast<sim::SimTime>(i), rng)) ++drops;
  }
  const double empirical = static_cast<double>(drops) / draws;
  EXPECT_NEAR(empirical, ge.stationary_loss(), 0.0015);
  EXPECT_GT(ge.transitions(), 0u);
}

TEST(GilbertElliott, LossArrivesInBursts) {
  // Drops happen only in the Bad state, so a drop run's length is the Bad
  // sojourn time: geometric with mean 1 / bad_to_good = 5 traversals.
  GilbertElliott::Params p;
  p.loss_good = 0.0;
  p.loss_bad = 1.0;
  p.good_to_bad = 0.01;
  p.bad_to_good = 0.2;
  GilbertElliott ge(p);

  Rng rng(7);
  std::uint64_t bursts = 0;
  std::uint64_t dropped = 0;
  bool in_burst = false;
  for (std::uint64_t i = 0; i < 500'000; ++i) {
    const bool drop = ge.drop(static_cast<sim::SimTime>(i), rng);
    if (drop) {
      ++dropped;
      if (!in_burst) ++bursts;
    }
    in_burst = drop;
  }
  ASSERT_GT(bursts, 100u);
  const double mean_burst =
      static_cast<double>(dropped) / static_cast<double>(bursts);
  EXPECT_GT(mean_burst, 3.5);
  EXPECT_LT(mean_burst, 6.5);
}

TEST(GilbertElliott, RejectsBadParameters) {
  GilbertElliott::Params p;
  p.loss_bad = 1.5;  // probability out of range
  EXPECT_THROW(GilbertElliott{p}, std::invalid_argument);
  p.loss_bad = 0.5;
  p.good_to_bad = 0.0;
  p.bad_to_good = 0.0;  // chain never moves
  EXPECT_THROW(GilbertElliott{p}, std::invalid_argument);
  p.good_to_bad = std::nan("");
  p.bad_to_good = 0.5;
  EXPECT_THROW(GilbertElliott{p}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FaultPlan grammar

TEST(FaultPlan, CompactRoundTrip) {
  const std::string spec =
      "ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15;"
      "set@1:t=150,loss=0.02,lat=3.5;"
      "outage@3:t=120,dur=1.5;"
      "reorder@1:p=0.05,delay=2;"
      "dup@4:p=0.01";
  const FaultPlan plan = FaultPlan::parse(spec);
  ASSERT_EQ(plan.gilbert.size(), 1u);
  EXPECT_EQ(plan.gilbert[0].link, 2u);
  EXPECT_DOUBLE_EQ(plan.gilbert[0].params.loss_bad, 0.3);
  ASSERT_EQ(plan.retunes.size(), 1u);
  EXPECT_EQ(plan.retunes[0].link, 1u);
  EXPECT_DOUBLE_EQ(plan.retunes[0].at_seconds, 150.0);
  ASSERT_TRUE(plan.retunes[0].loss.has_value());
  ASSERT_TRUE(plan.retunes[0].latency_ms.has_value());
  EXPECT_FALSE(plan.retunes[0].jitter_ms.has_value());
  ASSERT_EQ(plan.outages.size(), 1u);
  EXPECT_EQ(plan.outages[0].node, 3u);
  EXPECT_DOUBLE_EQ(plan.outages[0].duration_seconds, 1.5);
  ASSERT_EQ(plan.reorders.size(), 1u);
  ASSERT_EQ(plan.duplicates.size(), 1u);
  EXPECT_FALSE(plan.empty());

  // Canonical rendering reparses to the same plan.
  const FaultPlan again = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.to_string(), plan.to_string());
  EXPECT_EQ(again.gilbert.size(), plan.gilbert.size());
  EXPECT_EQ(again.retunes.size(), plan.retunes.size());
  EXPECT_EQ(again.outages.size(), plan.outages.size());
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  \n ").empty());
  EXPECT_TRUE(FaultPlan{}.empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  // Unknown kind, malformed clause, unknown key, bad/NaN numbers,
  // out-of-range probabilities, semantically empty clauses.
  EXPECT_THROW(FaultPlan::parse("meteor@1:p=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("ge:pb=1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("dup@1:prob=0.1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("dup@1:p=abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("dup@1:p=nan"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("dup@1:p=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("dup@x:p=0.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("set@1:t=10"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("outage@3:t=1,dur=0"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("ge@1:pb=0.3,g2b=0.1"),  // missing b2g
               std::invalid_argument);
  // The compact grammar is the plan's only spelling: JSON-shaped specs,
  // well formed or not, fail closed in the compact parser.
  EXPECT_THROW(FaultPlan::parse("[{\"t\":1}]"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("[{\"kind\":\"dup\",\"p\":0.1}]"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("[not json"), std::invalid_argument);
  for (const char* link : {"4", "1.5", "-1", "1e300", "18446744073709551616"}) {
    SCOPED_TRACE(link);
    EXPECT_THROW(FaultPlan::parse(std::string(R"([{"kind":"dup","link":)") +
                                  link + R"(,"p":0.1}])"),
                 std::invalid_argument);
  }
}

TEST(FaultPlan, FuzzedSpecsRejectCleanlyOrRoundTrip) {
  // Mutation fuzz over the compact grammar: every mutated spec must either
  // parse (and then survive a parse(to_string()) round trip) or throw
  // std::invalid_argument — never crash, never throw anything else.
  const std::vector<std::string> seeds = {
      "ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15",
      "set@1:t=150,loss=0.02,lat=3.5,jitter=0.5",
      "outage@3:t=120,dur=1.5",
      "reorder@1:p=0.05,delay=2",
      "dup@4:p=0.01",
      "ge@2:pb=0.3,g2b=0.01,b2g=0.2;outage@3:t=60,dur=2;dup@1:p=0.02",
      "",
  };
  const std::string charset = "0123456789abcdefgXZ@:;,=.+- \t";
  Rng rng(20260805);

  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string spec = seeds[rng.next_below(seeds.size())];
    // 0..3 random edits; zero edits keeps some iterations on the valid
    // seeds so the accept path stays exercised.
    const std::uint64_t edits = rng.next_below(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const std::uint64_t op = rng.next_below(3);
      if (spec.empty() || op == 2) {
        spec.insert(rng.next_below(spec.size() + 1),
                    1, charset[rng.next_below(charset.size())]);
      } else if (op == 0) {
        spec[rng.next_below(spec.size())] =
            charset[rng.next_below(charset.size())];
      } else {
        spec.erase(rng.next_below(spec.size()), 1);
      }
    }
    try {
      const FaultPlan plan = FaultPlan::parse(spec);
      // Accepted: the canonical rendering must reparse to itself.
      const FaultPlan again = FaultPlan::parse(plan.to_string());
      EXPECT_EQ(again.to_string(), plan.to_string()) << "spec: " << spec;
      ++accepted;
    } catch (const std::invalid_argument&) {
      ++rejected;  // clean rejection is the expected failure mode
    }
  }
  // The mutator must have exercised both paths.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(FaultPlan, ProvisioningWorstCases) {
  const FaultPlan plan = FaultPlan::parse(
      "set@3:t=60,lat=4.5,jitter=0.5;set@3:t=240,lat=8;"
      "reorder@1:p=0.05,delay=2");
  EXPECT_DOUBLE_EQ(plan.max_latency_ms(), 8.0);
  EXPECT_DOUBLE_EQ(plan.max_extra_delay_ms(), 2.5);
  EXPECT_DOUBLE_EQ(FaultPlan{}.max_latency_ms(), 0.0);
  EXPECT_DOUBLE_EQ(FaultPlan{}.max_extra_delay_ms(), 0.0);
}

TEST(FaultPlan, ShippedBenignPlansParseAndFitThePaperPath) {
  ASSERT_FALSE(faults::benign_plans().empty());
  for (const auto& named : faults::benign_plans()) {
    SCOPED_TRACE(named.name);
    const FaultPlan plan = FaultPlan::parse(named.spec);
    EXPECT_FALSE(plan.empty());
    // Installing on the paper's d=6 path validates every index.
    sim::Simulator sim;
    sim::PathNetwork net(sim, sim::PathConfig{});
    EXPECT_NO_THROW(faults::FaultInjector(sim, net, plan));
  }
}

// ---------------------------------------------------------------------------
// Construction-time validation (satellite: reject nonsense loudly)

TEST(LinkValidation, RejectsBadRatesAndLatencies) {
  sim::Simulator sim;
  sim::TrafficCounters counters(1);
  EXPECT_THROW(sim::Link(sim, 0, 1.5, sim::milliseconds(1), Rng(1),
                         &counters),
               std::invalid_argument);
  EXPECT_THROW(sim::Link(sim, 0, -0.1, sim::milliseconds(1), Rng(1),
                         &counters),
               std::invalid_argument);
  EXPECT_THROW(sim::Link(sim, 0, std::nan(""), sim::milliseconds(1), Rng(1),
                         &counters),
               std::invalid_argument);
  EXPECT_THROW(sim::Link(sim, 0, 0.01, -sim::milliseconds(1), Rng(1),
                         &counters),
               std::invalid_argument);

  sim::Link link(sim, 0, 0.01, sim::milliseconds(1), Rng(1), &counters);
  EXPECT_THROW(link.set_loss_rate(1.5), std::invalid_argument);
  EXPECT_THROW(link.set_loss_rate(std::nan("")), std::invalid_argument);
  EXPECT_THROW(link.set_latency(-1), std::invalid_argument);
  EXPECT_THROW(link.set_jitter(-1), std::invalid_argument);
  EXPECT_THROW(link.set_reordering(1.5, 0), std::invalid_argument);
  EXPECT_THROW(link.set_reordering(0.5, -1), std::invalid_argument);
  EXPECT_THROW(link.set_duplication(-0.5), std::invalid_argument);
  EXPECT_NO_THROW(link.set_loss_rate(0.0));
  EXPECT_NO_THROW(link.set_loss_rate(1.0));
}

TEST(NetworkValidation, RejectsBadPathConfigs) {
  sim::Simulator sim;
  sim::PathConfig cfg;
  cfg.natural_loss = 1.5;
  EXPECT_THROW(sim::PathNetwork(sim, cfg), std::invalid_argument);
  cfg = sim::PathConfig{};
  cfg.natural_loss = std::nan("");
  EXPECT_THROW(sim::PathNetwork(sim, cfg), std::invalid_argument);
  cfg = sim::PathConfig{};
  cfg.min_latency_ms = 6.0;  // inverted range
  cfg.max_latency_ms = 5.0;
  EXPECT_THROW(sim::PathNetwork(sim, cfg), std::invalid_argument);
  cfg = sim::PathConfig{};
  cfg.min_latency_ms = -1.0;
  EXPECT_THROW(sim::PathNetwork(sim, cfg), std::invalid_argument);
  cfg = sim::PathConfig{};
  cfg.jitter_ms = -0.5;
  EXPECT_THROW(sim::PathNetwork(sim, cfg), std::invalid_argument);
  cfg = sim::PathConfig{};
  cfg.extra_rtt_slack_ms = std::nan("");
  EXPECT_THROW(sim::PathNetwork(sim, cfg), std::invalid_argument);
  cfg = sim::PathConfig{};
  EXPECT_NO_THROW(sim::PathNetwork(sim, cfg));
}

TEST(InjectorValidation, RejectsOutOfPathIndices) {
  sim::Simulator sim;
  sim::PathNetwork net(sim, sim::PathConfig{});  // d = 6
  EXPECT_THROW(
      faults::FaultInjector(sim, net, FaultPlan::parse("dup@6:p=0.1")),
      std::invalid_argument);
  EXPECT_THROW(faults::FaultInjector(
                   sim, net,
                   FaultPlan::parse("ge@9:pb=0.3,g2b=0.1,b2g=0.2")),
               std::invalid_argument);
  // S and D are trusted infrastructure; outages may only hit relays.
  EXPECT_THROW(
      faults::FaultInjector(sim, net,
                            FaultPlan::parse("outage@0:t=1,dur=1")),
      std::invalid_argument);
  EXPECT_THROW(
      faults::FaultInjector(sim, net,
                            FaultPlan::parse("outage@6:t=1,dur=1")),
      std::invalid_argument);
  EXPECT_NO_THROW(
      faults::FaultInjector(sim, net,
                            FaultPlan::parse("outage@5:t=1,dur=1")));
}

// ---------------------------------------------------------------------------
// Node crash/restart mechanics

class CountingAgent final : public sim::Agent {
 public:
  void on_packet(const sim::PacketEnv&) override { ++packets_; }
  void on_crash() override { ++crashes_; }
  int packets() const { return packets_; }
  int crashes() const { return crashes_; }

 private:
  int packets_ = 0;
  int crashes_ = 0;
};

sim::PacketEnv test_packet() {
  sim::PacketEnv env;
  env.wire = sim::Wire(Bytes{1, 2, 3});
  env.wire_size = 3;
  return env;
}

TEST(NodeOutage, DownNodeBlackholesAndRunsCrashHooks) {
  sim::Simulator sim;
  sim::Node node(sim, 1);
  auto agent = std::make_unique<CountingAgent>();
  CountingAgent* counting = agent.get();
  node.attach_agent(std::move(agent));
  int hook_runs = 0;
  node.add_crash_hook([](void* runs) { ++*static_cast<int*>(runs); },
                      &hook_runs);

  ASSERT_TRUE(node.up());
  node.deliver(test_packet());
  EXPECT_EQ(counting->packets(), 1);

  node.set_up(false);
  EXPECT_FALSE(node.up());
  EXPECT_EQ(hook_runs, 1);
  EXPECT_EQ(counting->crashes(), 1);
  node.deliver(test_packet());
  node.deliver(test_packet());
  EXPECT_EQ(counting->packets(), 1);  // blackholed, not delivered
  EXPECT_EQ(node.crash_drops(), 2u);

  node.set_up(true);
  EXPECT_TRUE(node.up());
  EXPECT_EQ(hook_runs, 1);  // restart is not a crash
  node.deliver(test_packet());
  EXPECT_EQ(counting->packets(), 2);
  EXPECT_EQ(node.crash_drops(), 2u);
}

// ---------------------------------------------------------------------------
// PendingStore across a node outage (satellite: purge/recovery coverage)

net::PacketId make_id(std::uint8_t n) {
  net::PacketId id{};
  id[0] = n;
  return id;
}

TEST(PendingCrash, OutageDropsEntriesAndAutoPurgeRecovers) {
  sim::Simulator sim;
  sim::Node node(sim, 2);
  node.attach_agent(std::make_unique<CountingAgent>());

  protocols::PendingStore<int> store;
  store.attach(node, sim::milliseconds(10));

  store.put(make_id(1), 11, sim::seconds(1.0));
  store.put(make_id(2), 22, sim::seconds(1.0));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(node.storage().current(), 2u);
  ASSERT_NE(store.find(make_id(1)), nullptr);

  // Crash: the attach()-registered hook drops every in-flight entry and
  // the storage meter drains with it — volatile state does not survive.
  node.set_up(false);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(node.storage().current(), 0u);
  EXPECT_EQ(store.find(make_id(1)), nullptr);

  // The crash left an auto-purge timer armed; it must fire on the empty
  // map without incident (same path as a wait timer whose entry expired).
  node.set_up(true);
  sim.run();
  EXPECT_EQ(store.size(), 0u);

  // Recovery: the store keeps working after restart, and the re-armed
  // auto-purge expires stale entries even with no packet arrivals.
  store.put(make_id(3), 33, sim.now() + sim::milliseconds(5));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(node.storage().current(), 1u);
  sim.run();  // auto-purge period (10 ms) passes the 5 ms expiry
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(node.storage().current(), 0u);
}

TEST(PendingCrash, RelayOutageDoesNotLeaveStaleAccusation) {
  // Protocol-level version of the same property: a mid-run relay crash
  // (dropping its pending table and interval counters) must not make the
  // source convict anyone once traffic resumes — the recovery path is the
  // wait-timer machinery the protocols already have.
  for (const auto kind : {protocols::ProtocolKind::kPaai1,
                          protocols::ProtocolKind::kStatisticalFl}) {
    SCOPED_TRACE(protocols::protocol_name(kind));
    runner::ExperimentConfig cfg = runner::paper_config(kind, 12000, 5);
    cfg.link_faults.clear();  // honest path
    // Same convention as the protocol_test sweeps: at the paper's p the
    // FL estimator needs ~1e7 packets to converge; exact counters keep
    // the crash/interval machinery under test without the sampling noise.
    cfg.params.fl_sampling = 1.0;
    cfg.faults = FaultPlan::parse("outage@3:t=30,dur=1;outage@2:t=80,dur=1");
    const runner::ExperimentResult r = runner::run_experiment(cfg);
    EXPECT_TRUE(r.final_convicted.empty())
        << "convicted " << r.final_convicted.size() << " honest link(s)";
    EXPECT_GT(r.observations, 0u);
  }
}

// ---------------------------------------------------------------------------
// Determinism: a fault plan must not break the bit-identity contract

TEST(FaultDeterminism, SameSeedSameResult) {
  runner::ExperimentConfig cfg =
      runner::paper_config(protocols::ProtocolKind::kPaai1, 4000, 9);
  cfg.faults = FaultPlan::parse(
      "ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15;"
      "outage@3:t=10,dur=0.5;set@1:t=20,loss=0.02;"
      "reorder@5:p=0.05,delay=1;dup@0:p=0.01");
  const runner::ExperimentResult a = runner::run_experiment(cfg);
  const runner::ExperimentResult b = runner::run_experiment(cfg);
  EXPECT_EQ(a.final_thetas, b.final_thetas);
  EXPECT_EQ(a.observations, b.observations);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.ground_truth_delivery, b.ground_truth_delivery);
}

TEST(FaultDeterminism, BitIdenticalAcrossJobs) {
  runner::MonteCarloConfig mc;
  mc.base = runner::paper_config(protocols::ProtocolKind::kPaai1, 4000, 1);
  mc.base.faults = FaultPlan::parse(
      "ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15;outage@3:t=10,dur=0.5");
  mc.base.checkpoints = {1000, 2000, 4000};
  mc.runs = 4;
  mc.jobs = 1;
  const runner::MonteCarloResult serial = runner::run_monte_carlo(mc);
  mc.jobs = 4;
  const runner::MonteCarloResult parallel = runner::run_monte_carlo(mc);

  ASSERT_EQ(serial.curve.size(), parallel.curve.size());
  for (std::size_t i = 0; i < serial.curve.size(); ++i) {
    EXPECT_EQ(serial.curve[i].fp, parallel.curve[i].fp);
    EXPECT_EQ(serial.curve[i].fn, parallel.curve[i].fn);
  }
  ASSERT_EQ(serial.final_thetas.size(), parallel.final_thetas.size());
  for (std::size_t i = 0; i < serial.final_thetas.size(); ++i) {
    EXPECT_EQ(serial.final_thetas[i].mean(), parallel.final_thetas[i].mean());
  }
  EXPECT_EQ(serial.total_events, parallel.total_events);
}

TEST(FaultDeterminism, EmptyPlanMatchesNoPlan) {
  // `--faults=""` must be byte-for-byte the run you get without the flag:
  // an empty plan installs nothing and provisions nothing.
  runner::ExperimentConfig cfg =
      runner::paper_config(protocols::ProtocolKind::kPaai1, 3000, 3);
  const runner::ExperimentResult without = runner::run_experiment(cfg);
  cfg.faults = FaultPlan::parse("");
  const runner::ExperimentResult with = runner::run_experiment(cfg);
  EXPECT_EQ(without.final_thetas, with.final_thetas);
  EXPECT_EQ(without.events_processed, with.events_processed);
}

// ---------------------------------------------------------------------------
// The false-identification invariant (chaos suite)

constexpr protocols::ProtocolKind kAllProtocols[] = {
    protocols::ProtocolKind::kFullAck,      protocols::ProtocolKind::kPaai1,
    protocols::ProtocolKind::kPaai2,        protocols::ProtocolKind::kCombination1,
    protocols::ProtocolKind::kCombination2, protocols::ProtocolKind::kStatisticalFl,
    protocols::ProtocolKind::kSigAck,
};

/// No adversary anywhere: whatever the benign plan does, convicting any
/// link is a false identification.
void expect_no_false_identification(protocols::ProtocolKind kind,
                                    const char* plan_spec,
                                    std::uint64_t packets,
                                    std::uint64_t seed, double pps = 100.0) {
  if (kind == protocols::ProtocolKind::kCombination2) {
    // Comb-2 detects 1/p slower by design (Table 1): at the paper's
    // p = 1/36 its two-standard-error conviction rule is still in the
    // small-sample regime at 60k packets, where estimator variance alone
    // can convict. Extend the horizon to the sample count the
    // protocol_test.cc converged-regime sweeps use (~10k sampled probes);
    // every shipped plan is calibrated to stay benign at any horizon.
    packets *= 6;
  }
  runner::ExperimentConfig cfg = runner::paper_config(kind, packets, seed);
  cfg.params.send_rate_pps = pps;
  cfg.link_faults.clear();
  cfg.faults = FaultPlan::parse(plan_spec);
  if (kind == protocols::ProtocolKind::kStatisticalFl) {
    // Established convention (see protocol_test.cc): at the paper's
    // sampling rate the FL estimator needs ~1e7 packets to converge, so
    // its sampling variance alone trips any threshold at this scale.
    // Exact counters remove that noise while the interval / report /
    // crash-recovery machinery stays fully exercised.
    cfg.params.fl_sampling = 1.0;
  }
  const runner::ExperimentResult r = runner::run_experiment(cfg);
  EXPECT_TRUE(r.final_convicted.empty())
      << protocols::protocol_name(kind) << " convicted link l_"
      << (r.final_convicted.empty() ? 0 : r.final_convicted[0])
      << " under a benign plan";
  EXPECT_GT(r.observations, 0u);
}

TEST(ChaosSmoke, EverythingPlanConvictsNobody) {
  // Fast representative (also run under the sanitizer legs): the combined
  // plan against one probe-based and one ack-based protocol.
  for (const auto kind : {protocols::ProtocolKind::kPaai1,
                          protocols::ProtocolKind::kFullAck}) {
    SCOPED_TRACE(protocols::protocol_name(kind));
    expect_no_false_identification(
        kind, faults::benign_plans().back().spec, /*packets=*/6000,
        /*seed=*/11);
  }
}

/// Paper scale: d = 6, rho = 0.01, 100 pps, 60k packets (600 simulated
/// seconds), threshold 0.018 — the acceptance bar for the PR. One test
/// per (protocol, shipped plan) pair.
class ChaosPaperScale
    : public ::testing::TestWithParam<
          std::tuple<protocols::ProtocolKind, std::size_t>> {};

TEST_P(ChaosPaperScale, BenignPlanConvictsNobody) {
  const auto [kind, plan_index] = GetParam();
  const auto& named = faults::benign_plans()[plan_index];
  SCOPED_TRACE(named.name);
  // sig-ack signs every data packet with W-OTS (~0.5 ms a packet, ~30
  // CPU-seconds per 60k-packet run, on the x86 SHA-extension block
  // function; ~3 CPU-minutes on the portable one), so it keeps the full
  // 600 s horizon — the shipped plans schedule events up to t = 550 — at
  // a tenth of the rate and therefore a tenth of the signing cost.
  if (kind == protocols::ProtocolKind::kSigAck) {
    expect_no_false_identification(kind, named.spec, /*packets=*/6000,
                                   /*seed=*/2026, /*pps=*/10.0);
  } else {
    expect_no_false_identification(kind, named.spec, /*packets=*/60000,
                                   /*seed=*/2026);
  }
}

std::string chaos_name(
    const ::testing::TestParamInfo<ChaosPaperScale::ParamType>& info) {
  std::string name = protocols::protocol_name(std::get<0>(info.param));
  name += "_";
  name += faults::benign_plans()[std::get<1>(info.param)].name;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAllPlans, ChaosPaperScale,
    ::testing::Combine(::testing::ValuesIn(kAllProtocols),
                       ::testing::Range<std::size_t>(
                           0, faults::benign_plans().size())),
    chaos_name);

}  // namespace
}  // namespace paai
