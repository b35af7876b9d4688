// Adaptive-adversary tests: the AdversaryPlan grammar (parse/round-trip/
// mutation fuzz), the four adaptive strategies' decision behaviour against
// the observation channel, end-to-end forensic fidelity of the fault
// colluder (convict the adversarial link, not the bursty honest one), the
// inert-chaos invariant (zero-rate adaptive strategies under every benign
// fault plan change nothing), and bit-identity across --jobs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/spec.h"
#include "adversary/strategy.h"
#include "faults/plan.h"
#include "protocols/factory.h"
#include "runner/experiment.h"
#include "runner/montecarlo.h"
#include "sim/time.h"
#include "util/rng.h"

namespace paai::adversary {
namespace {

// ---------------------------------------------------------------------------
// Grammar: parse, canonical rendering, rejection, mutation fuzz.

TEST(AdversaryPlan, ParsesEveryKindAndRoundTrips) {
  const std::vector<std::string> specs = {
      "uniform@4:rate=0.02",
      "type@3:data=0.1,probe=0,ack=0.5",
      "ack@1:rate=1",
      "corrupt@2:rate=0.05",
      "withhold@3:rate=1,release=1",
      "withhold@3:rate=0.5,release=0",
      "originfilter@1:min=3",
      "burst@4:burst=30,period=100",
      "collude@4:rate=0.5",
      "stealth@4:margin=0.9",
      "probeshy@4:rate=0.05,cooldown=5",
      "onoff@4:rate=0.25,on=5,off=15",
  };
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec);
    const AdversaryPlan plan = AdversaryPlan::parse(spec);
    ASSERT_EQ(plan.specs.size(), 1u);
    const AdversaryPlan again = AdversaryPlan::parse(plan.to_string());
    EXPECT_EQ(again.to_string(), plan.to_string());
  }
  // Multi-clause specs join with ';' and keep clause order.
  const AdversaryPlan multi =
      AdversaryPlan::parse("stealth@4:margin=0.9;ack@1:rate=1");
  ASSERT_EQ(multi.specs.size(), 2u);
  EXPECT_EQ(multi.specs[0].node, 4u);
  EXPECT_EQ(multi.specs[1].node, 1u);
  EXPECT_EQ(AdversaryPlan::parse(multi.to_string()).to_string(),
            multi.to_string());
}

TEST(AdversaryPlan, RejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "uniform@4",                        // missing required rate
      "uniform@4:rate=1.5",               // rate out of [0, 1]
      "uniform@4:rate=0.1,typo=1",        // unknown key
      "nosuchkind@4:rate=0.1",            // unknown kind
      "uniform@x:rate=0.1",               // non-numeric node
      "collude@4:rate=0.5;collude@4:rate=1",  // duplicate node
      "onoff@4:rate=0.1,on=0,off=0",      // degenerate duty cycle
      "burst@4:burst=200,period=100",     // burst longer than period
      "withhold@3:rate=1,release=2",      // release must be 0|1
      "stealth@4:margin=-1",              // negative margin
      // The compact grammar is the plan's only spelling: JSON-shaped
      // specs, well formed or not, fail closed in the compact parser.
      R"([{"node": 4}])",
      R"([{"kind":"uniform","node":4,"rate":0.1}])",
      R"({"adversaries":[{"kind":"uniform","node":4,"rate":0.1}]})",
      R"([{"kind":"uniform","node":3.7,"rate":0.1}])",
      R"([{"kind":"uniform","node":-1,"rate":0.1}])",
      R"([{"kind":"uniform","node":1e300,"rate":0.1}])",
      R"([{"kind":"uniform","node":18446744073709551616,"rate":0.1}])",
      R"({"adversaries": 3})",
  };
  for (const auto& spec : bad) {
    SCOPED_TRACE(spec);
    EXPECT_THROW(AdversaryPlan::parse(spec), std::invalid_argument);
  }
}

TEST(AdversaryPlan, FuzzedSpecsRejectCleanlyOrRoundTrip) {
  // Mutation fuzz over the compact grammar, mirroring the FaultPlan fuzz
  // in faults_test.cc (the two plans share util/specgrammar, so both
  // suites hammer the same lexer): every mutated spec must either parse —
  // and then survive a parse(to_string()) round trip — or throw
  // std::invalid_argument. Never crash, never throw anything else.
  const std::vector<std::string> seeds = {
      "uniform@4:rate=0.02",
      "collude@4:rate=0.5",
      "stealth@4:margin=0.9",
      "probeshy@4:rate=0.05,cooldown=5",
      "onoff@4:rate=0.25,on=5,off=15",
      "withhold@3:rate=1,release=1;originfilter@1:min=3",
      "burst@4:burst=30,period=100;type@2:data=0.1,probe=0,ack=0.5",
      "",
  };
  const std::string charset = "0123456789abcdefgXZ@:;,=.+- \t";
  Rng rng(20260808);

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
        spec.insert(rng.next_below(spec.size() + 1), 1,
                    charset[rng.next_below(charset.size())]);
      } else if (op == 0) {
        spec[rng.next_below(spec.size())] =
            charset[rng.next_below(charset.size())];
      } else {
        spec.erase(rng.next_below(spec.size()), 1);
      }
    }
    try {
      const AdversaryPlan plan = AdversaryPlan::parse(spec);
      const AdversaryPlan again = AdversaryPlan::parse(plan.to_string());
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

TEST(AdversaryPlan, MakeStrategyBuildsEveryKind) {
  const AdversaryPlan plan = AdversaryPlan::parse(
      "uniform@1:rate=0.1;type@2:data=0.1,probe=0,ack=0;ack@3:rate=1;"
      "collude@4:rate=0.5");
  Environment env;
  Rng rng(7);
  for (const auto& spec : plan.specs) {
    SCOPED_TRACE(spec.to_string());
    auto s = make_strategy(spec, env, rng.fork(spec.node));
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(s->active());
  }
}

// ---------------------------------------------------------------------------
// Strategy behaviour against a synthetic observation channel.

Context data_ctx(sim::SimTime now = 0) {
  Context c;
  c.type = net::PacketType::kData;
  c.dir = sim::Direction::kToDest;
  c.node_index = 4;
  c.now = now;
  return c;
}

/// Scripted cover signal: active exactly inside [open, close).
class WindowCover final : public FaultObservation {
 public:
  WindowCover(sim::SimTime open, sim::SimTime close)
      : open_(open), close_(close) {}
  bool cover_active(sim::SimTime now) const override {
    return now >= open_ && now < close_;
  }

 private:
  sim::SimTime open_;
  sim::SimTime close_;
};

TEST(FaultColluder, HonestWithoutCoverSignal) {
  // No fault plan → Environment::cover is null → nothing to hide behind,
  // so even a rate-1 colluder forwards everything.
  Environment env;  // cover == nullptr
  auto s = make_fault_colluder(1.0, env, Rng(1));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(s->on_packet(data_ctx(sim::seconds(i))), Action::kForward);
  }
}

TEST(FaultColluder, DropsOnlyInsideCoverWindows) {
  const WindowCover cover(sim::seconds(10.0), sim::seconds(20.0));
  Environment env;
  env.cover = &cover;
  auto s = make_fault_colluder(1.0, env, Rng(2));
  int in_window_drops = 0;
  for (int i = 0; i < 30; ++i) {
    const sim::SimTime t = sim::seconds(static_cast<double>(i) + 0.5);
    const Action a = s->on_packet(data_ctx(t));
    if (i >= 10 && i < 20) {
      EXPECT_EQ(a, Action::kDrop) << "t=" << i;
      ++in_window_drops;
    } else {
      EXPECT_EQ(a, Action::kForward) << "t=" << i;
    }
  }
  EXPECT_EQ(in_window_drops, 10);
  // Acks and reverse-path traffic pass even inside the window.
  Context ack = data_ctx(sim::seconds(15.0));
  ack.type = net::PacketType::kReportAck;
  ack.dir = sim::Direction::kToSource;
  EXPECT_EQ(s->on_packet(ack), Action::kForward);
}

TEST(ThresholdStealthDropper, TracksMarginTimesThreshold) {
  Environment env;
  env.decision_threshold = 0.018;
  env.natural_loss = 0.01;
  auto s = make_threshold_stealth_dropper(0.9, env, Rng(3));
  const int n = 50000;
  int drops = 0;
  for (int i = 0; i < n; ++i) {
    if (s->on_packet(data_ctx(sim::seconds(i * 0.01))) == Action::kDrop) {
      ++drops;
    }
  }
  // Composite downstream loss the scorer would converge to:
  const double own = static_cast<double>(drops) / n;
  const double composite = env.natural_loss + (1.0 - env.natural_loss) * own;
  const double target = 0.9 * env.decision_threshold;
  EXPECT_LE(composite, target);
  EXPECT_GT(composite, target * 0.95);  // rides the target, not far below
}

TEST(ThresholdStealthDropper, MarginAboveOneExceedsThreshold) {
  Environment env;
  env.decision_threshold = 0.018;
  env.natural_loss = 0.01;
  auto s = make_threshold_stealth_dropper(1.5, env, Rng(3));
  int drops = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (s->on_packet(data_ctx(sim::seconds(i * 0.01))) == Action::kDrop) {
      ++drops;
    }
  }
  const double composite =
      env.natural_loss +
      (1.0 - env.natural_loss) * static_cast<double>(drops) / n;
  EXPECT_GT(composite, env.decision_threshold);
}

TEST(ProbeShyDropper, BacksOffAfterBeingSampled) {
  Environment env;
  auto s = make_probe_shy_dropper(1.0, /*cooldown_seconds=*/10.0, env,
                                  Rng(4));
  ASSERT_TRUE(s->wants_packet_ids());

  const net::PacketId id{{1, 2, 3}};
  Context data = data_ctx(sim::seconds(1.0));
  data.packet_id = &id;
  // rate=1, no probe seen yet: drops.
  EXPECT_EQ(s->on_packet(data), Action::kDrop);

  // A probe referencing the recently-seen id opens the cooldown.
  Context probe = data_ctx(sim::seconds(2.0));
  probe.type = net::PacketType::kProbe;
  probe.probe_data_id = &id;
  EXPECT_EQ(s->on_packet(probe), Action::kForward);

  // Inside the cooldown even a rate-1 dropper forwards...
  data.now = sim::seconds(5.0);
  EXPECT_EQ(s->on_packet(data), Action::kForward);
  // ...and resumes dropping once it expires.
  data.now = sim::seconds(12.5);
  EXPECT_EQ(s->on_packet(data), Action::kDrop);

  // A probe for an id the node never saw does not trigger backoff.
  const net::PacketId unseen{{9, 9, 9}};
  probe.now = sim::seconds(13.0);
  probe.probe_data_id = &unseen;
  EXPECT_EQ(s->on_packet(probe), Action::kForward);
  data.now = sim::seconds(13.5);
  EXPECT_EQ(s->on_packet(data), Action::kDrop);
}

TEST(OnOffDropper, RespectsDutyCycle) {
  auto s = make_on_off_dropper(1.0, /*on=*/5.0, /*off=*/15.0, Rng(5));
  int drops = 0;
  const int n = 4000;  // 400 s ≈ 20 periods at 10 pps
  for (int i = 0; i < n; ++i) {
    if (s->on_packet(data_ctx(sim::seconds(i * 0.1))) == Action::kDrop) {
      ++drops;
    }
  }
  // rate=1 inside ON windows → overall ≈ on / (on + off) = 25%.
  const double duty = static_cast<double>(drops) / n;
  EXPECT_NEAR(duty, 0.25, 0.05);
  // Drops arrive in contiguous runs, not Bernoulli-scattered: the count
  // of OFF→ON transitions must be ~n_periods, far below drop count.
  int transitions = 0;
  bool prev = false;
  auto s2 = make_on_off_dropper(1.0, 5.0, 15.0, Rng(5));
  for (int i = 0; i < n; ++i) {
    const bool d =
        s2->on_packet(data_ctx(sim::seconds(i * 0.1))) == Action::kDrop;
    if (d && !prev) ++transitions;
    prev = d;
  }
  EXPECT_LE(transitions, 25);
}

TEST(AdaptiveStrategies, SetActiveFalseForwardsEverything) {
  const WindowCover cover(0, sim::seconds(1e6));
  Environment env;
  env.cover = &cover;
  std::vector<std::unique_ptr<Strategy>> all;
  all.push_back(make_fault_colluder(1.0, env, Rng(6)));
  all.push_back(make_threshold_stealth_dropper(5.0, env, Rng(6)));
  all.push_back(make_probe_shy_dropper(1.0, 1.0, env, Rng(6)));
  all.push_back(make_on_off_dropper(1.0, 10.0, 0.0, Rng(6)));
  for (auto& s : all) {
    s->set_active(false);
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(s->on_packet(data_ctx(sim::seconds(i))), Action::kForward);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: forensic fidelity, inert chaos, --jobs bit-identity.

runner::ExperimentConfig colluder_config(std::uint64_t seed) {
  // The §8.1 path with a rate-1 fault colluder at F_4 hiding in the
  // calibrated Gilbert–Elliott burst plan on honest l_2. Full-ack monitors
  // every packet and localises per hop, so it attributes the in-window
  // drops to l_4 even though they land exactly when l_2 is bursting —
  // PAAI-1's blame-to-first-failing-hop heuristic is measurably worse
  // here (see bench_robustness section C).
  runner::ExperimentConfig cfg = runner::paper_config(
      protocols::ProtocolKind::kFullAck, 20000, seed);
  cfg.link_faults.clear();
  cfg.adversaries = AdversaryPlan::parse("collude@4:rate=1").specs;
  cfg.faults =
      faults::FaultPlan::parse("ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15");
  return cfg;
}

TEST(ForensicFidelity, ColluderConvictedBurstyHonestLinkExonerated) {
  const runner::ExperimentResult r =
      runner::run_experiment(colluder_config(1));
  // Exactly the adversarial link is convicted: not the GE-bursty honest
  // l_2, whose stationary loss (~0.011 over the horizon) stays below the
  // threshold, and not any other honest link.
  ASSERT_EQ(r.final_convicted.size(), 1u);
  EXPECT_EQ(r.final_convicted[0], 4u);
  // Ground truth confirms the colluder did real damage on l_4 (well above
  // both rho and the threshold) while l_2 stayed near its benign rate.
  ASSERT_EQ(r.true_link_loss.size(), 6u);
  EXPECT_GT(r.true_link_loss[4], 0.022);
  EXPECT_LT(r.true_link_loss[2], 0.018);
  EXPECT_GT(r.final_thetas[4], 0.018);
  EXPECT_LT(r.final_thetas[2], 0.018);
}

TEST(InertChaos, ZeroRateStrategiesUnderBenignPlansChangeNothing) {
  // Every benign fault plan × every adaptive strategy with its drop knob
  // at zero: nobody is convicted, and — stronger — the run is
  // bit-identical to the same plan with no strategy installed at all
  // (a zero-rate adaptive adversary only *observes*; observation must
  // never perturb the simulation).
  const std::vector<std::string> inert = {
      "collude@4:rate=0",
      "stealth@4:margin=0",
      "probeshy@4:rate=0,cooldown=5",
      "onoff@4:rate=0,on=5,off=15",
  };
  ASSERT_FALSE(faults::benign_plans().empty());
  for (const auto& named : faults::benign_plans()) {
    runner::ExperimentConfig base = runner::paper_config(
        protocols::ProtocolKind::kPaai1, 6000, /*seed=*/11);
    base.link_faults.clear();
    base.faults = faults::FaultPlan::parse(named.spec);
    const runner::ExperimentResult clean = runner::run_experiment(base);
    EXPECT_TRUE(clean.final_convicted.empty()) << named.name;
    for (const auto& spec : inert) {
      SCOPED_TRACE(std::string(named.name) + " + " + spec);
      runner::ExperimentConfig cfg = base;
      cfg.adversaries = AdversaryPlan::parse(spec).specs;
      const runner::ExperimentResult r = runner::run_experiment(cfg);
      EXPECT_TRUE(r.final_convicted.empty());
      EXPECT_EQ(r.final_thetas, clean.final_thetas);
      EXPECT_EQ(r.observations, clean.observations);
      EXPECT_EQ(r.events_processed, clean.events_processed);
      EXPECT_EQ(r.true_link_loss, clean.true_link_loss);
    }
  }
}

TEST(AdaptiveDeterminism, BitIdenticalAcrossJobs) {
  // Monte-Carlo with an adaptive (stateful, observation-driven) adversary
  // must fold to identical results whatever the worker count — the
  // acceptance bar for the --adversary flag on every bench.
  runner::MonteCarloConfig mc;
  mc.base =
      runner::paper_config(protocols::ProtocolKind::kPaai1, 4000, 1);
  mc.base.link_faults.clear();
  mc.base.adversaries =
      AdversaryPlan::parse("collude@4:rate=1;probeshy@2:rate=0.05,cooldown=2")
          .specs;
  mc.base.faults =
      faults::FaultPlan::parse("ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15");
  mc.base.checkpoints = {1000, 2000, 4000};
  mc.runs = 4;
  mc.malicious_links = {4};
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
    EXPECT_EQ(serial.final_thetas[i].mean(),
              parallel.final_thetas[i].mean());
    EXPECT_EQ(serial.true_link_loss[i].mean(),
              parallel.true_link_loss[i].mean());
  }
  EXPECT_EQ(serial.total_events, parallel.total_events);
}

}  // namespace
}  // namespace paai::adversary
