// Tests for src/stream — the online scoring engine.
//
// The correctness anchor is batch/stream equivalence: for every protocol,
// feeding a batch run's recorded event stream through ScoreEngine must
// reproduce the run's final thetas, conviction set, observation counts,
// and e2e rate *bit-identically* (exact double equality, no tolerance),
// including across a mid-stream snapshot/restore cycle. Around that
// anchor: paai.state.v1 round-trips, EventReader strictness (fuzz-style
// malformed input with line-numbered errors), persistence-mode
// conviction, and the serve loop's drain/snapshot behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "adversary/spec.h"
#include "crypto/keystore.h"
#include "faults/injector.h"
#include "faults/plan.h"
#include "mutation_fuzz.h"
#include "obs/events.h"
#include "obs/json.h"
#include "protocols/factory.h"
#include "protocols/score.h"
#include "runner/experiment.h"
#include "runner/producer.h"
#include "sim/simulator.h"
#include "stream/engine.h"
#include "stream/explain.h"
#include "stream/service.h"
#include "stream/state.h"
#include "util/rng.h"

// Heap allocations counted while g_count_allocs is set: the replaceable
// global operator new is the only way to see every allocation a call
// makes (Engine.TakeNewConvictionsIsHeapFreeWhenNothingIsNew).
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// All out of line, so the compiler never pairs an inlined malloc() or
// free() with the other side's operator and warns about a mismatch that
// cannot happen here.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace paai::stream {
namespace {

constexpr protocols::ProtocolKind kAllProtocols[] = {
    protocols::ProtocolKind::kFullAck,      protocols::ProtocolKind::kPaai1,
    protocols::ProtocolKind::kPaai2,        protocols::ProtocolKind::kCombination1,
    protocols::ProtocolKind::kCombination2, protocols::ProtocolKind::kStatisticalFl,
    protocols::ProtocolKind::kSigAck,
};

struct BatchRun {
  runner::ExperimentResult result;
  std::vector<obs::Event> events;
  std::uint64_t dropped = 0;
};

BatchRun run_with_log(runner::ExperimentConfig cfg) {
  obs::EventLog log(
      static_cast<std::size_t>(cfg.params.total_packets) * 16 + 4096);
  cfg.path.events = &log;
  BatchRun out;
  out.result = runner::run_experiment(cfg);
  out.events = log.merged();
  out.dropped = log.dropped();
  return out;
}

/// A Scorer's table walk (paai.state.v1's "table" section) and its packet
/// counters, as one JSON document.
std::string scorer_state(const protocols::Scorer& scorer) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  obs::JsonFieldWriter fields(w);
  w.begin_object();
  fields.field("packets_sent", scorer.packets_sent());
  fields.field("delivered", scorer.delivered());
  fields.open("table");
  scorer.visit(fields);
  fields.close();
  w.end_object();
  return os.str();
}

/// The adversaries' fault-cover signal, read off the run's injector.
class InjectorCover final : public adversary::FaultObservation {
 public:
  explicit InjectorCover(const faults::FaultInjector* injector)
      : injector_(injector) {}
  bool cover_active(sim::SimTime now) const override {
    return injector_ != nullptr && injector_->cover_active(now);
  }

 private:
  const faults::FaultInjector* injector_;
};

/// A run of `cfg` driven by hand, so the source's own Scorer is in reach
/// at run end: link faults, the benign fault plan (with its cover signal)
/// and the adversaries are installed as the runner does, and the log opens
/// with the run-config prologue. Returns the source Scorer's state and the
/// run's log.
std::pair<std::string, std::vector<obs::Event>> run_source(
    const runner::ExperimentConfig& cfg) {
  obs::EventLog log(
      static_cast<std::size_t>(cfg.params.total_packets) * 16 + 4096);
  sim::PathConfig path = cfg.path;
  path.events = &log;
  log.append(0, obs::EventKind::kRunConfig, 0, cfg.params.blame.encode32(),
             static_cast<std::uint64_t>(cfg.protocol), path.length,
             cfg.decision_threshold);
  sim::Simulator simulator;
  sim::PathNetwork net(simulator, path);
  const auto provider = crypto::make_crypto(cfg.crypto);
  const crypto::KeyStore keys(crypto::test_master_key(path.seed),
                              net.length());
  const protocols::ProtocolContext ctx(*provider, keys, net, cfg.params);
  for (const runner::LinkFault& fault : cfg.link_faults) {
    net.link(fault.link)
        .set_loss_rate(1.0 - (1.0 - path.natural_loss) *
                                 (1.0 - fault.extra_loss));
  }
  std::optional<faults::FaultInjector> injector;
  if (!cfg.faults.empty()) injector.emplace(simulator, net, cfg.faults);
  const InjectorCover cover(injector ? &*injector : nullptr);
  adversary::Environment env;
  env.cover = &cover;
  Rng rng(path.seed);
  std::vector<std::unique_ptr<adversary::Strategy>> owned;
  std::vector<adversary::Strategy*> by_node(net.length() + 1, nullptr);
  for (const auto& spec : cfg.adversaries) {
    owned.push_back(
        adversary::make_strategy(spec, env, rng.fork(owned.size() + 1)));
    by_node.at(spec.node) = owned.back().get();
  }
  const protocols::Scorer& source =
      protocols::install_protocol(cfg.protocol, ctx, net, by_node);
  net.start_agents();
  simulator.run();
  if (injector) injector->finish();
  EXPECT_EQ(log.dropped(), 0u);
  return {scorer_state(source), log.merged()};
}

/// The source's Scorer at run end and a ScoreEngine fed the same run's
/// log agree field for field (window ledger, bins and counters, not only
/// the verdict), under the margin rule and a window-backed one.
void expect_scorers_agree(runner::ExperimentConfig cfg) {
  for (const char* spec : {"margin", "hybrid:4,192"}) {
    SCOPED_TRACE(spec);
    cfg.params.blame = protocols::BlameSpec::parse(spec);
    const auto [source_state, events] = run_source(cfg);
    ScoreEngine engine;
    for (const obs::Event& e : events) engine.apply(e);
    ASSERT_TRUE(engine.configured());
    EXPECT_EQ(scorer_state(engine.scorer()), source_state);
  }
}

/// Bit-exact comparison between a finished engine and the batch result it
/// replays. EXPECT_EQ on doubles is exact equality — that is the point.
void expect_equivalent(const runner::ExperimentResult& batch,
                       const ScoreEngine& engine, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_TRUE(engine.run_ended());
  EXPECT_EQ(engine.packets_sent(), batch.packets_sent);
  EXPECT_EQ(engine.observations(), batch.observations);
  EXPECT_EQ(engine.observed_e2e_rate(), batch.observed_e2e_rate);
  const std::vector<double> thetas = engine.thetas();
  ASSERT_EQ(thetas.size(), batch.final_thetas.size());
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    EXPECT_EQ(thetas[i], batch.final_thetas[i]) << "theta of l_" << i;
  }
  EXPECT_EQ(engine.convicted(), batch.final_convicted);
}

obs::Event make_event(obs::EventKind kind, std::int32_t link = -1,
                      std::uint64_t a = 0, std::uint64_t b = 0,
                      double v = 0.0) {
  obs::Event e;
  e.kind = kind;
  e.link = link;
  e.a = a;
  e.b = b;
  e.value = v;
  return e;
}

obs::Event run_config_event(protocols::ProtocolKind protocol, std::size_t d,
                            double threshold,
                            const protocols::BlameSpec& blame = {}) {
  return make_event(obs::EventKind::kRunConfig, blame.encode32(),
                    static_cast<std::uint64_t>(protocol), d, threshold);
}

// ------------------------------------------------------- batch equivalence

// Every protocol, the paper's reference scenario (link fault on l_4).
TEST(Equivalence, AllProtocolsReferenceScenario) {
  for (const auto protocol : kAllProtocols) {
    const BatchRun batch =
        run_with_log(runner::paper_config(protocol, 3000, 7));
    ASSERT_EQ(batch.dropped, 0u);
    ScoreEngine engine;
    for (const obs::Event& e : batch.events) engine.apply(e);
    EXPECT_EQ(engine.config().protocol, protocol);
    expect_equivalent(batch.result, engine,
                      protocols::protocol_name(protocol));
  }
}

constexpr const char* kBenignPlan = "ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15";

// Every protocol under a benign fault plan (Gilbert-Elliott bursts on an
// honest link) — the stream must absorb the same noisy evidence, and its
// Scorer must match the source's field for field.
TEST(Equivalence, AllProtocolsBenignFaults) {
  for (const auto protocol : kAllProtocols) {
    SCOPED_TRACE(protocols::protocol_name(protocol));
    runner::ExperimentConfig cfg = runner::paper_config(protocol, 3000, 11);
    cfg.faults = faults::FaultPlan::parse(kBenignPlan);
    const BatchRun batch = run_with_log(cfg);
    ASSERT_EQ(batch.dropped, 0u);
    ScoreEngine engine;
    for (const obs::Event& e : batch.events) engine.apply(e);
    expect_equivalent(batch.result, engine,
                      protocols::protocol_name(protocol));
    expect_scorers_agree(cfg);
  }
}

// Every protocol against a behavioural adversary (colluding dropper),
// run inside the benign plan's bursts: the cover it needs to drop at
// all. Its log must differ from the same run without it, so a colluder
// that goes silent fails here instead of replaying a clean run.
TEST(Equivalence, AllProtocolsAdversary) {
  for (const auto protocol : kAllProtocols) {
    SCOPED_TRACE(protocols::protocol_name(protocol));
    runner::ExperimentConfig cfg = runner::paper_config(protocol, 3000, 13);
    cfg.link_faults.clear();
    cfg.faults = faults::FaultPlan::parse(kBenignPlan);
    const BatchRun honest = run_with_log(cfg);
    const auto plan = adversary::AdversaryPlan::parse("collude@4:rate=0.5");
    cfg.adversaries.assign(plan.specs.begin(), plan.specs.end());
    const BatchRun batch = run_with_log(cfg);
    ASSERT_EQ(batch.dropped, 0u);
    EXPECT_NE(batch.events, honest.events) << "the colluder never acted";
    ScoreEngine engine;
    for (const obs::Event& e : batch.events) engine.apply(e);
    expect_equivalent(batch.result, engine,
                      protocols::protocol_name(protocol));
    expect_scorers_agree(cfg);
  }
}

// Persistence mode travels through the stream: the kRunConfig prologue
// carries K, and the engine's conviction rule matches the batch one.
TEST(Equivalence, PersistentBlameModeReplays) {
  runner::ExperimentConfig cfg =
      runner::paper_config(protocols::ProtocolKind::kPaai1, 3000, 17);
  cfg.params.blame = protocols::BlameSpec::parse("persistent:3");
  const BatchRun batch = run_with_log(cfg);
  ASSERT_EQ(batch.dropped, 0u);
  ScoreEngine engine;
  for (const obs::Event& e : batch.events) engine.apply(e);
  EXPECT_EQ(engine.config().blame, cfg.params.blame);
  EXPECT_EQ(engine.config().blame.to_string(), "persistent:3");
  expect_equivalent(batch.result, engine, "paai1-persistent");
}

// Same for the window-backed modes: the kRunConfig prologue carries the
// full BlameSpec wire encoding, and every protocol's window ledger replays
// bit-identically from the same forensic events.
TEST(Equivalence, WindowedAndHybridModesReplayAllProtocols) {
  for (const char* spec : {"windowed:64", "hybrid:2,64"}) {
    for (const auto protocol : kAllProtocols) {
      SCOPED_TRACE(std::string(spec) + " / " +
                   protocols::protocol_name(protocol));
      runner::ExperimentConfig cfg =
          runner::paper_config(protocol, 2000, 19);
      cfg.params.blame = protocols::BlameSpec::parse(spec);
      const BatchRun batch = run_with_log(cfg);
      ASSERT_EQ(batch.dropped, 0u);
      ScoreEngine engine;
      for (const obs::Event& e : batch.events) engine.apply(e);
      EXPECT_EQ(engine.config().blame, cfg.params.blame);
      expect_equivalent(batch.result, engine, spec);
    }
  }
}

// Window bookkeeping is passive until a windowed blame mode reads it: a
// margin-mode run must be bit-identical — thetas, conviction set, e2e —
// to the same seed run before windows existed, which the windowed-mode
// run of the same scenario demonstrates by sharing every estimate and
// differing at most in the verdict.
TEST(Equivalence, WindowedNeverAffectsMarginMode) {
  for (const auto protocol : kAllProtocols) {
    SCOPED_TRACE(protocols::protocol_name(protocol));
    runner::ExperimentConfig margin_cfg =
        runner::paper_config(protocol, 2000, 21);
    runner::ExperimentConfig windowed_cfg = margin_cfg;
    windowed_cfg.params.blame = protocols::BlameSpec::parse("windowed:32");
    const runner::ExperimentResult margin =
        runner::run_experiment(margin_cfg);
    const runner::ExperimentResult windowed =
        runner::run_experiment(windowed_cfg);
    EXPECT_EQ(margin.packets_sent, windowed.packets_sent);
    EXPECT_EQ(margin.observations, windowed.observations);
    EXPECT_EQ(margin.observed_e2e_rate, windowed.observed_e2e_rate);
    ASSERT_EQ(margin.final_thetas.size(), windowed.final_thetas.size());
    for (std::size_t i = 0; i < margin.final_thetas.size(); ++i) {
      EXPECT_EQ(margin.final_thetas[i], windowed.final_thetas[i])
          << "theta of l_" << i;
    }
    // The windowed verdict may only ADD convictions (its extra clauses
    // are disjunctive on top of the margin rule).
    for (const std::size_t link : margin.final_convicted) {
      EXPECT_NE(std::find(windowed.final_convicted.begin(),
                          windowed.final_convicted.end(), link),
                windowed.final_convicted.end())
          << "margin conviction of l_" << link << " lost under windowed";
    }
  }
}

// ------------------------------------------------- snapshot / restore

// One protocol per table family: interrupting the stream at an arbitrary
// point, snapshotting, restoring into a fresh engine, and continuing must
// land on the exact same final state as an uninterrupted pass.
TEST(Snapshot, MidStreamRestoreIsLossless) {
  const protocols::ProtocolKind families[] = {
      protocols::ProtocolKind::kPaai1,         // ScoreTable
      protocols::ProtocolKind::kPaai2,         // Paai2ScoreTable
      protocols::ProtocolKind::kStatisticalFl, // FlScoreTable
  };
  for (const auto protocol : families) {
    SCOPED_TRACE(protocols::protocol_name(protocol));
    const BatchRun batch =
        run_with_log(runner::paper_config(protocol, 3000, 23));
    ASSERT_EQ(batch.dropped, 0u);

    ScoreEngine uninterrupted;
    for (const obs::Event& e : batch.events) uninterrupted.apply(e);

    const std::size_t cut = batch.events.size() / 2;
    ScoreEngine first_half;
    for (std::size_t i = 0; i < cut; ++i) first_half.apply(batch.events[i]);
    const std::string snapshot = state_to_string(first_half);

    ScoreEngine resumed;
    std::string error;
    ASSERT_TRUE(load_state(snapshot, &resumed, &error)) << error;
    for (std::size_t i = cut; i < batch.events.size(); ++i) {
      resumed.apply(batch.events[i]);
    }

    expect_equivalent(batch.result, resumed, "resumed");
    EXPECT_EQ(resumed.events_seen(), uninterrupted.events_seen());
    EXPECT_EQ(resumed.events_applied(), uninterrupted.events_applied());
    EXPECT_EQ(resumed.recorded_convictions().size(),
              uninterrupted.recorded_convictions().size());
  }
}

// The windowed modes carry extra per-table state (window bins + ledger);
// a mid-stream snapshot/restore must be lossless for every protocol so a
// resumed serve reaches the exact same verdict — including streak and
// flagrant history that cumulative counters cannot reconstruct.
TEST(Snapshot, WindowedAndHybridMidStreamRestoreIsLossless) {
  for (const char* spec : {"windowed:64", "hybrid:2,64"}) {
    for (const auto protocol : kAllProtocols) {
      SCOPED_TRACE(std::string(spec) + " / " +
                   protocols::protocol_name(protocol));
      runner::ExperimentConfig cfg =
          runner::paper_config(protocol, 2000, 43);
      cfg.params.blame = protocols::BlameSpec::parse(spec);
      const BatchRun batch = run_with_log(cfg);
      ASSERT_EQ(batch.dropped, 0u);

      const std::size_t cut = batch.events.size() / 2;
      ScoreEngine first_half;
      for (std::size_t i = 0; i < cut; ++i) {
        first_half.apply(batch.events[i]);
      }
      const std::string snapshot = state_to_string(first_half);

      ScoreEngine resumed;
      std::string error;
      ASSERT_TRUE(load_state(snapshot, &resumed, &error)) << error;
      EXPECT_EQ(resumed.config().blame, cfg.params.blame);
      for (std::size_t i = cut; i < batch.events.size(); ++i) {
        resumed.apply(batch.events[i]);
      }
      expect_equivalent(batch.result, resumed, spec);

      // The snapshot itself must also round-trip byte-identically (the
      // window objects are part of the canonical serialization).
      ScoreEngine reloaded;
      ASSERT_TRUE(load_state(snapshot, &reloaded, &error)) << error;
      EXPECT_EQ(state_to_string(reloaded), snapshot);
    }
  }
}

/// The snapshot with its table's "window" object cut out.
std::string strip_window(const std::string& snapshot) {
  const std::size_t at = snapshot.find(R"(,"window":{)");
  if (at == std::string::npos) return snapshot;
  // The window object holds arrays only, so its first '}' closes it.
  return snapshot.substr(0, at) +
         snapshot.substr(snapshot.find('}', at) + 1);
}

// Window state restores exactly or not at all. A snapshot whose "window"
// object is missing is rejected for every table family (a clean ledger
// would silently forget streak and flagrant history), and so is one with
// an unsupported window state version, including a version-1 ledger with
// its retired "recent" ring.
TEST(Snapshot, WindowStateFailsClosed) {
  for (const auto protocol : {protocols::ProtocolKind::kPaai1,
                              protocols::ProtocolKind::kPaai2,
                              protocols::ProtocolKind::kStatisticalFl}) {
    SCOPED_TRACE(protocols::protocol_name(protocol));
    runner::ExperimentConfig cfg = runner::paper_config(protocol, 500, 47);
    cfg.params.blame = protocols::BlameSpec::parse("hybrid:4,192");
    const BatchRun batch = run_with_log(cfg);
    ScoreEngine engine;
    for (const obs::Event& e : batch.events) engine.apply(e);
    const std::string snapshot = state_to_string(engine);
    std::string error;
    ScoreEngine intact;
    ASSERT_TRUE(load_state(snapshot, &intact, &error)) << error;

    const std::string stripped = strip_window(snapshot);
    ASSERT_NE(stripped, snapshot);
    ScoreEngine windowless;
    EXPECT_FALSE(load_state(stripped, &windowless, &error)) << stripped;
    EXPECT_NE(error.find("window"), std::string::npos) << error;

    // Tamper: unsupported window state version.
    const std::string versioned = R"("v":2,"w")";
    const std::size_t at = snapshot.find(versioned);
    ASSERT_NE(at, std::string::npos) << snapshot;
    std::string tampered = snapshot;
    tampered.replace(at, versioned.size(), R"("v":9,"w")");
    ScoreEngine rejected;
    EXPECT_FALSE(load_state(tampered, &rejected, &error));
    EXPECT_NE(error.find("window"), std::string::npos) << error;

    // A version-1 ledger, as written before the "recent" ring was retired:
    // refused by its version, not by the ring it still carries.
    std::string old_form = snapshot;
    old_form.replace(at, versioned.size(), R"("v":1,"w")");
    const std::size_t window_end = old_form.find("]}}", at);
    ASSERT_NE(window_end, std::string::npos) << old_form;
    std::string rings = R"(,"recent":[)";
    for (std::size_t i = 0; i < engine.thetas().size(); ++i) {
      rings += i == 0 ? "[0.031]" : ",[0]";
    }
    old_form.insert(window_end + 1, rings + "]");
    ScoreEngine old_engine;
    EXPECT_FALSE(load_state(old_form, &old_engine, &error)) << old_form;
    EXPECT_NE(error.find("table.window.v"), std::string::npos) << error;
  }
}

TEST(Snapshot, StateRoundTripsByteIdentically) {
  const BatchRun batch = run_with_log(
      runner::paper_config(protocols::ProtocolKind::kFullAck, 1000, 29));
  ScoreEngine engine;
  for (const obs::Event& e : batch.events) engine.apply(e);
  const std::string once = state_to_string(engine);
  ScoreEngine reloaded;
  std::string error;
  ASSERT_TRUE(load_state(once, &reloaded, &error)) << error;
  EXPECT_EQ(state_to_string(reloaded), once);
}

TEST(Snapshot, LoadRejectsGarbage) {
  ScoreEngine engine;
  std::string error;
  EXPECT_FALSE(load_state("not json", &engine, &error));
  EXPECT_FALSE(load_state("{}", &engine, &error));
  EXPECT_FALSE(load_state(R"({"schema":"paai.state.v2"})", &engine, &error));
  // Valid schema, wrong table shape.
  EXPECT_FALSE(load_state(
      R"({"schema":"paai.state.v1","protocol":1,"protocol_name":"PAAI-1",)"
      R"("links":6,"threshold":0.018,)"
      R"("persistence":"0","blame":"margin","events_seen":"0",)"
      R"("events_applied":"0",)"
      R"("packets_sent":"0","delivered":"0","run_ended":false,)"
      R"("recorded_convictions":[],)"
      R"("table":{"kind":"onion","s":["0","0"],"n":"0","probes":"0"}})",
      &engine, &error));
  EXPECT_NE(error.find("shape"), std::string::npos);

  // A u64 travels as a decimal string; anything but bare ASCII digits is
  // rejected, never wrapped ("-1" -> 2^64 - 1) or trimmed (" 7" -> 7).
  ScoreEngine source(EngineConfig{protocols::ProtocolKind::kPaai1, 6, 0.018,
                                  protocols::BlameSpec{}});
  source.apply(make_event(obs::EventKind::kDataSend));
  const std::string good = state_to_string(source);
  ASSERT_TRUE(load_state(good, &engine, &error)) << error;
  const std::string key = "\"packets_sent\":\"";
  ASSERT_NE(good.find(key), std::string::npos);
  const std::size_t value = good.find(key) + key.size();
  const std::size_t close = good.find('"', value);
  for (const char* bad : {"-1", "+7", " 7"}) {
    ScoreEngine target;
    EXPECT_FALSE(load_state(good.substr(0, value) + bad + good.substr(close),
                            &target, &error))
        << bad;
    EXPECT_NE(error.find("packets_sent"), std::string::npos) << error;
  }
  // A number literal beyond double range parses to infinity: not finite,
  // so not a threshold.
  const std::string threshold = "\"threshold\":";
  ASSERT_NE(good.find(threshold), std::string::npos);
  const std::size_t number = good.find(threshold) + threshold.size();
  ScoreEngine overflowed;
  EXPECT_FALSE(load_state(good.substr(0, number) + "1e999" +
                              good.substr(good.find(',', number)),
                          &overflowed, &error));
  EXPECT_NE(error.find("threshold"), std::string::npos) << error;
}

/// A snapshot of `protocol`'s table family under blame `spec`, from a
/// synthetic event sequence long enough to close several 64-unit windows,
/// with one conviction record.
std::string synthetic_snapshot(protocols::ProtocolKind protocol,
                               const char* spec) {
  const std::size_t d = 6;
  ScoreEngine engine(
      EngineConfig{protocol, d, 0.018, protocols::BlameSpec::parse(spec)});
  Rng rng(61);
  for (std::uint64_t u = 0; u < 400; ++u) {
    engine.apply(make_event(obs::EventKind::kDataSend));
    if (protocol == protocols::ProtocolKind::kStatisticalFl) {
      std::uint64_t count = 50;
      for (std::size_t node = 0; node <= d; ++node) {
        engine.apply(make_event(obs::EventKind::kFlCount,
                                static_cast<std::int32_t>(node), 0, count));
        count -= rng.next_below(node == 4 ? 6 : 2);
      }
      engine.apply(make_event(obs::EventKind::kScoreClean));
    } else if (protocol == protocols::ProtocolKind::kPaai2) {
      const std::uint64_t e = 1 + rng.next_below(d);
      engine.apply(make_event(rng.bernoulli(e > 4 ? 0.3 : 0.02)
                                  ? obs::EventKind::kScoreBlame
                                  : obs::EventKind::kScoreClean,
                              -1, 0, e));
    } else if (rng.bernoulli(0.05)) {
      engine.apply(make_event(obs::EventKind::kScoreBlame,
                              rng.bernoulli(0.7) ? 4 : 1));
    } else {
      engine.apply(make_event(obs::EventKind::kScoreClean));
    }
  }
  engine.apply(make_event(obs::EventKind::kConviction, 4, 400, 400, 0.03));
  return state_to_string(engine);
}

// Seeded byte flips, truncations and member deletions over one snapshot
// per table family and blame mode, through the shared harness
// (tests/mutation_fuzz.h): load_state must reject a mutant or restore an
// engine whose snapshot reloads to the same snapshot, never throw, crash
// or trip a sanitizer (this suite runs under ASan+UBSan in
// tools/check.sh). Truncated documents and documents missing any member
// the loader reads are always rejected.
TEST(Snapshot, MutationFuzzFailsClosed) {
  const fuzz::Rewrite rewrite =
      [](const std::string& doc) -> std::optional<std::string> {
    ScoreEngine engine;
    if (!load_state(doc, &engine)) return std::nullopt;
    EXPECT_NO_THROW(engine.convicted());
    return state_to_string(engine);
  };
  std::uint64_t seed = 1;
  for (const auto protocol : {protocols::ProtocolKind::kPaai1,
                              protocols::ProtocolKind::kPaai2,
                              protocols::ProtocolKind::kStatisticalFl}) {
    for (const char* spec :
         {"margin", "persistent:3", "windowed:64", "hybrid:4,64"}) {
      SCOPED_TRACE(std::string(protocols::protocol_name(protocol)) + " / " +
                   spec);
      const std::string snapshot = synthetic_snapshot(protocol, spec);
      const fuzz::Tally tally = fuzz::mutation_fuzz(snapshot, seed++, rewrite);
      EXPECT_GT(tally.rejected, 0u);
      const auto deletions = fuzz::member_deletions(snapshot);
      EXPECT_GT(deletions.size(), 30u);
      for (const auto& [member, doc] : deletions) {
        EXPECT_FALSE(rewrite(doc)) << "without " << member;
      }
    }
  }
}

// "protocol_name" configures nothing, but it is required and must be the
// display name of "protocol": a snapshot whose two protocol members
// disagree is corrupt.
TEST(Snapshot, ProtocolNameMustMatchProtocol) {
  const std::string snapshot =
      synthetic_snapshot(protocols::ProtocolKind::kPaai1, "margin");
  const std::string member = R"("protocol_name":"PAAI-1",)";
  const std::size_t at = snapshot.find(member);
  ASSERT_NE(at, std::string::npos) << snapshot;
  const auto with = [&](const std::string& replacement) {
    return snapshot.substr(0, at) + replacement +
           snapshot.substr(at + member.size());
  };
  const std::pair<std::string, std::string> cases[] = {
      {with(""), "missing protocol_name"},
      {with(R"("protocol_name":"PAAI-2",)"), "protocol_name"},
      {with(R"("protocol_name":"paai1",)"), "protocol_name"},
      {with(R"("protocol_name":7,)"), "protocol_name"},
  };
  for (const auto& [doc, want] : cases) {
    ScoreEngine engine;
    std::string error;
    EXPECT_FALSE(load_state(doc, &engine, &error)) << doc;
    EXPECT_NE(error.find(want), std::string::npos) << error;
  }
  ScoreEngine engine;
  std::string error;
  EXPECT_TRUE(load_state(snapshot, &engine, &error)) << error;
}

// Every object of a snapshot rejects a member the loader does not read,
// and the error names the member by its path.
TEST(Snapshot, UnknownMembersAreRejectedByPath) {
  const std::string snapshot =
      synthetic_snapshot(protocols::ProtocolKind::kPaai1, "hybrid:4,64");
  const auto insert = [&](const std::string& after, const char* member) {
    const std::size_t at = snapshot.find(after);
    EXPECT_NE(at, std::string::npos) << after;
    return snapshot.substr(0, at + after.size()) + member +
           snapshot.substr(at + after.size());
  };
  const std::pair<std::string, std::string> cases[] = {
      {insert("{", R"("bogus":{"x":[1,2]},)"), "unknown member bogus"},
      {insert(R"("table":{)", R"("extra":"7",)"),
       "unknown member table.extra"},
      {insert(R"("window":{)", R"("extra":[],)"),
       "unknown member table.window.extra"},
      {insert(R"("recorded_convictions":[{)", R"("extra":true,)"),
       "unknown member recorded_convictions[0].extra"},
      // A repeated member is never resolved silently to either value.
      {insert("{", R"("run_ended":true,)"), "duplicate member run_ended"},
  };
  for (const auto& [doc, want] : cases) {
    ScoreEngine engine;
    std::string error;
    EXPECT_FALSE(load_state(doc, &engine, &error)) << doc;
    EXPECT_NE(error.find(want), std::string::npos) << error;
  }
}

// ------------------------------------------------------------- the engine

TEST(Engine, ScoreEventBeforeConfigThrows) {
  ScoreEngine engine;
  EXPECT_THROW(engine.apply(make_event(obs::EventKind::kScoreClean)),
               std::runtime_error);
  EXPECT_THROW(engine.apply(make_event(obs::EventKind::kDataSend)),
               std::runtime_error);
}

TEST(Engine, RunConfigMismatchThrows) {
  ScoreEngine engine;
  engine.apply(
      run_config_event(protocols::ProtocolKind::kPaai1, 6, 0.018));
  ASSERT_TRUE(engine.configured());
  // Same config again is fine (concatenated identical runs).
  EXPECT_NO_THROW(engine.apply(
      run_config_event(protocols::ProtocolKind::kPaai1, 6, 0.018)));
  EXPECT_THROW(engine.apply(run_config_event(
                   protocols::ProtocolKind::kFullAck, 6, 0.018)),
               std::runtime_error);
  EXPECT_THROW(
      engine.apply(run_config_event(protocols::ProtocolKind::kPaai1, 7,
                                    0.018)),
      std::runtime_error);
}

TEST(Engine, CrossProtocolEventsThrow) {
  ScoreEngine engine(
      EngineConfig{protocols::ProtocolKind::kPaai1, 6, 0.018, {}});
  EXPECT_THROW(engine.apply(make_event(obs::EventKind::kFlCount, 2, 0, 10)),
               std::runtime_error);
  EXPECT_THROW(
      engine.apply(make_event(obs::EventKind::kScoreBlame, /*link=*/9)),
      std::runtime_error);
  EXPECT_THROW(
      engine.apply(make_event(obs::EventKind::kScoreBlame, /*link=*/-1)),
      std::runtime_error);
}

TEST(Engine, ConvictionTransitionsFireOnce) {
  ScoreEngine engine(
      EngineConfig{protocols::ProtocolKind::kPaai1, 6, 0.001, {}});
  // Enough clean mass plus repeated blames of l_3 to cross the margin.
  for (int i = 0; i < 50; ++i) {
    engine.apply(make_event(obs::EventKind::kScoreClean));
  }
  EXPECT_TRUE(engine.take_new_convictions().empty());
  for (int i = 0; i < 50; ++i) {
    engine.apply(make_event(obs::EventKind::kScoreBlame, /*link=*/3));
  }
  const std::vector<std::size_t> fresh = engine.take_new_convictions();
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0], 3u);
  // Already announced: no re-announcement while convicted.
  EXPECT_TRUE(engine.take_new_convictions().empty());
}

/// Allocations made by one take_new_convictions() poll, and its result.
std::uint64_t counted_poll(ScoreEngine& engine,
                           std::vector<std::size_t>* fresh) {
  const std::uint64_t before = g_allocs.load();
  g_count_allocs = true;
  *fresh = engine.take_new_convictions();
  g_count_allocs = false;
  return g_allocs.load() - before;
}

// The serve loop polls take_new_convictions() after every applied event;
// a poll that finds nothing new must not touch the heap — before any
// conviction, while links stay convicted, for every table family.
TEST(Engine, TakeNewConvictionsIsHeapFreeWhenNothingIsNew) {
  std::vector<std::size_t> fresh;
  ScoreEngine onion(
      EngineConfig{protocols::ProtocolKind::kPaai1, 6, 0.001, {}});
  for (int i = 0; i < 50; ++i) {
    onion.apply(make_event(obs::EventKind::kScoreClean));
    EXPECT_EQ(counted_poll(onion, &fresh), 0u);
    EXPECT_TRUE(fresh.empty());
  }
  for (int i = 0; i < 50; ++i) {
    onion.apply(make_event(obs::EventKind::kScoreBlame, /*link=*/3));
    const std::uint64_t allocs = counted_poll(onion, &fresh);
    if (fresh.empty()) {
      EXPECT_EQ(allocs, 0u) << "blame " << i;
    }
  }
  ASSERT_EQ(onion.convicted(), std::vector<std::size_t>{3});
  EXPECT_EQ(counted_poll(onion, &fresh), 0u);  // still convicted
  EXPECT_TRUE(fresh.empty());

  for (const auto protocol : {protocols::ProtocolKind::kPaai2,
                              protocols::ProtocolKind::kStatisticalFl}) {
    SCOPED_TRACE(protocols::protocol_name(protocol));
    const BatchRun batch =
        run_with_log(runner::paper_config(protocol, 3000, 7));
    ScoreEngine engine;
    std::vector<std::size_t> announced;
    std::uint64_t quiet_polls = 0;
    for (const obs::Event& e : batch.events) {
      const std::uint64_t applied = engine.events_applied();
      engine.apply(e);
      if (engine.events_applied() == applied) continue;
      const std::uint64_t allocs = counted_poll(engine, &fresh);
      if (fresh.empty()) {
        ++quiet_polls;
        ASSERT_EQ(allocs, 0u) << "event seq " << e.seq;
      }
      announced.insert(announced.end(), fresh.begin(), fresh.end());
    }
    EXPECT_GT(quiet_polls, 1000u);
    for (const std::size_t link : batch.result.final_convicted) {
      EXPECT_NE(std::find(announced.begin(), announced.end(), link),
                announced.end())
          << "l_" << link << " convicted but never announced";
    }
  }
}

// ------------------------------------------------------- persistence rule

TEST(Persistence, RequiresKRepetitions) {
  protocols::ScoreTable table(6, /*traversals=*/1.0);
  table.set_blame(protocols::BlameSpec::parse("persistent:3"));
  for (int i = 0; i < 200; ++i) table.add_clean();
  table.blame(4);
  table.blame(4);
  // theta(4) ~ 2/202 ≈ 0.0099 — far above a 0.001 threshold, but only two
  // first-failing-hop observations: not convictable yet.
  EXPECT_TRUE(table.convicted(0.001).empty());
  table.blame(4);
  const std::vector<std::size_t> convicted = table.convicted(0.001);
  ASSERT_EQ(convicted.size(), 1u);
  EXPECT_EQ(convicted[0], 4u);
}

TEST(Persistence, ReplacesMarginNotThreshold) {
  protocols::ScoreTable table(6, /*traversals=*/1.0);
  table.set_blame(protocols::BlameSpec::parse("persistent:2"));
  for (int i = 0; i < 100; ++i) table.add_clean();
  table.blame(1);
  table.blame(1);
  // theta(1) ~ 2/102 ≈ 0.0196: above a 0.01 threshold (convict), below a
  // 0.05 threshold (not) — K alone never convicts.
  EXPECT_EQ(table.convicted(0.01).size(), 1u);
  EXPECT_TRUE(table.convicted(0.05).empty());
}

// ------------------------------------------------------ blame spec grammar

TEST(BlameSpec, ParsesEveryModeAndRoundTrips) {
  const char* specs[] = {"margin", "persistent:3", "windowed:192",
                         "hybrid:4,192"};
  for (const char* spec : specs) {
    SCOPED_TRACE(spec);
    const protocols::BlameSpec parsed = protocols::BlameSpec::parse(spec);
    EXPECT_EQ(parsed.to_string(), spec);
    // Wire round trip: encode32 -> decode32 is the kRunConfig path.
    EXPECT_EQ(protocols::BlameSpec::decode32(parsed.encode32()), parsed);
  }
  // Defaults: bare modes pick the calibrated parameters.
  EXPECT_EQ(protocols::BlameSpec::parse("persistent").k,
            protocols::kDefaultPersistence);
  EXPECT_EQ(protocols::BlameSpec::parse("windowed").w,
            protocols::kDefaultWindowWidth);
  const protocols::BlameSpec hybrid = protocols::BlameSpec::parse("hybrid");
  EXPECT_EQ(hybrid.k, protocols::kDefaultHybridStreak);
  EXPECT_EQ(hybrid.w, protocols::kDefaultWindowWidth);
  // Persistent has its own wire tag (3), like windowed (1) and hybrid (2).
  EXPECT_EQ(protocols::BlameSpec::parse("persistent:3").encode32(),
            (3 << 28) | 3);
  EXPECT_EQ(protocols::BlameSpec::parse("margin").encode32(), 0);
}

TEST(BlameSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",             // empty
      "turbo",        // unknown mode
      "margin:1",     // margin takes no argument
      "persistent:0", // K out of range
      "windowed:7",   // below the minimum width
      "windowed:0",   // zero width
      "hybrid:9,64",  // streak above the ring capacity
      "hybrid:2,x",   // non-numeric width
  };
  for (const char* spec : bad) {
    SCOPED_TRACE(spec);
    EXPECT_THROW(protocols::BlameSpec::parse(spec), std::invalid_argument);
  }
  EXPECT_THROW(protocols::BlameSpec::decode32(-1), std::invalid_argument);
  // A bare nonzero count is not a wire encoding.
  EXPECT_THROW(protocols::BlameSpec::decode32(3), std::invalid_argument);
}

// Mutation fuzz over the blame grammar: every mutated spec either throws
// std::invalid_argument or parses to a spec that round-trips through
// to_string() and through the 32-bit wire encoding of kRunConfig events.
TEST(BlameSpec, FuzzedSpecsRejectCleanlyOrRoundTrip) {
  const std::vector<std::string> seeds = {
      "margin", "persistent:3", "windowed:192", "hybrid:4,192", "hybrid",
      "persistent", "windowed:8", "hybrid:8,65536"};
  const std::string charset = "0123456789,:; abcdehilmnprstwyxz-+.";
  Rng rng(20261018);
  std::uint64_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string spec = seeds[rng.next_below(seeds.size())];
    const std::uint64_t edits = rng.next_below(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const char c = charset[rng.next_below(charset.size())];
      const std::uint64_t op = rng.next_below(3);
      if (spec.empty() || op == 2) {
        spec.insert(rng.next_below(spec.size() + 1), 1, c);
      } else if (op == 0) {
        spec[rng.next_below(spec.size())] = c;
      } else {
        spec.erase(rng.next_below(spec.size()), 1);
      }
    }
    protocols::BlameSpec parsed;
    try {
      parsed = protocols::BlameSpec::parse(spec);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    }
    ++accepted;
    EXPECT_EQ(protocols::BlameSpec::parse(parsed.to_string()), parsed)
        << spec;
    EXPECT_EQ(protocols::BlameSpec::decode32(parsed.encode32()), parsed)
        << spec;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// -------------------------------------------------------- event reader

std::string to_jsonl(const std::vector<obs::Event>& events) {
  obs::EventLog log(events.size() + 1);
  for (const obs::Event& e : events) {
    log.append(e.node, e.kind, e.ts_ns, e.link, e.a, e.b, e.value);
  }
  std::ostringstream os;
  log.write_jsonl(os);
  return os.str();
}

TEST(Reader, RoundTripsAndCounts) {
  std::vector<obs::Event> events;
  events.push_back(make_event(obs::EventKind::kDataSend, -1, 42, 7));
  events.push_back(make_event(obs::EventKind::kScoreBlame, 3, 42, 1, 0.5));
  const std::string jsonl = "\n" + to_jsonl(events) + "\n\n";

  std::istringstream is(jsonl);
  obs::EventReader reader(is);
  obs::Event e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);
  EXPECT_EQ(e.kind, obs::EventKind::kDataSend);
  EXPECT_EQ(e.a, 42u);
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);
  EXPECT_EQ(e.kind, obs::EventKind::kScoreBlame);
  EXPECT_EQ(e.link, 3);
  EXPECT_EQ(e.value, 0.5);
  EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEof);
  EXPECT_EQ(reader.events(), 2u);
  EXPECT_EQ(reader.errors(), 0u);
}

TEST(Reader, ErrorsCarryLineNumbersAndReaderSurvives) {
  const std::string good =
      to_jsonl({make_event(obs::EventKind::kDataSend, -1, 1, 0)});
  const std::string jsonl = good + "this is not json\n" + good;
  std::istringstream is(jsonl);
  obs::EventReader reader(is);
  obs::Event e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kError);
  EXPECT_NE(error.find("line 2:"), std::string::npos) << error;
  // Count-and-continue: the reader moves past the bad line.
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);
  EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEof);
  EXPECT_EQ(reader.events(), 2u);
  EXPECT_EQ(reader.errors(), 1u);
}

TEST(Reader, RejectsMistypedFields) {
  // Each line with the field its rejection must name.
  const struct {
    const char* field;
    const char* line;
  } bad_lines[] = {
      // ts_ns as string
      {"ts_ns", R"({"ts_ns":"0","node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})"},
      // unknown kind
      {"kind", R"({"ts_ns":0,"node":0,"seq":0,"kind":"no-such-kind","a":"1","b":"0","v":0})"},
      // a as JSON number instead of a decimal string
      {"a", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":1,"b":"0","v":0})"},
      // missing seq
      {"seq", R"({"ts_ns":0,"node":0,"kind":"data-send","a":"1","b":"0","v":0})"},
      // v as string
      {"v", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":"x"})"},
      // not an object
      {"ts_ns", R"([1,2,3])"},
      // node beyond u16 (used to wrap silently to 4464)
      {"node", R"({"ts_ns":0,"node":70000,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})"},
      // node with a fraction (used to truncate to 1)
      {"node", R"({"ts_ns":0,"node":1.5,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})"},
      // negative node, and a signed zero in an unsigned field
      {"node", R"({"ts_ns":0,"node":-1,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})"},
      {"node", R"({"ts_ns":0,"node":-0,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})"},
      {"seq", R"({"ts_ns":0,"node":0,"seq":-1,"kind":"data-send","a":"1","b":"0","v":0})"},
      // seq in exponent form (a double, not an exact integer)
      {"seq", R"({"ts_ns":0,"node":0,"seq":9e15,"kind":"data-send","a":"1","b":"0","v":0})"},
      // seq beyond u64
      {"seq", R"({"ts_ns":0,"node":0,"seq":18446744073709551616,"kind":"data-send","a":"1","b":"0","v":0})"},
      // link beyond int32 (used to be an undefined double->int cast)
      {"link", R"({"ts_ns":0,"node":0,"seq":0,"kind":"score-blame","link":3e9,"a":"1","b":"0","v":0})"},
      {"link", R"({"ts_ns":0,"node":0,"seq":0,"kind":"score-blame","link":2147483648,"a":"1","b":"0","v":0})"},
      // link -1 is spelled by omitting the key
      {"link", R"({"ts_ns":0,"node":0,"seq":0,"kind":"score-blame","link":-1,"a":"1","b":"0","v":0})"},
      // ts_ns beyond i64, and with a fraction
      {"ts_ns", R"({"ts_ns":9223372036854775808,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})"},
      {"ts_ns", R"({"ts_ns":1.5,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})"},
      // a beyond u64, signed, with a leading zero
      {"a", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"18446744073709551616","b":"0","v":0})"},
      {"a", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"-1","b":"0","v":0})"},
      {"a", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"01","b":"0","v":0})"},
      // leading zero in an integer field
      {"seq", R"({"ts_ns":0,"node":0,"seq":01,"kind":"data-send","a":"1","b":"0","v":0})"},
      // v outside the RFC 8259 grammar, and beyond any double
      {"v", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":.5})"},
      {"v", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":1.})"},
      {"v", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":NaN})"},
      {"v", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":1e400})"},
      // near misses of the `"v":0}` tail
      {"v", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":-})"},
      {"v", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":0.})"},
      {"v", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":00})"},
      {"v", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":0e})"},
      {"v", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":0}})"},
      // non-canonical layout: whitespace, reordered keys, trailing bytes
      {"node", R"({"ts_ns":0, "node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})"},
      {"ts_ns", R"({"node":0,"ts_ns":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":0})"},
      {"v", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":0} )"},
      {"v", R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":0,"x":1})"},
  };
  for (const auto& [field, line] : bad_lines) {
    SCOPED_TRACE(line);
    std::istringstream is(std::string(line) + "\n");
    obs::EventReader reader(is);
    obs::Event e;
    std::string error;
    EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kError);
    EXPECT_EQ(error.rfind("line 1: " + std::string(field) + ": ", 0), 0u)
        << error;
  }
}

// Signed zeros at the edge of the grammar: "v":-0 is accepted and keeps
// its sign bit, but an integer field spelled -0 is not canonical (the
// writer never emits it) and is rejected with the field named.
TEST(Reader, AcceptsSignedZeros) {
  obs::Event e;
  std::string what;
  ASSERT_TRUE(obs::decode_event_line(
      R"({"ts_ns":0,"node":0,"seq":0,"kind":"data-send","a":"1","b":"0","v":-0})",
      &e, &what))
      << what;
  EXPECT_EQ(e.value, 0.0);
  EXPECT_TRUE(std::signbit(e.value));
  EXPECT_FALSE(obs::decode_event_line(
      R"({"ts_ns":-0,"node":0,"seq":0,"kind":"score-blame","link":0,"a":"1","b":"0","v":0})",
      &e, &what));
  EXPECT_EQ(what, "ts_ns: negative zero");
  EXPECT_FALSE(obs::decode_event_line(
      R"({"ts_ns":0,"node":0,"seq":0,"kind":"score-blame","link":-0,"a":"1","b":"0","v":0})",
      &e, &what));
  EXPECT_EQ(what, "link: negative zero");
}

/// The decoder must never be more permissive than strict JSON: a line it
/// accepts parses under json_parse to exactly the same field values.
void expect_json_agrees(const std::string& line, const obs::Event& e) {
  std::string error;
  const auto doc = obs::json_parse(line, &error);
  ASSERT_TRUE(doc.has_value()) << error << " in " << line;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->object.size(), e.link >= 0 ? 8u : 7u) << line;
  EXPECT_EQ(doc->find("ts_ns")->number, static_cast<double>(e.ts_ns));
  EXPECT_EQ(doc->find("node")->number, static_cast<double>(e.node));
  EXPECT_EQ(doc->find("seq")->number, static_cast<double>(e.seq));
  EXPECT_EQ(doc->find("kind")->string, obs::event_kind_name(e.kind));
  const obs::JsonValue* link = doc->find("link");
  if (e.link >= 0) {
    ASSERT_NE(link, nullptr) << line;
    EXPECT_EQ(link->number, static_cast<double>(e.link));
  } else {
    EXPECT_EQ(link, nullptr) << line;
  }
  EXPECT_EQ(doc->find("a")->string, std::to_string(e.a));
  EXPECT_EQ(doc->find("b")->string, std::to_string(e.b));
  const obs::JsonValue* v = doc->find("v");
  EXPECT_EQ(v->is_null() ? 0.0 : v->number, e.value) << line;
}

/// One canonical line (newline stripped) of every event kind, with and
/// without `link`, across the `v` spellings the writer emits (0, null,
/// -0, a tiny exponent, the 17-digit threshold) and with a 20-digit `a`
/// on every other line.
std::vector<std::string> reader_fuzz_lines() {
  const double values[] = {0.0, std::numeric_limits<double>::quiet_NaN(),
                           -0.0, 1e-300, 0.018};
  std::vector<std::string> out;
  for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
    for (const std::int32_t link : {-1, 4}) {
      for (const double v : values) {
        const std::uint64_t a =
            out.size() % 2 == 0 ? 12345678901234567890ULL : 0xdeadbeefULL;
        obs::Event e =
            make_event(static_cast<obs::EventKind>(k), link, a, 9, v);
        e.ts_ns = 1'000'000'007;
        e.node = 3;
        const std::string line = to_jsonl({e});
        out.push_back(line.substr(0, line.size() - 1));  // strip '\n'
      }
    }
  }
  return out;
}

// Fuzz-style: every strict prefix of a valid line must be rejected (a
// truncated tail from a killed producer), and deterministic byte
// corruption must never crash the reader — it either still parses or
// reports a line-numbered error. Every mutated line the decoder accepts
// must also be accepted by json_parse with the same field values.
TEST(Reader, TruncationAndCorruptionFuzz) {
  const std::vector<std::string> bodies = reader_fuzz_lines();
  ASSERT_EQ(bodies.size(), obs::kEventKindCount * 2 * 5);
  for (const std::string& body : bodies) {
    SCOPED_TRACE(body);
    obs::Event e;
    std::string error;
    ASSERT_TRUE(obs::decode_event_line(body, &e, &error)) << error;
    expect_json_agrees(body, e);

    for (std::size_t len = 1; len < body.size(); ++len) {
      std::istringstream is(body.substr(0, len) + "\n");
      obs::EventReader reader(is);
      EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kError)
          << "prefix length " << len;
    }

    // The same prefixes WITHOUT the newline: a torn tail must be rejected
    // as unterminated even when the fragment would parse as valid JSON.
    for (std::size_t len = 1; len <= body.size(); ++len) {
      std::istringstream is(body.substr(0, len));
      obs::EventReader reader(is);
      EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kError)
          << "unterminated prefix length " << len;
      EXPECT_NE(error.find("unterminated"), std::string::npos) << error;
    }
  }

  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  auto next_rand = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  // Mutation alphabet: any byte, or one of the grammar's own characters
  // (so many mutants stay well-formed enough to reach the value checks).
  static constexpr char kGrammar[] = "0123456789-+.eE\"{}:,nul \\";
  std::size_t accepted = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    std::string mutated = bodies[static_cast<std::size_t>(trial) % bodies.size()];
    const std::size_t edits = 1 + next_rand() % 4;
    for (std::size_t f = 0; f < edits; ++f) {
      const std::size_t at = next_rand() % mutated.size();
      const char c = trial % 2 == 0
                         ? static_cast<char>(next_rand() % 256)
                         : kGrammar[next_rand() % (sizeof kGrammar - 1)];
      switch (next_rand() % 3) {
        case 0:
          mutated[at] = c;
          break;
        case 1:
          mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(at), c);
          break;
        default:
          if (mutated.size() > 1) {
            mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(at));
          }
      }
    }
    std::istringstream is(mutated + "\n");
    obs::EventReader reader(is);
    obs::Event e;
    std::string error;
    const auto status = reader.next(&e, &error);
    if (status == obs::EventReader::Status::kError) {
      EXPECT_NE(error.find("line"), std::string::npos);
    }
    if (obs::decode_event_line(mutated, &e, &error)) {
      ++accepted;
      SCOPED_TRACE(mutated);
      expect_json_agrees(mutated, e);
    }
  }
  // The differential must not be vacuous.
  EXPECT_GT(accepted, 100u);
}

// `paai serve` reads every event through one EventReader: once the first
// line has sized its buffer, framing and decoding touch no heap.
TEST(Reader, NextIsHeapFreeAfterTheFirstLine) {
  const std::vector<std::string> bodies = reader_fuzz_lines();
  std::string jsonl;
  for (int i = 0; i < 3000; ++i) {
    jsonl += bodies[static_cast<std::size_t>(i) % bodies.size()];
    jsonl += '\n';
  }
  std::istringstream is(jsonl);
  obs::EventReader reader(is);
  obs::Event e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);

  const std::uint64_t before = g_allocs.load();
  g_count_allocs = true;
  std::size_t events = 1;
  while (reader.next(&e, &error) == obs::EventReader::Status::kEvent) {
    ++events;
  }
  g_count_allocs = false;
  EXPECT_EQ(g_allocs.load() - before, 0u);
  EXPECT_EQ(events, 3000u);
  EXPECT_EQ(reader.errors(), 0u);
}

// A stream that ends mid-line (killed producer, torn pipe) must be a
// line-numbered hard error, not a silently-parsed fragment.
TEST(Reader, UnterminatedFinalLineIsError) {
  const std::string line = to_jsonl(
      {make_event(obs::EventKind::kDataSend, -1, 1, 0)});
  const std::string body = line.substr(0, line.size() - 1);  // strip '\n'
  std::istringstream is(line + body);  // good line, then truncated tail
  obs::EventReader reader(is);
  obs::Event e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kError);
  EXPECT_NE(error.find("line 2:"), std::string::npos) << error;
  EXPECT_NE(error.find("unterminated"), std::string::npos) << error;
  EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEof);
  EXPECT_EQ(reader.errors(), 1u);
}

// A newline-free garbage line longer than the cap must fail fast with the
// line number — bounded buffering, never an O(stream) allocation — and
// the reader must stay usable on the next line.
TEST(Reader, OversizedLineFailsFastAndReaderSurvives) {
  const std::string good = to_jsonl(
      {make_event(obs::EventKind::kDataSend, -1, 1, 0)});
  const std::string huge(obs::EventReader::kMaxLineBytes + 16, 'x');
  std::istringstream is(good + huge + "\n" + good);
  obs::EventReader reader(is);
  obs::Event e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kError);
  EXPECT_NE(error.find("line 2:"), std::string::npos) << error;
  EXPECT_NE(error.find("maximum line length"), std::string::npos) << error;
  // Count-and-continue: the oversized tail was discarded, line 3 parses.
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);
  EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEof);
  EXPECT_EQ(reader.events(), 2u);
  EXPECT_EQ(reader.errors(), 1u);
}

// An oversized line that is ALSO the unterminated tail reports the length
// cap (the earlier, more specific failure).
TEST(Reader, OversizedUnterminatedTailIsError) {
  const std::string huge(obs::EventReader::kMaxLineBytes + 16, 'x');
  std::istringstream is(huge);  // no newline at all
  obs::EventReader reader(is);
  obs::Event e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kError);
  EXPECT_NE(error.find("line 1:"), std::string::npos) << error;
  EXPECT_NE(error.find("maximum line length"), std::string::npos) << error;
  EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEof);
}

// The length cap is exact: a line of kMaxLineBytes bytes (here a valid
// event whose v carries trailing zeros) is read, one byte more is the
// oversize error, and bytes() accounts for every byte either way.
TEST(Reader, MaxLengthLineIsAcceptedOneMoreIsOversized) {
  const std::string head =
      R"({"ts_ns":1,"node":0,"seq":0,"kind":"data-send","a":"7","b":"0","v":0.25)";
  const std::size_t pad = obs::EventReader::kMaxLineBytes - head.size() - 1;
  const std::string exact = head + std::string(pad, '0') + "}";
  ASSERT_EQ(exact.size(), obs::EventReader::kMaxLineBytes);
  const std::string over = head + std::string(pad + 1, '0') + "}";
  const std::string good =
      to_jsonl({make_event(obs::EventKind::kDataSend, -1, 1, 0)});
  const std::string text = exact + "\n" + over + "\n" + good;

  std::istringstream is(text);
  obs::EventReader reader(is);
  obs::Event e;
  std::string error;
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent)
      << error;
  EXPECT_EQ(e.a, 7u);
  EXPECT_EQ(e.value, 0.25);
  EXPECT_EQ(reader.bytes(), exact.size() + 1);
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kError);
  EXPECT_NE(error.find("line 2:"), std::string::npos) << error;
  EXPECT_NE(error.find("maximum line length"), std::string::npos) << error;
  ASSERT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEvent);
  EXPECT_EQ(reader.next(&e, &error), obs::EventReader::Status::kEof);
  EXPECT_EQ(reader.bytes(), text.size());
  EXPECT_EQ(reader.line(), 3u);
}

// bytes() is the stream size after a full read, whatever the lines were:
// blank, malformed, oversized (skipped unstored), or a torn tail.
TEST(Reader, BytesCountTheWholeStream) {
  const std::string good = to_jsonl(
      {make_event(obs::EventKind::kDataSend, -1, 1, 0),
       make_event(obs::EventKind::kScoreBlame, 2, 9, 1, 0.5)});
  const std::string text = "\n" + good + "garbage\n" +
                           std::string(obs::EventReader::kMaxLineBytes + 5,
                                       'x') +
                           "\n\n" + good + good.substr(0, 20);
  std::istringstream is(text);
  obs::EventReader reader(is);
  obs::Event e;
  std::uint64_t events = 0;
  std::uint64_t errors = 0;
  for (;;) {
    const auto status = reader.next(&e);
    if (status == obs::EventReader::Status::kEof) break;
    (status == obs::EventReader::Status::kEvent ? events : errors) += 1;
  }
  EXPECT_EQ(events, 4u);
  EXPECT_EQ(errors, 3u);  // garbage, oversized, unterminated tail
  EXPECT_EQ(reader.bytes(), text.size());
}

// The reader consumes its line and nothing more, and leaves the stream's
// state as it found it: tellg() is exact after each event and at EOF,
// which the CLI's backlog probe and FIFO tailing rely on.
TEST(Reader, LeavesTheRestOfTheStreamUnread) {
  const std::string line =
      to_jsonl({make_event(obs::EventKind::kDataSend, -1, 1, 0)});
  const std::string rest = "not for the reader\n";
  std::istringstream is(line + rest);
  obs::EventReader reader(is);
  obs::Event e;
  ASSERT_EQ(reader.next(&e), obs::EventReader::Status::kEvent);
  EXPECT_EQ(static_cast<std::size_t>(is.tellg()), line.size());
  EXPECT_TRUE(is.good());
  std::string tail;
  ASSERT_TRUE(std::getline(is, tail));
  EXPECT_EQ(tail + "\n", rest);

  std::istringstream whole(line);
  obs::EventReader to_end(whole);
  ASSERT_EQ(to_end.next(&e), obs::EventReader::Status::kEvent);
  ASSERT_EQ(to_end.next(&e), obs::EventReader::Status::kEof);
  EXPECT_TRUE(whole.good());
  EXPECT_EQ(static_cast<std::size_t>(whole.tellg()), line.size());
}

TEST(Reader, ReadJsonlWrapperFailsClosed) {
  std::istringstream is("garbage\n");
  std::string error;
  const std::vector<obs::Event> events = obs::EventLog::read_jsonl(is, &error);
  EXPECT_TRUE(events.empty());
  EXPECT_NE(error.find("line 1:"), std::string::npos);
}

// ------------------------------------------------------------- the service

TEST(Service, FailFastStopsAtFirstBadLine) {
  const std::string good =
      to_jsonl({make_event(obs::EventKind::kDataSend, -1, 1, 0)});
  std::istringstream is(good + "garbage\n" + good);
  ScoreEngine engine(
      EngineConfig{protocols::ProtocolKind::kPaai1, 6, 0.018, {}});
  std::ostringstream log;
  ServeConfig cfg;
  cfg.fail_fast = true;
  const ServeReport report = serve_stream(engine, is, log, cfg);
  EXPECT_TRUE(report.failed);
  EXPECT_EQ(report.events, 1u);
  EXPECT_EQ(report.parse_errors, 1u);
  EXPECT_NE(report.error.find("line 2:"), std::string::npos);
}

TEST(Service, SkipMalformedContinues) {
  const std::string good =
      to_jsonl({make_event(obs::EventKind::kDataSend, -1, 1, 0)});
  std::istringstream is(good + "garbage\n" + good);
  ScoreEngine engine(
      EngineConfig{protocols::ProtocolKind::kPaai1, 6, 0.018, {}});
  std::ostringstream log;
  ServeConfig cfg;
  cfg.fail_fast = false;
  const ServeReport report = serve_stream(engine, is, log, cfg);
  EXPECT_FALSE(report.failed);
  EXPECT_EQ(report.events, 2u);
  EXPECT_EQ(report.parse_errors, 1u);
  EXPECT_EQ(engine.packets_sent(), 2u);
}

TEST(Service, StopFlagDrainsImmediately) {
  std::istringstream is(
      to_jsonl({make_event(obs::EventKind::kDataSend, -1, 1, 0)}));
  ScoreEngine engine(
      EngineConfig{protocols::ProtocolKind::kPaai1, 6, 0.018, {}});
  std::ostringstream log;
  const volatile std::sig_atomic_t stop = 1;
  const ServeReport report =
      serve_stream(engine, is, log, ServeConfig{}, &stop);
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.events, 0u);
}

TEST(Service, SnapshotsAreReloadable) {
  const BatchRun batch = run_with_log(
      runner::paper_config(protocols::ProtocolKind::kPaai1, 1000, 31));
  std::ostringstream jsonl;
  {
    obs::EventLog log(batch.events.size() + 1);
    for (const obs::Event& e : batch.events) {
      log.append(e.node, e.kind, e.ts_ns, e.link, e.a, e.b, e.value);
    }
    log.write_jsonl(jsonl);
  }
  const std::string state_path =
      testing::TempDir() + "/stream_test_state.json";
  std::istringstream is(jsonl.str());
  ScoreEngine engine;
  std::ostringstream log;
  ServeConfig cfg;
  cfg.state_out = state_path;
  cfg.snapshot_every = 100;
  const ServeReport report = serve_stream(engine, is, log, cfg);
  EXPECT_FALSE(report.failed) << report.error;
  EXPECT_GE(report.snapshots, 2u);  // periodic + exit

  std::ifstream in(state_path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  ScoreEngine restored;
  std::string error;
  ASSERT_TRUE(load_state(buf.str(), &restored, &error)) << error;
  expect_equivalent(batch.result, restored, "from exit snapshot");
}

/// The u64 member `key` of a one-line JSON object (written as a quoted
/// decimal string); 0 when absent.
std::uint64_t json_u64(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\":\"");
  if (at == std::string::npos) return 0;
  return std::stoull(line.substr(at + key.size() + 4));
}

// A stat-FL interval lands as one fl-count per node, then its
// score-clean. Between the fl-counts the estimator reads half-folded
// sums (theta 1 on links whose downstream count has not arrived), so a
// live serve announces nothing there: every announcement follows a
// non-fl-count event and reports observations.
TEST(Service, StatFlAnnouncesOnlyAtIntervalBoundaries) {
  std::size_t total_announced = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    runner::ExperimentConfig run_cfg = runner::paper_config(
        protocols::ProtocolKind::kStatisticalFl, 8000, seed);
    run_cfg.link_faults = {{4, 0.05}};
    const std::string jsonl = to_jsonl(run_with_log(run_cfg).events);
    std::vector<std::string> lines;
    {
      std::istringstream split(jsonl);
      for (std::string line; std::getline(split, line);) {
        lines.push_back(line);
      }
    }
    std::istringstream is(jsonl);
    ScoreEngine engine;
    std::ostringstream log;
    const ServeReport report = serve_stream(engine, is, log, ServeConfig{});
    ASSERT_FALSE(report.failed) << report.error;
    std::istringstream announcements(log.str());
    std::size_t announced = 0;
    for (std::string line; std::getline(announcements, line);) {
      if (line.find("\"kind\":\"conviction\"") == std::string::npos) {
        continue;
      }
      ++announced;
      EXPECT_GT(json_u64(line, "observations"), 0u)
          << "seed " << seed << ": " << line;
      const std::uint64_t at = json_u64(line, "events");
      ASSERT_GE(at, 1u);
      ASSERT_LE(at, lines.size());
      EXPECT_EQ(lines[at - 1].find("\"fl-count\""), std::string::npos)
          << "seed " << seed << ": announced after " << lines[at - 1];
    }
    EXPECT_EQ(announced, report.new_convictions.size());
    total_announced += announced;
  }
  EXPECT_GT(total_announced, 0u);
}

// --------------------------------------------------------- the producer

TEST(Producer, StreamsADropFreeLog) {
  std::ostringstream os;
  const runner::StreamProduceResult produced = runner::run_experiment_to_stream(
      runner::paper_config(protocols::ProtocolKind::kPaai1, 1000, 37), os);
  EXPECT_EQ(produced.events_dropped, 0u);
  EXPECT_GT(produced.events_recorded, 0u);

  std::istringstream is(os.str());
  ScoreEngine engine;
  std::ostringstream log;
  const ServeReport report = serve_stream(engine, is, log, ServeConfig{});
  EXPECT_FALSE(report.failed) << report.error;
  expect_equivalent(produced.result, engine, "producer stream");
}

/// `cfg`'s log as the ring export writes it: a drop-free ring log, then
/// write_jsonl().
std::string ring_export(runner::ExperimentConfig cfg) {
  obs::EventLog log(runner::drop_free_events_cap(cfg.params.total_packets));
  cfg.path.events = &log;
  runner::run_experiment(cfg);
  EXPECT_EQ(log.dropped(), 0u);
  std::ostringstream os;
  log.write_jsonl(os);
  return os.str();
}

// The write-through producer writes the ring export's bytes — the same
// lines in the same (ts_ns, node, seq) order — for every protocol on the
// reference scenario, under the benign burst plan, against a colluding
// adversary inside it, and across a node crash and restart.
TEST(Producer, WriteThroughEqualsTheRingExport) {
  const auto collude = adversary::AdversaryPlan::parse("collude@4:rate=1");
  for (const auto protocol : kAllProtocols) {
    const runner::ExperimentConfig reference =
        runner::paper_config(protocol, 2000, 43);
    runner::ExperimentConfig benign = reference;
    benign.faults = faults::FaultPlan::parse(kBenignPlan);
    runner::ExperimentConfig adversary = benign;
    adversary.link_faults.clear();
    adversary.adversaries.assign(collude.specs.begin(), collude.specs.end());
    runner::ExperimentConfig crash = reference;
    crash.faults = faults::FaultPlan::parse("outage@3:t=5,dur=2");
    const struct {
      const char* name;
      const runner::ExperimentConfig& cfg;
    } cases[] = {{"reference", reference},
                 {"benign", benign},
                 {"collude", adversary},
                 {"crash", crash}};
    for (const auto& c : cases) {
      SCOPED_TRACE(std::string(protocols::protocol_name(protocol)) + " / " +
                   c.name);
      const std::string ring = ring_export(c.cfg);
      std::ostringstream os;
      const runner::StreamProduceResult produced =
          runner::run_experiment_to_stream(c.cfg, os);
      EXPECT_EQ(produced.events_dropped, 0u);
      EXPECT_EQ(produced.events_recorded,
                static_cast<std::uint64_t>(
                    std::count(ring.begin(), ring.end(), '\n')));
      EXPECT_EQ(os.str().size(), ring.size());
      EXPECT_TRUE(os.str() == ring);
      if (&c.cfg == &crash) {
        EXPECT_NE(ring.find("\"node-crash\""), std::string::npos);
        EXPECT_NE(ring.find("\"node-restart\""), std::string::npos);
      }
    }
  }
}

// ------------------------------------------------------ the audit trail

/// `events` read back as `paai explain` reads a file: JSONL, line by line.
bool explain_jsonl(const std::vector<obs::Event>& events, AuditTrail& trail,
                   std::string* error) {
  std::string jsonl;
  char line[obs::kEventLineMaxBytes];
  for (const obs::Event& e : events) {
    jsonl.append(line, obs::encode_event_line(e, line));
  }
  std::istringstream is(jsonl);
  return read_audit_trail(is, trail, error);
}

std::string render(const AuditTrail& trail) {
  std::ostringstream os;
  trail.write(os);
  return os.str();
}

std::vector<std::size_t> verdict_links(const ScoreEngine& engine) {
  std::vector<std::size_t> out;
  for (const ConvictionRecord& rec : engine.verdict()) out.push_back(rec.link);
  return out;
}

// The acceptance scenario: PAAI-1, adversary planted at l_3. The audit
// trail replayed from the event log must name exactly the links the
// run's own verdict convicted, and the rule convicts l_3 later than its
// first blame (one blamed observation is not a margin crossing).
TEST(Forensics, ConvictionAuditMatchesVerdict) {
  runner::ExperimentConfig cfg =
      runner::paper_config(protocols::ProtocolKind::kPaai1, 20000, 1);
  cfg.link_faults.clear();
  cfg.link_faults.push_back(runner::LinkFault{3, 0.02});
  const BatchRun batch = run_with_log(cfg);
  ASSERT_EQ(batch.dropped, 0u);
  const runner::ExperimentResult& r = batch.result;
  ASSERT_FALSE(r.final_convicted.empty());

  AuditTrail trail;
  std::string error;
  ASSERT_TRUE(explain_jsonl(batch.events, trail, &error)) << error;
  EXPECT_EQ(trail.engine().config().threshold, cfg.decision_threshold);
  EXPECT_EQ(trail.engine().packets_sent(), r.packets_sent);
  EXPECT_EQ(trail.engine().observations(), r.observations);

  // Final verdicts in the trail == the run's convicted set.
  EXPECT_EQ(verdict_links(trail.engine()), r.final_convicted);

  const std::string text = render(trail);
  EXPECT_NE(text.find("CONVICTED l_3"), std::string::npos) << text;
  EXPECT_NE(text.find("blames:"), std::string::npos);
  EXPECT_NE(text.find("score trajectory"), std::string::npos);
  EXPECT_NE(text.find("--blame=margin convicts it since t="),
            std::string::npos)
      << text;

  const AuditTrail::LinkExhibit& l3 = trail.links().at(3);
  ASSERT_GE(l3.first_blame_ns, 0);
  EXPECT_GT(l3.entered_ns, l3.first_blame_ns);
  EXPECT_EQ(l3.trajectory.size(), l3.blames);
  EXPECT_EQ(trail.engine().thetas(), r.final_thetas);
}

// A checkpoint conviction is not the verdict: only the records stamped
// with the run-end packet count are, and without a run-end the verdict
// is unknown.
TEST(Forensics, VerdictIsTheRunEndRecords) {
  obs::EventLog log;
  log.append(0, obs::EventKind::kRunStart, 0, -1, 2000, 1, 0.018);
  log.append(0, obs::EventKind::kRunConfig, 0, 0,
             static_cast<std::uint64_t>(protocols::ProtocolKind::kPaai1), 6,
             0.018);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    log.append(0, obs::EventKind::kDataSend, 5, -1, i, i);
  }
  // Checkpoint at 1000 packets: l_0 (a false positive) and l_4.
  log.append(0, obs::EventKind::kConviction, 10, 0, 1000, 40, 0.032);
  log.append(0, obs::EventKind::kConviction, 10, 4, 1000, 40, 0.05);
  for (std::uint64_t i = 1000; i < 2000; ++i) {
    log.append(0, obs::EventKind::kDataSend, 15, -1, i, i);
  }
  // Final verdict at 2000 packets: l_4 only.
  log.append(0, obs::EventKind::kConviction, 20, 4, 2000, 80, 0.045);
  const std::vector<obs::Event> head = log.merged();
  log.append(0, obs::EventKind::kRunEnd, 20, -1, 2000, 80);

  AuditTrail trail;
  std::string error;
  ASSERT_TRUE(explain_jsonl(log.merged(), trail, &error)) << error;
  const std::vector<ConvictionRecord> verdict = trail.engine().verdict();
  ASSERT_EQ(verdict.size(), 1u);
  EXPECT_EQ(verdict[0].link, 4u);
  EXPECT_EQ(verdict[0].theta, 0.045);
  const std::string text = render(trail);
  EXPECT_NE(text.find("CONVICTED l_4"), std::string::npos) << text;
  EXPECT_EQ(text.find("CONVICTED l_0"), std::string::npos) << text;

  AuditTrail partial;
  ASSERT_TRUE(explain_jsonl(head, partial, &error)) << error;
  EXPECT_TRUE(partial.engine().verdict().empty());
  const std::string partial_text = render(partial);
  EXPECT_NE(partial_text.find("verdict: unknown"), std::string::npos)
      << partial_text;
  EXPECT_EQ(partial_text.find("CONVICTED"), std::string::npos);
}

// Records that need no configuration (a conviction, here) may precede
// the run-config; the per-link exhibit still takes the configured shape.
TEST(Forensics, RecordsBeforeRunConfigKeepTheConfiguredShape) {
  obs::EventLog log;
  log.append(0, obs::EventKind::kConviction, 0, 8, 0, 0, 0.5);
  log.append(0, obs::EventKind::kRunConfig, 1, 0,
             static_cast<std::uint64_t>(protocols::ProtocolKind::kPaai1), 10,
             0.018);
  log.append(0, obs::EventKind::kDataSend, 2, -1, 7, 0);
  log.append(0, obs::EventKind::kScoreBlame, 3, 8, 7, 0);
  AuditTrail trail;
  std::string error;
  ASSERT_TRUE(explain_jsonl(log.merged(), trail, &error)) << error;
  ASSERT_EQ(trail.links().size(), 10u);
  EXPECT_EQ(trail.links()[8].blames, 1u);
  EXPECT_EQ(trail.links()[8].first_blame_ns, 3);
}

// PAAI-2 blames prefixes and stat-FL counts packets, so neither names a
// link in a blame; the trail still lists every link with the engine's
// final theta, bit-equal to the batch run's.
TEST(Forensics, EveryFamilyListsEveryLinkWithTheEngineTheta) {
  for (const auto protocol : {protocols::ProtocolKind::kPaai2,
                              protocols::ProtocolKind::kStatisticalFl}) {
    SCOPED_TRACE(protocols::protocol_name(protocol));
    const BatchRun batch =
        run_with_log(runner::paper_config(protocol, 20000, 3));
    ASSERT_EQ(batch.dropped, 0u);
    AuditTrail trail;
    std::string error;
    ASSERT_TRUE(explain_jsonl(batch.events, trail, &error)) << error;
    EXPECT_EQ(trail.engine().thetas(), batch.result.final_thetas);
    EXPECT_EQ(verdict_links(trail.engine()), batch.result.final_convicted);

    const std::string text = render(trail);
    const std::vector<double>& thetas = batch.result.final_thetas;
    for (std::size_t link = 0; link < thetas.size(); ++link) {
      const bool convicted =
          std::binary_search(batch.result.final_convicted.begin(),
                             batch.result.final_convicted.end(), link);
      char want[96];
      std::snprintf(want, sizeof want,
                    convicted ? "CONVICTED l_%zu  theta %.6g"
                              : "l_%zu: theta %.6g",
                    link, thetas[link]);
      EXPECT_NE(text.find(want), std::string::npos) << want << "\n" << text;
    }
    EXPECT_NE(text.find("not convicted under --blame=margin"),
              std::string::npos)
        << text;
  }
}

// A log cut before its run-config cannot be replayed: explain reports
// the first event it cannot score, by line, and renders no trail. So do
// a ring-truncated log (the ring keeps the newest events) and an empty
// one.
TEST(Forensics, LogWithoutRunConfigIsAnError) {
  const BatchRun batch = run_with_log(
      runner::paper_config(protocols::ProtocolKind::kPaai1, 2000, 5));
  std::vector<obs::Event> cut = batch.events;
  const auto config = std::find_if(cut.begin(), cut.end(), [](const auto& e) {
    return e.kind == obs::EventKind::kRunConfig;
  });
  ASSERT_NE(config, cut.end());
  cut.erase(cut.begin(), config + 1);
  AuditTrail trail;
  std::string error;
  EXPECT_FALSE(explain_jsonl(cut, trail, &error));
  EXPECT_EQ(error.rfind("line ", 0), 0u) << error;
  EXPECT_NE(error.find("before any run-config"), std::string::npos) << error;

  runner::ExperimentConfig cfg =
      runner::paper_config(protocols::ProtocolKind::kPaai1, 2000, 5);
  obs::EventLog ring(4096);
  cfg.path.events = &ring;
  runner::run_experiment(cfg);
  ASSERT_GT(ring.dropped(), 0u);
  AuditTrail truncated;
  EXPECT_FALSE(explain_jsonl(ring.merged(), truncated, &error));
  EXPECT_NE(error.find("run-config"), std::string::npos) << error;

  AuditTrail empty;
  EXPECT_FALSE(explain_jsonl({}, empty, &error));
  EXPECT_NE(error.find("no run-config"), std::string::npos) << error;
}

}  // namespace
}  // namespace paai::stream
