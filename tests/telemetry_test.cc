// Tests for the live telemetry plane (obs/telemetry.h, obs/profile.h):
// schema round-trip through the strict parser (write -> parse -> rewrite
// must be byte-identical), fail-closed rejection of malformed lines (v2
// lines included), delta encoding across registry resets, tick cadence,
// exclusive phase self time under nested scopes, the observational
// guarantee (the registry on/off and telemetry attached/detached never
// change simulation results, bit for bit, for all seven protocols), and
// serve back-pressure under a throttled consumer. The concurrency test at
// the bottom races producers against the sampler and runs under TSan in
// tools/check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mutation_fuzz.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "runner/experiment.h"
#include "stream/engine.h"
#include "stream/service.h"

namespace paai::obs {
namespace {

struct RegistryGuard {
  RegistryGuard() {
    MetricsRegistry::global().reset();
    MetricsRegistry::global().set_enabled(true);
  }
  ~RegistryGuard() {
    MetricsRegistry::global().set_enabled(false);
    MetricsRegistry::global().reset();
  }
};

TelemetrySample make_sample() {
  TelemetrySample s;
  s.sample = 3;
  s.wall_ns = 123456789;
  s.virt_ns = 5000000000ull;
  s.units = 499;
  s.counters.push_back({"phase.crypto.calls", 3370});
  s.counters.push_back({"phase.crypto.ns", 616254});
  s.counters.push_back({"phase.sim-loop.calls", 9209});
  s.counters.push_back({"phase.sim-loop.ns", 910618953});
  s.counters.push_back({"proto.score.updates", 496});
  s.counters.push_back({"sim.link.0.tx_bytes", 18446744073709551615ull});
  s.gauges.push_back(GaugeSnapshot{"sim.queue_depth", 0, 30});
  s.gauges.push_back(GaugeSnapshot{"stream.serve.backlog_bytes", -7, 98326});
  return s;
}

std::string to_line(const TelemetrySample& s) {
  std::ostringstream os;
  write_telemetry_line(os, s);
  return os.str();
}

TEST(TelemetrySchema, RoundTripByteIdentical) {
  const std::string first = to_line(make_sample());
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.back(), '\n');

  TelemetrySample parsed;
  std::string error;
  ASSERT_TRUE(parse_telemetry_line(
      std::string_view(first).substr(0, first.size() - 1), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.sample, 3u);
  EXPECT_EQ(parsed.units, 499u);
  ASSERT_EQ(parsed.counters.size(), 6u);
  EXPECT_EQ(parsed.counters[3].first, "phase.sim-loop.ns");
  EXPECT_EQ(parsed.counters[3].second, 910618953u);
  EXPECT_EQ(parsed.counters[5].second, 18446744073709551615ull);
  ASSERT_EQ(parsed.gauges.size(), 2u);
  EXPECT_EQ(parsed.gauges[0].high, 30);
  EXPECT_EQ(parsed.gauges[1].value, -7);
  EXPECT_EQ(parsed.gauges[1].high, 98326);

  EXPECT_EQ(to_line(parsed), first);  // byte-identical rewrite
}

TEST(TelemetrySchema, EmptyContainersStillRoundTrip) {
  TelemetrySample s;
  s.sample = 0;
  const std::string line = to_line(s);
  EXPECT_NE(line.find("\"counters\":{}"), std::string::npos);
  EXPECT_NE(line.find("\"gauges\":{}}"), std::string::npos);
  TelemetrySample parsed;
  ASSERT_TRUE(parse_telemetry_line(
      std::string_view(line).substr(0, line.size() - 1), &parsed));
  EXPECT_EQ(to_line(parsed), line);
}

TEST(TelemetryLog, TornTailBadLineAndNonMonotoneIndex) {
  TelemetrySample s = make_sample();
  std::string text;
  for (const std::uint64_t index : {3, 5, 4, 6}) {  // 4 does not advance
    s.sample = index;
    text += to_line(s);
    if (index == 5) text += "{\"schema\":\"bogus\"}\n\n";
  }
  s.sample = 7;
  const std::string complete = to_line(s);
  std::istringstream in(text + complete.substr(0, complete.size() / 2));

  const TelemetryLog log = read_telemetry(in);
  ASSERT_EQ(log.samples.size(), 3u);
  EXPECT_EQ(log.samples[0].sample, 3u);
  EXPECT_EQ(log.samples[1].sample, 5u);
  EXPECT_EQ(log.samples[2].sample, 6u);
  EXPECT_EQ(log.bad_lines, 2u);
  EXPECT_EQ(log.first_error.rfind("line 3: ", 0), 0u) << log.first_error;
  EXPECT_EQ(log.torn_tail.rfind("line 7: ", 0), 0u) << log.torn_tail;

  // Totals sum the phase counters' deltas of the kept samples only.
  const auto totals = sum_phases(log.samples);
  EXPECT_EQ(totals[static_cast<std::size_t>(Phase::kCrypto)].calls,
            3u * 3370u);
  EXPECT_EQ(totals[static_cast<std::size_t>(Phase::kCrypto)].ns,
            3u * 616254u);

  // A complete last line without its newline is a sample, not a tear.
  std::istringstream whole(text + complete.substr(0, complete.size() - 1));
  const TelemetryLog full = read_telemetry(whole);
  EXPECT_EQ(full.samples.size(), 4u);
  EXPECT_TRUE(full.torn_tail.empty());
}

TEST(TelemetrySchema, FailClosed) {
  const auto rejects = [](const std::string& line) {
    TelemetrySample out;
    std::string error;
    const bool ok = parse_telemetry_line(line, &out, &error);
    EXPECT_FALSE(ok) << line;
    EXPECT_FALSE(error.empty());
  };
  const std::string good = to_line(make_sample());
  const std::string bare = good.substr(0, good.size() - 1);

  rejects("");
  rejects("not json");
  rejects("[1,2,3]");
  // The whole member set, valid: the cases below each break one thing.
  const std::string head =
      "{\"schema\":\"paai.telemetry.v3\",\"sample\":0,\"wall_ns\":\"0\","
      "\"virt_ns\":\"0\",\"units\":\"0\",";
  TelemetrySample ok;
  ASSERT_TRUE(parse_telemetry_line(head + "\"counters\":{},\"gauges\":{}}",
                                   &ok));
  // Unknown top-level key.
  rejects(head + "\"counters\":{},\"gauges\":{},\"extra\":1}");
  // v2's phase and queue sections are gone: a v3 line carrying either is
  // rejected, and so is a whole v2 line (no v2 reader, as no v1 one).
  rejects(head + "\"counters\":{},\"gauges\":{},\"phases\":{}}");
  rejects(head + "\"counters\":{},\"gauges\":{},\"queues\":{}}");
  rejects("{\"schema\":\"paai.telemetry.v2\",\"sample\":0,\"wall_ns\":\"0\","
          "\"virt_ns\":\"0\",\"units\":\"0\",\"counters\":{},\"gauges\":{},"
          "\"phases\":{\"crypto\":[\"616254\",\"3370\"]},"
          "\"queues\":{\"sim-queue\":\"30\"}}");
  rejects("{\"schema\":\"paai.telemetry.v2\",\"sample\":0,\"wall_ns\":\"0\","
          "\"virt_ns\":\"0\",\"units\":\"0\",\"counters\":{},\"gauges\":{}}");
  // Missing required member (no units).
  rejects("{\"schema\":\"paai.telemetry.v3\",\"sample\":0,\"wall_ns\":\"0\","
          "\"virt_ns\":\"0\",\"counters\":{},\"gauges\":{}}");
  rejects(head + "\"counters\":{}}");  // no gauges
  // Counter as a JSON number instead of a decimal string.
  rejects(head + "\"counters\":{\"x\":5},\"gauges\":{}}");
  // Gauge above 2^53 cannot rewrite exactly: fail closed.
  rejects(head + "\"counters\":{},\"gauges\":{\"g\":[9007199254740993,0]}}");
  // Non-integral gauge, and a gauge that is not a [value, high] pair.
  rejects(head + "\"counters\":{},\"gauges\":{\"g\":[1.5,2]}}");
  rejects(head + "\"counters\":{},\"gauges\":{\"g\":[1,2,3]}}");
  // A good line with a trailing character is not a valid document.
  rejects(bare + "x");
  // u64 strings are bare ASCII digits: a leading space (even before a
  // sign that would wrap) is malformed, not trimmed.
  const std::string units = "\"units\":\"499\"";
  ASSERT_NE(bare.find(units), std::string::npos);
  for (const char* bad : {" -1", " 5"}) {
    std::string line = bare;
    line.replace(line.find(units), units.size(),
                 std::string("\"units\":\"") + bad + "\"");
    rejects(line);
  }
}

// Mutation fuzz over one line through the shared harness
// (tests/mutation_fuzz.h): every mutant is rejected cleanly or parses to
// a sample that rewrites to itself.
TEST(TelemetrySchema, MutationFuzzFailsClosed) {
  const fuzz::Rewrite rewrite =
      [](const std::string& line) -> std::optional<std::string> {
    TelemetrySample s;
    if (!parse_telemetry_line(line, &s)) return std::nullopt;
    const std::string out = to_line(s);
    return out.substr(0, out.size() - 1);
  };
  const std::string line = to_line(make_sample());
  const fuzz::Tally tally =
      fuzz::mutation_fuzz(line.substr(0, line.size() - 1), 5, rewrite);
  EXPECT_GT(tally.accepted, 1u);
  EXPECT_GT(tally.rejected, 0u);
}

std::vector<TelemetrySample> parse_all(const std::string& text) {
  std::vector<TelemetrySample> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    TelemetrySample s;
    std::string error;
    EXPECT_TRUE(parse_telemetry_line(line, &s, &error)) << error;
    out.push_back(std::move(s));
  }
  return out;
}

std::uint64_t counter_delta(const TelemetrySample& s, const std::string& n) {
  for (const auto& [name, delta] : s.counters) {
    if (name == n) return delta;
  }
  return 0;
}

TEST(TelemetrySink, DeltaEncodingAcrossResets) {
  RegistryGuard guard;
  auto& reg = MetricsRegistry::global();
  std::ostringstream os;
  TelemetrySink sink(os, 1);

  reg.counter("tele.test.delta").add(100);
  sink.sample_now(1);
  reg.counter("tele.test.delta").add(50);
  sink.sample_now(1);
  // Registry reset: the counter restarts below its previous total; the
  // delta must restart from the current value, not wrap around.
  reg.reset();
  reg.counter("tele.test.delta").add(30);
  sink.sample_now(1);

  const auto samples = parse_all(os.str());
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(counter_delta(samples[0], "tele.test.delta"), 100u);
  EXPECT_EQ(counter_delta(samples[1], "tele.test.delta"), 50u);
  EXPECT_EQ(counter_delta(samples[2], "tele.test.delta"), 30u);
  // Monotone sample indices.
  EXPECT_EQ(samples[0].sample, 0u);
  EXPECT_EQ(samples[1].sample, 1u);
  EXPECT_EQ(samples[2].sample, 2u);
}

TEST(TelemetrySink, TickCadence) {
  RegistryGuard guard;
  std::ostringstream os;
  TelemetrySink sink(os, 10);
  // Two producers share the sink (two Monte-Carlo calls, say): their
  // ticks add up on one running total, so the thresholds at units 10,
  // 20, 30 are each crossed once -> exactly three samples.
  for (int i = 0; i < 15; ++i) sink.tick(1);
  for (int i = 0; i < 20; ++i) sink.tick(1);
  EXPECT_EQ(sink.samples(), 3u);
  const auto samples = parse_all(os.str());
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].units, 10u);
  EXPECT_EQ(samples[1].units, 20u);
  EXPECT_EQ(samples[2].units, 30u);
}

// --- the observational guarantee ------------------------------------

void expect_identical(const runner::ExperimentResult& a,
                      const runner::ExperimentResult& b) {
  EXPECT_EQ(a.final_thetas, b.final_thetas);
  EXPECT_EQ(a.final_convicted, b.final_convicted);
  EXPECT_EQ(a.observations, b.observations);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.observed_e2e_rate, b.observed_e2e_rate);
  EXPECT_EQ(a.ground_truth_delivery, b.ground_truth_delivery);
  EXPECT_EQ(a.true_link_loss, b.true_link_loss);
  EXPECT_EQ(a.overhead_bytes_ratio, b.overhead_bytes_ratio);
  EXPECT_EQ(a.overhead_packets_ratio, b.overhead_packets_ratio);
  EXPECT_EQ(a.data_link_crossings, b.data_link_crossings);
  EXPECT_EQ(a.events_processed, b.events_processed);
  ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size());
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    EXPECT_EQ(a.checkpoints[i].packets, b.checkpoints[i].packets);
    EXPECT_EQ(a.checkpoints[i].convicted, b.checkpoints[i].convicted);
  }
}

constexpr protocols::ProtocolKind kAllProtocols[] = {
    protocols::ProtocolKind::kFullAck,
    protocols::ProtocolKind::kPaai1,
    protocols::ProtocolKind::kPaai2,
    protocols::ProtocolKind::kCombination1,
    protocols::ProtocolKind::kCombination2,
    protocols::ProtocolKind::kStatisticalFl,
    protocols::ProtocolKind::kSigAck,
};

std::uint64_t ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// Busy-waits on the steady clock and returns the measured span; a sleep
// would hand the core away and measure the scheduler instead.
std::uint64_t spin_for(std::chrono::milliseconds ms) {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start < ms) {
  }
  return ns_since(start);
}

// A phase's phase.<name>.ns / phase.<name>.calls counter totals.
PhaseSum phase_total(Phase phase) {
  const std::string base = std::string("phase.") + phase_name(phase);
  PhaseSum out;
  for (const CounterSnapshot& c : MetricsRegistry::global().snapshot().counters) {
    if (c.name == base + ".ns") out.ns = c.value;
    if (c.name == base + ".calls") out.calls = c.value;
  }
  return out;
}

std::int64_t gauge_high(const std::string& name) {
  for (const GaugeSnapshot& g : MetricsRegistry::global().snapshot().gauges) {
    if (g.name == name) return g.high;
  }
  return 0;
}

TEST(Profiler, NestedScopesChargeSelfTime) {
  using std::chrono::milliseconds;
  RegistryGuard guard;
  constexpr std::uint64_t kMs = 1000000;

  // Two nested scopes: the outer one's time excludes the inner one's, and
  // together they account for the block's wall time.
  auto start = std::chrono::steady_clock::now();
  {
    const ScopedPhase outer(Phase::kExecTask);
    spin_for(milliseconds(20));
    {
      const ScopedPhase inner(Phase::kCrypto);
      spin_for(milliseconds(30));
    }
    spin_for(milliseconds(10));
  }
  std::uint64_t wall = ns_since(start);
  const PhaseSum outer = phase_total(Phase::kExecTask);
  const PhaseSum inner = phase_total(Phase::kCrypto);
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(inner.calls, 1u);
  EXPECT_GE(inner.ns, 30 * kMs);
  EXPECT_GE(outer.ns, 30 * kMs);
  EXPECT_LE(outer.ns + inner.ns, wall);
  EXPECT_GE(static_cast<double>(outer.ns + inner.ns),
            0.95 * static_cast<double>(wall));

  // A hand-timed leaf add_phase() inside an open scope is charged to its
  // own phase only; the scope does not count it again.
  MetricsRegistry::global().reset();
  std::uint64_t leaf = 0;
  start = std::chrono::steady_clock::now();
  {
    const ScopedPhase scope(Phase::kSnapshot);
    spin_for(milliseconds(10));
    leaf = spin_for(milliseconds(20));
    add_phase(Phase::kStreamParse, leaf);
  }
  wall = ns_since(start);
  const PhaseSum self = phase_total(Phase::kSnapshot);
  const PhaseSum parse = phase_total(Phase::kStreamParse);
  EXPECT_EQ(parse.ns, leaf);
  EXPECT_EQ(parse.calls, 1u);
  EXPECT_GE(self.ns, 10 * kMs);
  EXPECT_LE(self.ns + parse.ns, wall);
  EXPECT_GE(static_cast<double>(self.ns + parse.ns),
            0.95 * static_cast<double>(wall));

  // With the registry off, scopes and leaf adds charge nothing.
  MetricsRegistry::global().reset();
  MetricsRegistry::set_enabled(false);
  {
    const ScopedPhase scope(Phase::kSnapshot);
    add_phase(Phase::kStreamParse, 5);
  }
  MetricsRegistry::set_enabled(true);
  EXPECT_EQ(phase_total(Phase::kSnapshot).calls, 0u);
  EXPECT_EQ(phase_total(Phase::kStreamParse).ns, 0u);
}

TEST(Integration, ProfilerNeverAffectsResults) {
  for (const auto kind : kAllProtocols) {
    runner::ExperimentConfig cfg = runner::paper_config(kind, 1200, 42);
    cfg.checkpoints = {400, 1200};

    const runner::ExperimentResult off = runner::run_experiment(cfg);
    runner::ExperimentResult on;
    {
      RegistryGuard guard;
      on = runner::run_experiment(cfg);
      // The phases and queue gauge actually saw the run (the guarantee is
      // about results, not about the registry being a no-op).
      EXPECT_GT(phase_total(Phase::kSimLoop).calls, 0u)
          << protocols::protocol_name(kind);
      EXPECT_GT(gauge_high("sim.queue_depth"), 0)
          << protocols::protocol_name(kind);
    }
    SCOPED_TRACE(protocols::protocol_name(kind));
    expect_identical(off, on);
  }
}

TEST(Integration, TelemetryNeverAffectsResults) {
  RegistryGuard guard;
  for (const auto kind : kAllProtocols) {
    runner::ExperimentConfig cfg = runner::paper_config(kind, 1200, 7);
    cfg.checkpoints = {600};

    const runner::ExperimentResult without = runner::run_experiment(cfg);

    std::ostringstream os;
    TelemetrySink sink(os, 100);
    runner::ExperimentConfig with_sink = cfg;
    with_sink.telemetry = &sink;
    const runner::ExperimentResult with = runner::run_experiment(with_sink);
    EXPECT_GT(sink.samples(), 0u) << protocols::protocol_name(kind);

    SCOPED_TRACE(protocols::protocol_name(kind));
    // events_processed included: the sampler's own fires are subtracted.
    expect_identical(without, with);
  }
}

// --- serve back-pressure --------------------------------------------

TEST(ServeLag, ThrottledConsumerShowsBacklogAndLag) {
  RegistryGuard guard;

  // Record a real event stream.
  runner::ExperimentConfig cfg =
      runner::paper_config(protocols::ProtocolKind::kPaai1, 2000, 3);
  EventLog log(1 << 18);
  cfg.path.events = &log;
  runner::run_experiment(cfg);
  std::stringstream wire;
  log.write_jsonl(wire);
  const std::int64_t total_bytes =
      static_cast<std::int64_t>(wire.str().size());
  ASSERT_GT(total_bytes, 0);

  std::ostringstream tele;
  TelemetrySink sink(tele, 200);

  stream::ScoreEngine engine;
  stream::ServeConfig serve_cfg;
  serve_cfg.announce = false;
  serve_cfg.telemetry = &sink;
  // Throttled-consumer probe: everything the producer wrote that the
  // loop has not consumed yet counts as backlog. Mid-stream this is
  // large; at EOF it is zero.
  serve_cfg.backlog_bytes = [&wire, total_bytes]() -> std::int64_t {
    const auto pos = wire.tellg();
    if (pos < 0) return 0;
    return total_bytes - static_cast<std::int64_t>(pos);
  };
  std::ostringstream sink_log;
  const stream::ServeReport report =
      stream::serve_stream(engine, wire, sink_log, serve_cfg, nullptr);

  ASSERT_FALSE(report.failed) << report.error;
  EXPECT_GT(report.applied, 0u);
  // Forensic logs carry many more wire events than score-relevant ones.
  EXPECT_GT(report.events, report.applied);
  EXPECT_GT(report.peak_backlog_bytes, 0);
  EXPECT_EQ(report.final_backlog_bytes, 0);
  EXPECT_GT(report.parse_stall_ns, 0u);
  EXPECT_GT(report.apply_stall_ns, 0u);

  // The telemetry stream saw the backlog gauge nonzero, and the engine's
  // counters (the serve loop keeps none of its own) count each event once.
  const auto samples = parse_all(tele.str());
  ASSERT_GE(samples.size(), 2u);
  bool backlog_seen = false;
  std::uint64_t ingested = 0;
  std::uint64_t applied = 0;
  for (const auto& s : samples) {
    for (const auto& g : s.gauges) {
      if (g.name == "stream.serve.backlog_bytes" && g.high > 0) {
        backlog_seen = true;
      }
    }
    ingested += counter_delta(s, "stream.events.ingested");
    applied += counter_delta(s, "stream.events.applied");
  }
  EXPECT_TRUE(backlog_seen);
  EXPECT_EQ(ingested, report.events);
  EXPECT_EQ(applied, report.applied);
}

// --- concurrency (runs under TSan in tools/check.sh) -----------------

TEST(Concurrency, SamplerRacesProducers) {
  RegistryGuard guard;
  std::ostringstream os;
  TelemetrySink sink(os, 1);

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&stop, t] {
      auto counter = MetricsRegistry::global().counter("tele.race.counter");
      auto gauge = MetricsRegistry::global().gauge("tele.race.gauge");
      auto queue = MetricsRegistry::global().gauge("tele.race.queue_depth");
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter.add();
        gauge.set(static_cast<std::int64_t>(i % 1000));
        add_phase(Phase::kExecTask, 5);
        queue.record_high(static_cast<std::int64_t>((t + i) % 64));
        ++i;
      }
    });
  }
  for (int i = 0; i < 200; ++i) sink.sample_now(1);
  stop.store(true);
  for (auto& w : workers) w.join();

  const auto samples = parse_all(os.str());
  ASSERT_EQ(samples.size(), 200u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].sample, i);  // monotone under contention
  }
}

}  // namespace
}  // namespace paai::obs
