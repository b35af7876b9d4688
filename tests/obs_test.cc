// Tests for the src/obs observability subsystem: metric registry
// semantics (enabled/disabled, reset, exact aggregation under the exec
// pool), the event log (ring bounds, JSONL and Chrome trace export),
// the strict JSON writer/parser pair (hostile strings, non-finite
// numbers, malformed documents), and the BenchReport document schema —
// every emitted document must survive the strict parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "exec/parallel_for.h"
#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "runner/montecarlo.h"

namespace paai::obs {
namespace {

// Every test runs against the (process-global) registry; reset + disable
// around each use keeps them independent.
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

const CounterSnapshot* find_counter(const MetricsSnapshot& snap,
                                    const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSnapshot* find_gauge(const MetricsSnapshot& snap,
                                const std::string& name) {
  for (const auto& g : snap.gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

TEST(Metrics, CounterBasics) {
  RegistryGuard guard;
  auto& reg = MetricsRegistry::global();
  const Counter c = reg.counter("test.counter");
  c.add();
  c.add(41);
  const auto snap = reg.snapshot();
  const auto* counter = find_counter(snap, "test.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, 42u);
}

TEST(Metrics, DisabledRegistryRecordsNothing) {
  RegistryGuard guard;
  auto& reg = MetricsRegistry::global();
  const Counter c = reg.counter("test.disabled");
  reg.set_enabled(false);
  c.add(100);
  EXPECT_FALSE(c.live());
  reg.set_enabled(true);
  const auto snap = reg.snapshot();
  EXPECT_EQ(find_counter(snap, "test.disabled")->value, 0u);
}

TEST(Metrics, DefaultConstructedHandlesAreInert) {
  Counter c;
  Gauge g;
  c.add();         // must not crash
  g.set(5);
  EXPECT_FALSE(c.live());
  EXPECT_FALSE(g.live());
}

TEST(Metrics, ResetZeroesButKeepsHandles) {
  RegistryGuard guard;
  auto& reg = MetricsRegistry::global();
  const Counter c = reg.counter("test.reset");
  c.add(5);
  reg.reset();
  c.add(2);  // handle stays valid after reset
  const auto snap = reg.snapshot();
  EXPECT_EQ(find_counter(snap, "test.reset")->value, 2u);
}

TEST(Metrics, SameNameReturnsSameCells) {
  RegistryGuard guard;
  auto& reg = MetricsRegistry::global();
  const Counter a = reg.counter("test.same");
  const Counter b = reg.counter("test.same");
  a.add(1);
  b.add(2);
  const auto snap = reg.snapshot();
  EXPECT_EQ(find_counter(snap, "test.same")->value, 3u);
}

TEST(Metrics, GaugeValueAndHighWater) {
  RegistryGuard guard;
  auto& reg = MetricsRegistry::global();
  const Gauge g = reg.gauge("test.gauge");
  g.set(10);
  g.set(50);
  g.set(20);
  const auto snap = reg.snapshot();
  const auto* gauge = find_gauge(snap, "test.gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 20);
  EXPECT_EQ(gauge->high, 50);
}

TEST(Metrics, GaugeHighFallsBackToValueWhenNeverRaised) {
  RegistryGuard guard;
  auto& reg = MetricsRegistry::global();
  const Gauge g = reg.gauge("test.gauge_neg");
  g.set(-5);
  const auto snap = reg.snapshot();
  const auto* gauge = find_gauge(snap, "test.gauge_neg");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, -5);
  EXPECT_EQ(gauge->high, -5);
}

TEST(Metrics, ParallelAggregationIsExact) {
  RegistryGuard guard;
  auto& reg = MetricsRegistry::global();
  const Counter c = reg.counter("test.parallel");
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kPerTask = 1000;
  exec::parallel_for_each(
      kTasks,
      [&](std::size_t) {
        for (std::uint64_t i = 0; i < kPerTask; ++i) {
          c.add();
        }
      },
      /*jobs=*/8);
  const auto snap = reg.snapshot();
  EXPECT_EQ(find_counter(snap, "test.parallel")->value, kTasks * kPerTask);
}

// ------------------------------------------------------------------ json

TEST(Json, QuoteEscapesHostileStrings) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote(std::string("a\0b", 3)), "\"a\\u0000b\"");
  EXPECT_EQ(json_quote("\n\t\r"), "\"\\n\\t\\r\"");
  EXPECT_EQ(json_quote("\x01"), "\"\\u0001\"");
}

TEST(Json, NumberMapsNonFiniteToNull) {
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(1.5), "1.5");
}

TEST(Json, WriterRoundTripsHostileContent) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("quote\"backslash\\").value("control\x02\x1f chars");
  w.key("nan").value(std::nan(""));
  w.key("nested").begin_array();
  w.value(std::int64_t{-42});
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();

  std::string error;
  const auto doc = json_parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error << " in: " << os.str();
  EXPECT_EQ(doc->find("quote\"backslash\\")->string, "control\x02\x1f chars");
  EXPECT_TRUE(doc->find("nan")->is_null());
  const JsonValue* nested = doc->find("nested");
  ASSERT_EQ(nested->array.size(), 3u);
  EXPECT_EQ(nested->array[0].number, -42.0);
  EXPECT_TRUE(nested->array[1].boolean);
  EXPECT_TRUE(nested->array[2].is_null());
}

TEST(Json, ParserAcceptsValidDocuments) {
  EXPECT_TRUE(json_parse("{}").has_value());
  EXPECT_TRUE(json_parse("[1, 2.5, -3e10, 0]").has_value());
  EXPECT_TRUE(json_parse("\"\\ud83d\\ude00\"").has_value());  // 😀 pair
  EXPECT_TRUE(json_parse("  {\"a\": [true, false, null]}  ").has_value());
}

TEST(Json, ParserRejectsMalformedDocuments) {
  EXPECT_FALSE(json_parse("").has_value());
  EXPECT_FALSE(json_parse("{} trailing").has_value());
  EXPECT_FALSE(json_parse("{\"a\":}").has_value());
  EXPECT_FALSE(json_parse("[1,]").has_value());
  EXPECT_FALSE(json_parse("01").has_value());          // leading zero
  EXPECT_FALSE(json_parse("\"\\x41\"").has_value());   // bad escape
  EXPECT_FALSE(json_parse("\"\\ud83d\"").has_value()); // lone surrogate
  EXPECT_FALSE(json_parse("\"\x01\"").has_value());    // raw control char
  EXPECT_FALSE(json_parse("nulL").has_value());
  EXPECT_FALSE(json_parse("+1").has_value());
  // Depth bomb: 100 nested arrays exceeds the 64-deep limit.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(json_parse(deep).has_value());
}

// ---------------------------------------------------------------- report

TEST(Report, DocumentMatchesSchemaAndSurvivesStrictParse) {
  RegistryGuard guard;
  auto& reg = MetricsRegistry::global();
  reg.counter("sim.link.0.tx_packets").add(7);
  reg.gauge("sim.storage.peak_entries").set(12);

  BenchReport report("bench_unit_test");
  report.set_arg("runs", 10);
  report.set_arg("label", "with \"quotes\"");
  report.set_info("protocol", "PAAI-1");
  report.set_metric("detection_packets", 1234.0);
  report.set_metric("broken_ratio", std::nan(""));  // must emit null
  report.set_exec(4, 1.25, 10, 0.12, 0.01, 0.96);
  report.set_wall_seconds(1.5);

  std::ostringstream os;
  report.write(os, reg.snapshot());

  std::string error;
  const auto doc = json_parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("schema")->string, kBenchSchema);
  EXPECT_EQ(doc->find("bench")->string, "bench_unit_test");
  EXPECT_GT(doc->find("created_unix")->number, 0.0);

  const JsonValue* prov = doc->find("provenance");
  ASSERT_NE(prov, nullptr);
  EXPECT_TRUE(prov->find("git_commit")->is_string());
  EXPECT_TRUE(prov->find("build_type")->is_string());
  EXPECT_TRUE(prov->find("compiler")->is_string());
  EXPECT_TRUE(prov->find("sanitizer")->is_string());

  EXPECT_EQ(doc->find("args")->find("runs")->number, 10.0);
  EXPECT_EQ(doc->find("args")->find("label")->string, "with \"quotes\"");
  EXPECT_EQ(doc->find("info")->find("protocol")->string, "PAAI-1");
  EXPECT_EQ(doc->find("results")->find("detection_packets")->number, 1234.0);
  EXPECT_TRUE(doc->find("results")->find("broken_ratio")->is_null());
  EXPECT_EQ(doc->find("wall_seconds")->number, 1.5);
  EXPECT_EQ(doc->find("exec")->find("jobs")->number, 4.0);

  const JsonValue* obs = doc->find("observability");
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->find("counters")->find("sim.link.0.tx_packets")->number,
            7.0);
  EXPECT_EQ(obs->find("gauges")->find("sim.storage.peak_entries")
                ->find("high")->number,
            12.0);
}

// ------------------------------------------------------- integration (MC)

TEST(Events, KindNamesRoundTrip) {
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const EventKind kind = static_cast<EventKind>(i);
    const char* name = event_kind_name(kind);
    ASSERT_NE(name, nullptr);
    const auto back = event_kind_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(event_kind_from_name("no-such-kind").has_value());
  EXPECT_FALSE(event_kind_from_name("").has_value());
}

TEST(Events, BoundedRingOverflowKeepsNewest) {
  EventLog log(/*per_node_capacity=*/8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    log.append(3, EventKind::kDataSend, static_cast<std::int64_t>(i),
               /*link=*/-1, /*a=*/i, /*b=*/0, 0.0);
  }
  EXPECT_EQ(log.recorded(), 20u);
  EXPECT_EQ(log.retained(), 8u);
  EXPECT_EQ(log.dropped(), 12u);
  const auto merged = log.merged();
  ASSERT_EQ(merged.size(), 8u);
  // The ring keeps the newest-capacity window: events 12..19.
  EXPECT_EQ(merged.front().ts_ns, 12);
  EXPECT_EQ(merged.back().ts_ns, 19);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LT(merged[i - 1].seq, merged[i].seq);
  }
  log.clear();
  EXPECT_EQ(log.recorded(), 0u);
  EXPECT_EQ(log.retained(), 0u);
}

TEST(Events, ChromeTraceRendersEveryEvent) {
  EventLog log;
  log.append(0, EventKind::kRunStart, 0, -1, 20000, 1, 0.018);
  log.append(0, EventKind::kScoreBlame, 99'000'500, 3,
             0xffffffffffffffffULL, 42, 0.25);
  log.append(2, EventKind::kPacketForward, 12'345'678, -1, 0x3d, 1019, 0.0);
  log.append(5, EventKind::kNodeCrash, 4'000'000'000'000LL);

  std::ostringstream os;
  log.write_chrome_trace(os);
  std::string error;
  const auto doc = json_parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  const auto merged = log.merged();
  ASSERT_EQ(events->array.size(), merged.size());
  // One instant per event in merged() order; every node shows up.
  for (std::size_t i = 0; i < merged.size(); ++i) {
    const Event& e = merged[i];
    const JsonValue& t = events->array[i];
    EXPECT_EQ(t.find("name")->string, event_kind_name(e.kind));
    EXPECT_EQ(t.find("ph")->string, "i");
    EXPECT_EQ(t.find("pid")->number, static_cast<double>(e.node));
    EXPECT_EQ(t.find("ts")->number, static_cast<double>(e.ts_ns) / 1000.0);
    const JsonValue* args = t.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->find("a")->string, std::to_string(e.a));
    EXPECT_EQ(args->find("b")->string, std::to_string(e.b));
    EXPECT_EQ(args->find("v")->number, e.value);
    if (e.link >= 0) {
      EXPECT_EQ(args->find("link")->number, static_cast<double>(e.link));
    } else {
      EXPECT_EQ(args->find("link"), nullptr);
    }
  }
  EXPECT_EQ(events->array[1].find("name")->string, "packet-fwd");
  EXPECT_EQ(events->array[1].find("pid")->number, 2.0);
  EXPECT_EQ(events->array[1].find("ts")->number, 12345.678);
  EXPECT_EQ(events->array[3].find("pid")->number, 5.0);
  EXPECT_EQ(events->array[3].find("ts")->number, 4e9);
}

TEST(Events, JsonlRoundTripsThroughStrictParser) {
  EventLog log;
  // u64 payloads above 2^53 must survive exactly (they are packet-id
  // halves), as must negative "no link" markers and double scores.
  log.append(0, EventKind::kRunStart, 0, -1, 20000, 1, 0.018);
  log.append(0, EventKind::kDataSend, 10'000'000, -1,
             0xdeadbeefcafebabeULL, 7, 0.0);
  log.append(2, EventKind::kPacketForward, 12'345'678, -1, 0x3d, 1019, 0.0);
  log.append(0, EventKind::kScoreBlame, 99'000'000, 3,
             0xffffffffffffffffULL, 42, 0.234567891234567);
  log.append(5, EventKind::kNodeCrash, 4'000'000'000'000LL, -1, 0, 0, 0.0);

  std::ostringstream os;
  log.write_jsonl(os);
  const std::string text = os.str();

  // Every line is strict-parser-valid JSON.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::string error;
    ASSERT_TRUE(json_parse(line, &error).has_value())
        << error << " in " << line;
  }

  std::istringstream in(text);
  std::string error;
  const auto back = EventLog::read_jsonl(in, &error);
  ASSERT_EQ(back.size(), 5u) << error;
  const auto original = log.merged();
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i], original[i]) << "event " << i;
  }
}

TEST(Events, ReadJsonlReportsMalformedInput) {
  std::istringstream in("{\"ts_ns\":1}\nnot json at all\n");
  std::string error;
  const auto events = EventLog::read_jsonl(in, &error);
  EXPECT_TRUE(events.empty());
  EXPECT_FALSE(error.empty());
}

// ------------------------------------------------------- event-line codec

Event codec_event(EventKind kind, std::int64_t ts, std::uint16_t node,
                  std::uint64_t seq, std::int32_t link, std::uint64_t a,
                  std::uint64_t b, double v) {
  Event e;
  e.kind = kind;
  e.ts_ns = ts;
  e.node = node;
  e.seq = seq;
  e.link = link;
  e.a = a;
  e.b = b;
  e.value = v;
  return e;
}

/// The pre-codec writer, field for field: the reference the direct
/// writer's bytes are held to.
std::string json_writer_line(const Event& e) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("ts_ns").value(e.ts_ns);
  w.key("node").value(static_cast<std::int64_t>(e.node));
  w.key("seq").value(e.seq);
  w.key("kind").value(event_kind_name(e.kind));
  if (e.link >= 0) w.key("link").value(static_cast<std::int64_t>(e.link));
  w.key("a").value(std::to_string(e.a));
  w.key("b").value(std::to_string(e.b));
  w.key("v").value(e.value);
  w.end_object();
  os << '\n';
  return os.str();
}

std::string encode(const Event& e) {
  char buf[kEventLineMaxBytes];
  return std::string(buf, encode_event_line(e, buf));
}

// Literal lines from the JsonWriter export, one per event kind, covering
// link absent/present, the integer extremes, a/b in {0, UINT64_MAX}, and
// v in {0, -0, 1e-05, 0.25, DBL_MAX, denormal min, NaN/-Inf -> null}.
TEST(EventCodec, GoldenLinesMatchAndRoundTrip) {
  constexpr std::uint64_t kMaxU = std::numeric_limits<std::uint64_t>::max();
  constexpr std::int64_t kMaxI = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMinI = std::numeric_limits<std::int64_t>::min();
  constexpr double kMaxD = std::numeric_limits<double>::max();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const struct {
    Event event;
    const char* line;
  } golden[] = {
      {codec_event(EventKind::kRunStart, 0, 0, 0, -1, 20000, 1, 0.018),
       R"({"ts_ns":0,"node":0,"seq":0,"kind":"run-start","a":"20000","b":"1","v":0.017999999999999999})"},
      {codec_event(EventKind::kRunEnd, 600000000000, 0, 1, -1, 20000, 0, 0.0),
       R"({"ts_ns":600000000000,"node":0,"seq":1,"kind":"run-end","a":"20000","b":"0","v":0})"},
      {codec_event(EventKind::kDataSend, 10000000, 0, 2, -1, kMaxU, 0, -0.0),
       R"({"ts_ns":10000000,"node":0,"seq":2,"kind":"data-send","a":"18446744073709551615","b":"0","v":-0})"},
      {codec_event(EventKind::kSampleSelect, 10000001, 0, 3, -1, 0, kMaxU,
                   1e-05),
       R"({"ts_ns":10000001,"node":0,"seq":3,"kind":"sample-select","a":"0","b":"18446744073709551615","v":1.0000000000000001e-05})"},
      {codec_event(EventKind::kProbeSend, 12, 1, 0, -1, 0xdeadbeefcafebabeULL,
                   7, 0.25),
       R"({"ts_ns":12,"node":1,"seq":0,"kind":"probe-send","a":"16045690984503098046","b":"7","v":0.25})"},
      {codec_event(EventKind::kAckRecv, 13, 2, 9, -1, 1, 2, kMaxD),
       R"({"ts_ns":13,"node":2,"seq":9,"kind":"ack-recv","a":"1","b":"2","v":1.7976931348623157e+308})"},
      {codec_event(EventKind::kAckTimeout, 14, 3, 10, -1, 0, 0, denorm),
       R"({"ts_ns":14,"node":3,"seq":10,"kind":"ack-timeout","a":"0","b":"0","v":4.9406564584124654e-324})"},
      {codec_event(EventKind::kOnionDecode, 15, 4, 11, -1, 5, 6, nan),
       R"({"ts_ns":15,"node":4,"seq":11,"kind":"onion-decode","a":"5","b":"6","v":null})"},
      {codec_event(EventKind::kScoreClean, 16, 0, 12, -1, kMaxU, kMaxU, -inf),
       R"({"ts_ns":16,"node":0,"seq":12,"kind":"score-clean","a":"18446744073709551615","b":"18446744073709551615","v":null})"},
      {codec_event(EventKind::kScoreBlame, 17, 0, 13, 3, 0x3d, 42,
                   0.234567891234567),
       R"({"ts_ns":17,"node":0,"seq":13,"kind":"score-blame","link":3,"a":"61","b":"42","v":0.23456789123456701})"},
      {codec_event(EventKind::kConviction, 18, 0, 14, 4, 60000, 1200, 0.021),
       R"({"ts_ns":18,"node":0,"seq":14,"kind":"conviction","link":4,"a":"60000","b":"1200","v":0.021000000000000001})"},
      {codec_event(EventKind::kPacketSend, 19, 5, 15, -1, 0x3d, 1019, 0.0),
       R"({"ts_ns":19,"node":5,"seq":15,"kind":"packet-send","a":"61","b":"1019","v":0})"},
      {codec_event(EventKind::kPacketRecv, 20, 6, 16, 0, 0, 0, 1.0 / 3.0),
       R"({"ts_ns":20,"node":6,"seq":16,"kind":"packet-recv","link":0,"a":"0","b":"0","v":0.33333333333333331})"},
      {codec_event(EventKind::kPacketForward, 21, 65535, 17, -1, 2, 88, 0.0),
       R"({"ts_ns":21,"node":65535,"seq":17,"kind":"packet-fwd","a":"2","b":"88","v":0})"},
      {codec_event(EventKind::kNodeCrash, kMaxI, 5, kMaxU, -1, 0, 0, 0.0),
       R"({"ts_ns":9223372036854775807,"node":5,"seq":18446744073709551615,"kind":"node-crash","a":"0","b":"0","v":0})"},
      {codec_event(EventKind::kNodeRestart, kMinI, 5, 0, -1, 0, 0, -kMaxD),
       R"({"ts_ns":-9223372036854775808,"node":5,"seq":0,"kind":"node-restart","a":"0","b":"0","v":-1.7976931348623157e+308})"},
      {codec_event(EventKind::kRunConfig, 0, 0, 1, 2147483647, 1, 6, 0.018),
       R"({"ts_ns":0,"node":0,"seq":1,"kind":"run-config","link":2147483647,"a":"1","b":"6","v":0.017999999999999999})"},
      {codec_event(EventKind::kFlCount, 3000000000, 0, 40, 0, 3, 100,
                   -2.2250738585072014e-308),
       R"({"ts_ns":3000000000,"node":0,"seq":40,"kind":"fl-count","link":0,"a":"3","b":"100","v":-2.2250738585072014e-308})"},
  };
  bool kind_seen[kEventKindCount] = {};
  for (const auto& g : golden) {
    SCOPED_TRACE(g.line);
    kind_seen[static_cast<std::size_t>(g.event.kind)] = true;
    const std::string line = encode(g.event);
    EXPECT_EQ(line, std::string(g.line) + "\n");
    EXPECT_EQ(line, json_writer_line(g.event));

    Event back;
    std::string what;
    ASSERT_TRUE(decode_event_line(g.line, &back, &what)) << what;
    Event expected = g.event;
    if (!std::isfinite(expected.value)) expected.value = 0.0;  // null
    EXPECT_EQ(back, expected);
    EXPECT_EQ(std::signbit(back.value), std::signbit(expected.value));
  }
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    EXPECT_TRUE(kind_seen[k]) << event_kind_name(static_cast<EventKind>(k));
  }
}

// The direct writer against the JsonWriter reference over random events:
// random bit patterns for every field (so doubles cover denormals,
// infinities and NaNs), bytes must match exactly, and every finite value
// must decode back bit-for-bit.
TEST(EventCodec, WriterMatchesJsonWriterOnRandomEvents) {
  std::uint64_t rng = 0x2545f4914f6cdd1dULL;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = next();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    if (i % 3 == 0) v = static_cast<double>(next() % 100000) / 1e5;
    const auto link = static_cast<std::int32_t>(next());
    const Event e = codec_event(
        static_cast<EventKind>(next() % kEventKindCount),
        static_cast<std::int64_t>(next()), static_cast<std::uint16_t>(next()),
        next() >> (next() % 64), i % 2 == 0 ? -1 : link,
        next() >> (next() % 64), next() >> (next() % 64), v);
    const std::string line = encode(e);
    ASSERT_EQ(line, json_writer_line(e)) << "event " << i;
    ASSERT_LE(line.size(), kEventLineMaxBytes);

    Event back;
    std::string what;
    ASSERT_TRUE(
        decode_event_line(std::string_view(line).substr(0, line.size() - 1),
                          &back, &what))
        << what << " in " << line;
    Event expected = e;
    if (expected.link < 0) expected.link = -1;
    if (!std::isfinite(expected.value)) expected.value = 0.0;
    ASSERT_EQ(back, expected) << line;
  }
}

TEST(EventCodec, WriteJsonlIsTheConcatenatedLines) {
  EventLog log;
  log.append(0, EventKind::kRunStart, 0, -1, 20000, 1, 0.018);
  log.append(2, EventKind::kPacketForward, 5, -1, 0x3d, 1019, 0.0);
  log.append(0, EventKind::kScoreBlame, 7, 3, 9, 42, 0.25);
  std::string expected;
  for (const Event& e : log.merged()) expected += encode(e);
  std::ostringstream os;
  log.write_jsonl(os);
  EXPECT_EQ(os.str(), expected);
}

TEST(Integration, MonteCarloPopulatesMetricsAndTrace) {
  RegistryGuard guard;
  EventLog log;

  runner::MonteCarloConfig mc;
  mc.base = runner::paper_config(protocols::ProtocolKind::kFullAck, 200, 0);
  mc.base.checkpoints = {100, 200};
  mc.runs = 4;
  mc.seed0 = 42;
  mc.jobs = 2;
  mc.events = &log;
  const auto result = runner::run_monte_carlo(mc);
  EXPECT_EQ(result.runs, 4u);

  const auto snap = MetricsRegistry::global().snapshot();
  EXPECT_EQ(find_counter(snap, "runner.runs")->value, 4u);
  EXPECT_GT(find_counter(snap, "sim.link.0.tx_packets")->value, 0u);
  EXPECT_GT(find_counter(snap, "proto.dest_acks_received")->value, 0u);
  EXPECT_GT(find_counter(snap, "proto.score.updates")->value, 0u);
  // Natural loss 1% + malicious l_4 => some probes and some drops.
  EXPECT_GT(find_counter(snap, "proto.probes_sent")->value, 0u);

  // Run 0's event log renders as a strict-parser-clean Chrome trace.
  EXPECT_GT(log.recorded(), 0u);
  std::ostringstream os;
  log.write_chrome_trace(os);
  std::string error;
  const auto doc = json_parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("traceEvents")->array.size(), log.retained());
}

TEST(Integration, MetricsNeverAffectResults) {
  // Identical configs with the registry on and off must produce
  // bit-identical Monte-Carlo aggregates.
  auto run_once = [](bool instrumented) {
    MetricsRegistry::global().reset();
    MetricsRegistry::global().set_enabled(instrumented);
    runner::MonteCarloConfig mc;
    mc.base =
        runner::paper_config(protocols::ProtocolKind::kPaai1, 400, 0);
    mc.base.checkpoints = {200, 400};
    mc.runs = 3;
    mc.seed0 = 7;
    mc.jobs = 2;
    return runner::run_monte_carlo(mc);
  };
  const auto with = run_once(true);
  const auto without = run_once(false);
  MetricsRegistry::global().set_enabled(false);
  MetricsRegistry::global().reset();

  ASSERT_EQ(with.curve.size(), without.curve.size());
  for (std::size_t i = 0; i < with.curve.size(); ++i) {
    EXPECT_EQ(with.curve[i].fp, without.curve[i].fp);
    EXPECT_EQ(with.curve[i].fn, without.curve[i].fn);
  }
  EXPECT_EQ(with.total_events, without.total_events);
  EXPECT_EQ(with.final_e2e_rate.mean(), without.final_e2e_rate.mean());
}

TEST(Integration, EventsNeverAffectResults) {
  // The forensic log is strictly observational: enabling it (under any
  // jobs value) must leave every Monte-Carlo aggregate bit-identical,
  // and the single-writer run-0 stream itself must be bit-identical
  // across jobs values.
  auto run_once = [](EventLog* log, std::size_t jobs) {
    runner::MonteCarloConfig mc;
    mc.base = runner::paper_config(protocols::ProtocolKind::kPaai1, 400, 0);
    mc.base.checkpoints = {200, 400};
    mc.runs = 3;
    mc.seed0 = 7;
    mc.jobs = jobs;
    mc.events = log;
    return runner::run_monte_carlo(mc);
  };

  EventLog log_a;
  const auto with = run_once(&log_a, 2);
  const auto without = run_once(nullptr, 1);
  EXPECT_GT(log_a.recorded(), 0u);

  ASSERT_EQ(with.curve.size(), without.curve.size());
  for (std::size_t i = 0; i < with.curve.size(); ++i) {
    EXPECT_EQ(with.curve[i].fp, without.curve[i].fp);
    EXPECT_EQ(with.curve[i].fn, without.curve[i].fn);
  }
  EXPECT_EQ(with.total_events, without.total_events);
  EXPECT_EQ(with.final_e2e_rate.mean(), without.final_e2e_rate.mean());
  EXPECT_EQ(with.detection_samples, without.detection_samples);
  EXPECT_EQ(with.detection_p50, without.detection_p50);
  EXPECT_EQ(with.detection_p99, without.detection_p99);

  // Same config, different jobs: the exported run-0 stream is identical.
  EventLog log_b;
  run_once(&log_b, 4);
  std::ostringstream os_a;
  std::ostringstream os_b;
  log_a.write_jsonl(os_a);
  log_b.write_jsonl(os_b);
  EXPECT_EQ(os_a.str(), os_b.str());
}

}  // namespace
}  // namespace paai::obs
