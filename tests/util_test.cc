// Unit tests for the util layer: hex/bytes, RNG statistics, the cached
// binomial sampler's bit-identity with Rng::binomial, Welford stats,
// Hoeffding helpers, time series, table formatting, and the bounds-checked
// wire codec (including a decode fuzz loop: arbitrary bytes must never
// crash or over-read).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "util/bytes.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/specgrammar.h"
#include "util/stats.h"
#include "util/timeseries.h"
#include "util/wire.h"

namespace paai {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xcd, 0xef, 0xff};
  EXPECT_EQ(to_hex(ByteView(data.data(), data.size())), "0001abcdefff");
  EXPECT_EQ(from_hex("0001abcdefff"), data);
  EXPECT_EQ(from_hex("0001ABCDEFFF"), data);
}

TEST(Bytes, FromHexRejectsBadInput) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);   // odd length
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);    // non-hex
}

TEST(Bytes, ConcatAndCtEqual) {
  const Bytes a = bytes_of("foo");
  const Bytes b = bytes_of("bar");
  const Bytes joined = concat({ByteView(a.data(), a.size()),
                               ByteView(b.data(), b.size())});
  EXPECT_EQ(joined, bytes_of("foobar"));
  EXPECT_TRUE(ct_equal(ByteView(a.data(), a.size()), ByteView(a.data(), a.size())));
  EXPECT_FALSE(ct_equal(ByteView(a.data(), a.size()), ByteView(b.data(), b.size())));
  EXPECT_FALSE(ct_equal(ByteView(a.data(), 2), ByteView(a.data(), 3)));
}

TEST(Rng, UniformMoments) {
  Rng rng(12345);
  const int n = 100000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_NEAR(sum2 / n - 0.25, 1.0 / 12.0, 0.01);
}

TEST(Rng, BernoulliRate) {
  Rng rng(99);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.01) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.01, 0.002);
  EXPECT_FALSE(Rng(1).bernoulli(0.0));
  EXPECT_TRUE(Rng(1).bernoulli(1.0));
}

TEST(Rng, NextBelowIsUnbiased) {
  Rng rng(7);
  std::vector<std::uint64_t> hist(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++hist[rng.next_below(7)];
  EXPECT_LT(chi_square_uniform(hist), 22.5);  // 6 dof, ~99.9%
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng a(42);
  Rng b = a.fork(1);
  Rng c = a.fork(2);
  int equal_bc = 0;
  for (int i = 0; i < 64; ++i) {
    if (b.next_u64() == c.next_u64()) ++equal_bc;
  }
  EXPECT_EQ(equal_bc, 0);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// BinomialCache::draw is Rng::binomial from the same state, bit for bit,
// and consumes the same randomness: `plain` and `cached` start equal and
// must stay in lockstep through every case — n = 0, p <= 0 and p >= 1
// (no randomness), the flipped tail, the normal approximation just over
// mean 400 and the exact walk just under it, and walks that run past the
// cached prefix.
TEST(BinomialCache, EqualsRngBinomialOverTheGrid) {
  // The last two put mean = 4e4 * p just under and just over 400.
  const std::vector<double> rates = {
      0.0, 1e-9, 0.01, 0.0397, 0.5, 0.5 + 1e-12, 0.99, 1.0, -0.25, 1.5,
      0.0099999, 0.0100001};
  const std::uint64_t ns[] = {0, 1, 2, 15, 16, 17, 250, 40000};
  Rng plain(91), cached(91);
  BinomialCache cache(rates);
  // Three passes: the first fills slots, the later ones hit them.
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint32_t id = 0; id < rates.size(); ++id) {
      for (const std::uint64_t n : ns) {
        for (int i = 0; i < 40; ++i) {
          ASSERT_EQ(cache.draw(cached, n, id), plain.binomial(n, rates[id]))
              << "n=" << n << " p=" << rates[id] << " pass=" << pass;
        }
      }
    }
  }
  EXPECT_EQ(cached.next_u64(), plain.next_u64());
}

TEST(BinomialCache, EvictionAndDeepWalksStayExact) {
  // More (id, n) keys than slots, revisited in an interleaved order, so
  // every slot is evicted and refilled many times.
  std::vector<double> rates;
  for (int i = 0; i < 600; ++i) rates.push_back(0.002 + 1e-4 * i);
  Rng plain(7), cached(7), order(8);
  BinomialCache cache(rates);
  ASSERT_GT(rates.size(), BinomialCache::kSlots);
  for (int i = 0; i < 60000; ++i) {
    const auto id = static_cast<std::uint32_t>(order.next_below(rates.size()));
    const std::uint64_t n = 240 + order.next_below(12);
    ASSERT_EQ(cache.draw(cached, n, id), plain.binomial(n, rates[id]));
  }
  EXPECT_EQ(cached.next_u64(), plain.next_u64());

  // Mean ~10 over a few hot keys: about 4% of draws pass the 16-entry
  // prefix and resume the walk, and u near 1 walks far past it.
  const std::vector<double> hot = {0.0397, 0.06};
  BinomialCache deep(hot);
  std::uint64_t past_prefix = 0, near_one = 0;
  for (int i = 0; i < 50000; ++i) {
    Rng peek = plain;
    if (peek.next_double() > 0.999) ++near_one;
    const auto id = static_cast<std::uint32_t>(i % 2);
    const std::uint64_t n = 250 + static_cast<std::uint64_t>(i % 3);
    const std::uint64_t k = plain.binomial(n, hot[id]);
    ASSERT_EQ(deep.draw(cached, n, id), k);
    if (k >= BinomialCache::kPrefix) ++past_prefix;
  }
  EXPECT_GT(past_prefix, 1000u);
  EXPECT_GT(near_one, 10u);
  EXPECT_EQ(cached.next_u64(), plain.next_u64());
}

TEST(RunningStat, MeanVarianceMinMax) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeMatchesSequential) {
  RunningStat all, a, b;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 10.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, HoeffdingInverseConsistency) {
  const double eps = 0.01, sigma = 0.03;
  const double n = hoeffding_samples(eps, sigma);
  EXPECT_NEAR(hoeffding_failure(n, eps), sigma, 1e-9);
}

TEST(Stats, Quantiles) {
  std::vector<double> xs = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(Stats, WilsonHalfwidthShrinks) {
  EXPECT_GT(wilson_halfwidth(0.5, 10), wilson_halfwidth(0.5, 1000));
  EXPECT_EQ(wilson_halfwidth(0.5, 0), 1.0);
}

TEST(TimeSeries, StepInterpolation) {
  TimeSeries ts;
  ts.add(1.0, 10.0);
  ts.add(2.0, 20.0);
  ts.add(5.0, 50.0);
  EXPECT_DOUBLE_EQ(ts.at(0.5, -1.0), -1.0);
  EXPECT_DOUBLE_EQ(ts.at(1.0), 10.0);
  EXPECT_DOUBLE_EQ(ts.at(1.5), 10.0);
  EXPECT_DOUBLE_EQ(ts.at(2.0), 20.0);
  EXPECT_DOUBLE_EQ(ts.at(4.999), 20.0);
  EXPECT_DOUBLE_EQ(ts.at(100.0), 50.0);
}

TEST(SeriesGrid, AccumulatesRuns) {
  SeriesGrid grid(10.0, 5);  // x = 2,4,6,8,10
  TimeSeries a, b;
  a.add(0.0, 1.0);
  b.add(0.0, 3.0);
  grid.accumulate(a);
  grid.accumulate(b);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_DOUBLE_EQ(grid.stat(i).mean(), 2.0);
    EXPECT_EQ(grid.stat(i).count(), 2u);
  }
}

TEST(SeriesGrid, LogspaceCoversRange) {
  const SeriesGrid g = SeriesGrid::logspace(10.0, 1000.0, 3);
  ASSERT_EQ(g.size(), 3u);
  EXPECT_NEAR(g.x(0), 10.0, 1e-9);
  EXPECT_NEAR(g.x(1), 100.0, 1e-6);
  EXPECT_NEAR(g.x(2), 1000.0, 1e-6);
}

TEST(Table, AlignedAndCsvOutput) {
  Table t({"name", "value"});
  t.row().cell("alpha").num(0.03, 3);
  t.row().cell("d").integer(6);
  std::ostringstream aligned, csv;
  t.print(aligned);
  t.print_csv(csv);
  EXPECT_NE(aligned.str().find("alpha"), std::string::npos);
  EXPECT_EQ(csv.str(), "name,value\nalpha,0.03\nd,6\n");
}

TEST(Table, CsvQuotesCommasQuotesAndNewlines) {
  Table t({"metric", "note"});
  t.row().cell("queue_wait,mean").cell("plain");
  t.row().cell("say \"hi\"").cell("line1\nline2");
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_EQ(csv.str(),
            "metric,note\n"
            "\"queue_wait,mean\",plain\n"
            "\"say \"\"hi\"\"\",\"line1\nline2\"\n");
}

TEST(Flags, ParsesFlagsAndEnv) {
  const char* argv_c[] = {"prog", "--csv", "--runs=25"};
  char** argv = const_cast<char**>(argv_c);
  EXPECT_TRUE(has_flag(3, argv, "--csv"));
  EXPECT_FALSE(has_flag(3, argv, "--json"));
  EXPECT_EQ(count_flag(3, argv, "--runs", 7), 25u);
  EXPECT_EQ(count_flag(3, argv, "--packets", 7), 7u);

  const char* spaced_c[] = {"prog", "--csv", "--runs", "25", "--rho",
                            "0.02"};
  char** spaced = const_cast<char**>(spaced_c);
  EXPECT_EQ(count_flag(6, spaced, "--runs", 7), 25u);
  EXPECT_EQ(count_flag(6, spaced, "--packets", 7), 7u);
  EXPECT_EQ(real_flag(6, spaced, "--rho", 0.01), 0.02);
  EXPECT_EQ(real_flag(6, spaced, "--alpha", 0.03), 0.03);

  // Knobs come from argv only: the environment is never a second spelling.
  setenv("PAAI_RUNS", "12", 1);
  EXPECT_EQ(count_flag(2, argv, "--runs", 7), 7u);
  unsetenv("PAAI_RUNS");
}

TEST(Flags, CountReaderAcceptsBase10Counts) {
  const auto count = [](std::string_view text) {
    return util::spec_parse_index(text, "value", "--runs");
  };
  EXPECT_EQ(count("0"), 0u);
  EXPECT_EQ(count("42"), 42u);
  EXPECT_EQ(count("007"), 7u);
  // Past the old signed reader's range, but still a count.
  EXPECT_EQ(count("9223372036854775808"), std::uint64_t{1} << 63);
  EXPECT_EQ(count("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Flags, CountReaderRejectsGarbage) {
  for (const char* text :
       {"", "-", "all", "12x", "x12", " 12", "12 ", "1.5", "+5", "-5",
        "-17", "1e3", "0x10",
        "18446744073709551616",     // max+1
        "-9223372036854775809"}) {  // below every signed range
    EXPECT_THROW(util::spec_parse_index(text, "value", "--runs"),
                 std::invalid_argument)
        << "'" << text << "'";
  }
}

TEST(FlagsDeathTest, InvalidFlagValueExitsWithError) {
  const char* argv_c[] = {"prog", "--runs=many", "--scale=-50",
                          "--packets=2e3", "--rho=0.01junk"};
  char** argv = const_cast<char**>(argv_c);
  EXPECT_EXIT(count_flag(2, argv, "--runs", 7), testing::ExitedWithCode(2),
              "error: --runs: bad index for value: 'many'");
  EXPECT_EXIT(count_flag(3, argv, "--scale", 100),
              testing::ExitedWithCode(2), "error: --scale: ");
  EXPECT_EXIT(count_flag(4, argv, "--packets", 60000),
              testing::ExitedWithCode(2), "error: --packets: ");
  EXPECT_EXIT(real_flag(5, argv, "--rho", 0.01), testing::ExitedWithCode(2),
              "error: --rho: bad number for value: '0.01junk'");
}

TEST(Flags, FlagStrParsesBothForms) {
  const char* argv_c[] = {"prog", "--metrics-out=a.json", "--trace-out",
                          "b.json"};
  char** argv = const_cast<char**>(argv_c);
  EXPECT_EQ(flag_str(4, argv, "--metrics-out").value(), "a.json");
  EXPECT_EQ(flag_str(4, argv, "--trace-out").value(), "b.json");
  EXPECT_FALSE(flag_str(4, argv, "--absent").has_value());
}

TEST(FlagsDeathTest, FlagStrMissingValueExitsWithError) {
  const char* argv_c[] = {"prog", "--metrics-out"};
  char** argv = const_cast<char**>(argv_c);
  EXPECT_EXIT(flag_str(2, argv, "--metrics-out"),
              testing::ExitedWithCode(2), "requires a value");
}

TEST(Wire, ScalarRoundTrip) {
  WireWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0102030405060708ULL);
  const Bytes payload = bytes_of("hello");
  w.var_bytes(ByteView(payload.data(), payload.size()));

  WireReader r(ByteView(w.data().data(), w.data().size()));
  std::uint8_t a;
  std::uint16_t b;
  std::uint32_t c;
  std::uint64_t d;
  Bytes e;
  ASSERT_TRUE(r.u8(a));
  ASSERT_TRUE(r.u16(b));
  ASSERT_TRUE(r.u32(c));
  ASSERT_TRUE(r.u64(d));
  ASSERT_TRUE(r.var_bytes(e));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(b, 0x1234);
  EXPECT_EQ(c, 0xdeadbeefu);
  EXPECT_EQ(d, 0x0102030405060708ULL);
  EXPECT_EQ(e, payload);
}

TEST(Wire, BigEndianOnTheWire) {
  WireWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(to_hex(ByteView(w.data().data(), w.data().size())), "01020304");
}

TEST(Wire, TruncatedReadsFailCleanly) {
  WireWriter w;
  w.u32(7);
  WireReader r(ByteView(w.data().data(), 3));  // one byte short
  std::uint32_t v;
  EXPECT_FALSE(r.u32(v));
  // A failed read consumes nothing further.
  std::uint16_t h;
  EXPECT_TRUE(r.u16(h));
}

TEST(Wire, VarBytesLengthPrefixBounds) {
  // A length prefix that exceeds the remaining buffer must fail.
  Bytes evil = {0xff, 0xff, 0x01};
  WireReader r(ByteView(evil.data(), evil.size()));
  Bytes out;
  EXPECT_FALSE(r.var_bytes(out));
  WireReader rv(ByteView(evil.data(), evil.size()));
  ByteView view;
  EXPECT_FALSE(rv.var_view(view));
}

TEST(Wire, InPlaceReadsViewTheInput) {
  WireWriter w(1 + 2 + 3 + 4);
  w.u8(9);
  const Bytes payload = bytes_of("abc");
  w.var_bytes(ByteView(payload.data(), payload.size()));
  w.u32(0x01020304);
  EXPECT_EQ(w.size(), 10u);
  const Bytes& buf = w.data();

  WireReader r(ByteView(buf.data(), buf.size()));
  std::array<std::uint8_t, 1> tag{};
  ByteView var;
  ByteView tail;
  ASSERT_TRUE(r.fixed(tag));
  ASSERT_TRUE(r.var_view(var));
  EXPECT_FALSE(r.view(5, tail));  // one byte short: fails, consumes nothing
  ASSERT_TRUE(r.view(4, tail));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(tag[0], 9);
  EXPECT_EQ(var.data(), buf.data() + 3);  // a view, not a copy
  EXPECT_EQ(Bytes(var.begin(), var.end()), payload);
  EXPECT_EQ(to_hex(tail), "01020304");
  std::array<std::uint8_t, 2> past{};
  EXPECT_FALSE(r.fixed(past));
}

TEST(Wire, DecodeFuzzNeverCrashes) {
  Rng rng(2024);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t len = rng.next_below(64);
    Bytes junk(len);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    WireReader r(ByteView(junk.data(), junk.size()));
    std::uint8_t a;
    Bytes v;
    std::uint64_t q;
    ByteView view;
    std::array<std::uint8_t, 5> fixed{};
    // Exercise all getters; only invariant: no crash, no over-read.
    (void)r.u8(a);
    (void)r.var_bytes(v);
    (void)r.u64(q);
    (void)r.skip(3);
    (void)r.var_view(view);
    (void)r.fixed(fixed);
    EXPECT_LE(v.size(), len);
    EXPECT_LE(view.size(), len);
  }
}

}  // namespace
}  // namespace paai
