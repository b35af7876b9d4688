// Scoring/identification unit tests: ScoreTable per-traversal inversion,
// conviction thresholds, the PAAI-2 prefix-difference estimator on
// synthetic drop processes, a verdict pin for every table family and the
// mesh store under every blame mode, and the PendingStore expiry
// machinery.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "mesh/score_store.h"
#include "protocols/pending.h"
#include "protocols/score.h"
#include "sim/storage.h"
#include "util/rng.h"

namespace paai::protocols {
namespace {

TEST(ScoreTable, ThetaInvertsTraversalCompounding) {
  ScoreTable table(6, 2.0);
  // Feed a synthetic blame process on link 3 at per-traversal rate 0.03
  // over 2 traversals: per-observation blame prob = 1-(1-0.03)^2.
  Rng rng(1);
  const double per_obs = 1.0 - std::pow(1.0 - 0.03, 2.0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(per_obs)) {
      table.blame(3);
    } else {
      table.add_clean();
    }
  }
  EXPECT_EQ(table.observations(), static_cast<std::uint64_t>(n));
  EXPECT_NEAR(table.theta(3), 0.03, 0.002);
  EXPECT_DOUBLE_EQ(table.theta(0), 0.0);
}

TEST(ScoreTable, ConvictionThreshold) {
  ScoreTable table(3, 1.0);
  for (int i = 0; i < 70; ++i) table.add_clean();
  for (int i = 0; i < 30; ++i) table.blame(1);
  // theta_1 = 0.3.
  EXPECT_EQ(table.convicted(0.2), std::vector<std::size_t>{1});
  EXPECT_TRUE(table.convicted(0.35).empty());
  table.reset();
  EXPECT_EQ(table.observations(), 0u);
  EXPECT_TRUE(table.convicted(0.0).empty());
}

TEST(ScoreTable, RejectsBadConstructionAndIndices) {
  EXPECT_THROW(ScoreTable(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ScoreTable(3, 0.0), std::invalid_argument);
  ScoreTable t(3, 1.0);
  EXPECT_THROW(t.blame(3), std::out_of_range);
  // A rejected blame counts no unit.
  EXPECT_EQ(t.observations(), 0u);
}

// Synthetic PAAI-2 process: d = 6 links with given per-traversal rates;
// per "cycle" the data crosses all links; a probe fires iff the data (or
// its dest-ack) dropped; on probe a uniform node e is selected and the
// prefix [0, e-1] fails iff any of ~3 traversals dropped there.
TEST(Paai2ScoreTable, EstimatorRecoversPerLinkRates) {
  const std::size_t d = 6;
  std::vector<double> theta = {0.01, 0.01, 0.01, 0.01, 0.03, 0.01};
  Paai2ScoreTable table(d);
  Rng rng(7);

  const int cycles = 600000;
  for (int c = 0; c < cycles; ++c) {
    table.add_data_packet();
    // Data leg: find first dropping link (or none).
    std::size_t data_drop = d;  // d = none
    for (std::size_t j = 0; j < d; ++j) {
      if (rng.bernoulli(theta[j])) {
        data_drop = j;
        break;
      }
    }
    // Dest-ack leg (only if data survived).
    bool ack_dropped = false;
    if (data_drop == d) {
      for (std::size_t j = d; j-- > 0;) {
        if (rng.bernoulli(theta[j])) {
          ack_dropped = true;
          break;
        }
      }
    }
    if (data_drop == d && !ack_dropped) continue;  // no probe

    const std::size_t e = 1 + rng.next_below(d);
    // Prefix failure: data dropped in prefix, or probe/report dropped
    // in prefix.
    bool failed = data_drop < e;
    for (std::size_t leg = 0; leg < 2 && !failed; ++leg) {
      for (std::size_t j = 0; j < e && !failed; ++j) {
        if (rng.bernoulli(theta[j])) failed = true;
      }
    }
    table.add_probe(e, failed);
  }

  const std::vector<double> est = table.thetas();
  for (std::size_t j = 0; j < d; ++j) {
    EXPECT_NEAR(est[j], theta[j], 0.006) << "link " << j;
  }
  EXPECT_EQ(table.convicted(0.02), std::vector<std::size_t>{4});
}

TEST(Paai2ScoreTable, InterfaceBasics) {
  Paai2ScoreTable table(6);
  table.add_data_packet();
  table.add_data_packet();
  table.add_probe(3, true);
  EXPECT_EQ(table.probes(), 1u);
  EXPECT_EQ(table.selections(3), 1u);
  EXPECT_DOUBLE_EQ(table.observed_e2e_rate(), 0.5);
  // The paper's interval scoring: links 0..2 gained a point.
  EXPECT_EQ(table.interval_score(0), 1u);
  EXPECT_EQ(table.interval_score(2), 1u);
  EXPECT_EQ(table.interval_score(3), 0u);
  EXPECT_THROW(table.add_probe(0, true), std::out_of_range);
  EXPECT_THROW(table.add_probe(7, true), std::out_of_range);
  table.reset();
  EXPECT_EQ(table.probes(), 0u);
}

TEST(Paai2ScoreTable, IntervalScoresShowDifferenceAcrossMaliciousLink) {
  // The paper's identification intuition: E[s_j - s_{j+1}] is the failure
  // mass at selection e = j+1; a malicious l_4 makes s_4 - s_5 much
  // bigger than other adjacent differences.
  const std::size_t d = 6;
  std::vector<double> theta = {0.01, 0.01, 0.01, 0.01, 0.05, 0.01};
  Paai2ScoreTable table(d);
  Rng rng(11);
  for (int c = 0; c < 300000; ++c) {
    table.add_data_packet();
    std::size_t drop = d;
    for (std::size_t j = 0; j < d; ++j) {
      if (rng.bernoulli(theta[j])) {
        drop = j;
        break;
      }
    }
    if (drop == d) continue;
    const std::size_t e = 1 + rng.next_below(d);
    table.add_probe(e, drop < e);
  }
  std::vector<double> diffs;
  for (std::size_t j = 0; j + 1 < d; ++j) {
    diffs.push_back(static_cast<double>(table.interval_score(j)) -
                    static_cast<double>(table.interval_score(j + 1)));
  }
  // diffs[j] corresponds to failures with e = j+1 i.e. prefix up to l_j.
  // The jump in prefix failure mass happens between e=4 (prefix l_0..l_3,
  // clean) and e=5 (prefix includes l_4).
  std::size_t argmax = 0;
  for (std::size_t j = 1; j < diffs.size(); ++j) {
    if (diffs[j] > diffs[argmax]) argmax = j;
  }
  EXPECT_EQ(argmax, 4u);
}

// ------------------------------------------------------------ verdict pin
//
// Deterministic synthetic mutation sequences for the three table families
// and the mesh store, each scored under margin, persistent:3, windowed:64
// and hybrid:4,64. The expected strings pin the exact convicted sets, the
// bit patterns of thetas() and the window ledger's counters. The stream
// Equivalence.* tests replay batch and stream through the same classes, so
// only a pin like this catches a slip in the shared conviction rule.

constexpr const char* kPinSpecs[] = {"margin", "persistent:3", "windowed:64",
                                     "hybrid:4,64"};
constexpr double kPinThresholds[] = {0.006, 0.012, 0.018};

/// Per-link drop rate for the synthetic sequences: link 4 drops steadily
/// just above the threshold, link 1 is honest except inside two bursts of
/// the unit axis, and the other links ride at the natural rate.
double pin_rate(std::size_t link, std::uint64_t unit) {
  if (link == 4) return 0.024;
  if (link == 1 && ((unit >= 1200 && unit < 1700) ||
                    (unit >= 3800 && unit < 4100))) {
    return 0.09;
  }
  return 0.004;
}

/// The convicted sets at every pin threshold.
template <class Table>
std::string verdicts(const Table& table) {
  std::ostringstream os;
  for (const double threshold : kPinThresholds) {
    os << "convicted=";
    for (const std::size_t l : table.convicted(threshold)) os << l << ' ';
    os << "| ";
  }
  return os.str();
}

/// Verdicts, theta bit patterns and ledger counters of a finished table.
template <class Table>
std::string describe(const Table& table) {
  std::ostringstream os;
  os << verdicts(table) << "thetas=";
  for (const double th : table.thetas()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &th, sizeof bits);
    os << std::hex << std::setw(16) << std::setfill('0') << bits << std::dec
       << ' ';
  }
  const WindowLedger& led = table.windows();
  os << "| completed=" << led.completed() << " max_streak=";
  for (std::size_t l = 0; l < led.num_links(); ++l) {
    os << led.max_streak(l) << ' ';
  }
  os << "flagrant=";
  for (std::size_t l = 0; l < led.num_links(); ++l) {
    os << led.flagrant_windows(l) << ' ';
  }
  return os.str();
}

std::string pin_onion(const BlameSpec& spec) {
  ScoreTable table(6, 2.6);
  table.set_blame(spec);
  Rng rng(101);
  std::string early;  // verdicts at small-sample checkpoints
  for (std::uint64_t u = 0; u < 6000; ++u) {
    if (u == 120 || u == 500 || u == 2000) early += verdicts(table);
    std::size_t first = 6;
    for (std::size_t l = 0; l < 6 && first == 6; ++l) {
      if (rng.bernoulli(1.0 - std::pow(1.0 - pin_rate(l, u), 2.6))) {
        first = l;
      }
    }
    if (first == 6) {
      table.add_clean();
    } else {
      table.blame(first);
    }
  }
  return early + describe(table);
}

std::string pin_prefix(const BlameSpec& spec) {
  const std::size_t d = 6;
  Paai2ScoreTable table(d);
  table.set_blame(spec);
  Rng rng(202);
  std::string early;
  for (std::uint64_t c = 0; c < 60000; ++c) {
    if (c == 2000 || c == 8000 || c == 20000) early += verdicts(table);
    table.add_data_packet();
    const std::uint64_t unit = table.probes();
    std::size_t drop = d;
    for (std::size_t j = 0; j < d && drop == d; ++j) {
      if (rng.bernoulli(pin_rate(j, unit * 8))) drop = j;
    }
    if (drop == d && !rng.bernoulli(0.02)) continue;  // no probe
    const std::size_t e = 1 + rng.next_below(d);
    bool failed = drop < e;
    for (std::size_t j = 0; j < e && !failed; ++j) {
      if (rng.bernoulli(2.0 * pin_rate(j, unit * 8))) failed = true;
    }
    table.add_probe(e, failed);
  }
  return early + describe(table);
}

std::string pin_fl(const BlameSpec& spec) {
  const std::size_t d = 6;
  FlScoreTable table(d);
  table.set_blame(spec);
  Rng rng(303);
  std::string early;
  for (std::uint64_t i = 0; i < 2500; ++i) {
    if (i == 60 || i == 250 || i == 800) early += verdicts(table);
    if (rng.bernoulli(0.03)) {
      table.interval_lost();
      continue;
    }
    std::uint64_t count = 40 + rng.next_below(20);
    for (std::size_t node = 0; node <= d; ++node) {
      table.add_count(node, count);
      if (node < d) count -= rng.binomial(count, pin_rate(node, i * 2));
    }
    table.interval_reported();
  }
  return early + describe(table);
}

std::string pin_mesh(const BlameSpec& spec) {
  const std::size_t links = 6;
  const std::size_t rounds = 24;
  mesh::GlobalScoreStore store(links, rounds);
  Rng rng(404);
  for (std::uint32_t path = 0; path < 6; ++path) {
    mesh::ScoreShard shard(links, rounds);
    for (std::size_t l = 0; l < links; ++l) {
      if ((path + l) % 3 == 0) continue;  // path does not cross the link
      std::uint64_t units = 0, blames = 0;
      for (std::size_t r = 0; r < rounds; ++r) {
        const std::uint64_t ru = 8 + rng.next_below(8);
        const std::uint64_t rb = rng.binomial(ru, pin_rate(l, r * 200));
        shard.add_window(l, r, ru, rb);
        units += ru;
        blames += rb;
      }
      shard.add(l, units, blames, path, false);
    }
    store.absorb(shard);
  }
  std::ostringstream os;
  for (const double threshold : kPinThresholds) {
    os << "convicted=";
    for (std::size_t l = 0; l < links; ++l) {
      if (store.convicts(l, threshold, spec)) os << l << ' ';
    }
    for (const std::size_t prefix : {1, 3, 12}) {
      os << "| rounds<" << prefix << "=";
      for (std::size_t l = 0; l < links; ++l) {
        if (store.convicts(l, threshold, spec, prefix)) os << l << ' ';
      }
    }
    os << "| ";
  }
  return os.str();
}

TEST(VerdictPin, EveryFamilyUnderEveryBlameMode) {
  const char* const onion[] = {
      "convicted=4 | convicted=4 | convicted=| convicted=4 | "
      "convicted=4 | convicted=| convicted=1 4 | convicted=1 4 | "
      "convicted=1 4 | convicted=1 4 | convicted=1 4 | convicted=4 | "
      "thetas=3f722e7222f99f80 3f8c68a328440100 3f722e7222f99f80 "
      "3f6c6f92bc27f200 3f98494b10f8c360 3f711fb73d8ac600 | "
      "completed=31 max_streak=1 3 0 1 31 0 flagrant=0 4 0 0 0 0 ",
      "convicted=1 4 | convicted=4 | convicted=4 | convicted=4 | "
      "convicted=4 | convicted=4 | convicted=1 4 | convicted=1 4 | "
      "convicted=1 4 | convicted=1 4 | convicted=1 4 | convicted=4 | "
      "thetas=3f722e7222f99f80 3f8c68a328440100 3f722e7222f99f80 "
      "3f6c6f92bc27f200 3f98494b10f8c360 3f711fb73d8ac600 | "
      "completed=31 max_streak=1 3 0 1 31 0 flagrant=0 4 0 0 0 0 ",
      "convicted=4 | convicted=4 | convicted=| convicted=4 | "
      "convicted=4 | convicted=| convicted=1 4 | convicted=1 4 | "
      "convicted=1 4 | convicted=1 4 | convicted=1 4 | convicted=4 | "
      "thetas=3f722e7222f99f80 3f8c68a328440100 3f722e7222f99f80 "
      "3f6c6f92bc27f200 3f98494b10f8c360 3f711fb73d8ac600 | "
      "completed=93 max_streak=1 9 1 1 14 1 flagrant=0 13 0 0 1 0 ",
      "convicted=4 | convicted=4 | convicted=| convicted=4 | "
      "convicted=4 | convicted=4 | convicted=1 4 | convicted=1 4 | "
      "convicted=1 4 | convicted=1 4 | convicted=1 4 | convicted=4 | "
      "thetas=3f722e7222f99f80 3f8c68a328440100 3f722e7222f99f80 "
      "3f6c6f92bc27f200 3f98494b10f8c360 3f711fb73d8ac600 | "
      "completed=93 max_streak=1 9 1 1 14 1 flagrant=0 13 0 0 1 0 ",
  };
  const char* const prefix[] = {
      "convicted=4 | convicted=4 | convicted=4 | convicted=1 4 | "
      "convicted=1 4 | convicted=| convicted=4 | convicted=4 | "
      "convicted=4 | convicted=4 | convicted=4 | convicted=4 | "
      "thetas=3f705859bc34a500 3f72c5408ad84d80 3f713bebc4453800 "
      "3f6e857559944d00 3f96d71118b4ab40 3f721f137ce17800 | "
      "completed=19 max_streak=0 1 1 1 9 0 flagrant=0 0 0 0 0 0 ",
      "convicted=2 4 | convicted=2 4 | convicted=4 | convicted=1 4 | "
      "convicted=1 4 | convicted=4 | convicted=1 4 5 | convicted=4 | "
      "convicted=4 | convicted=4 | convicted=4 | convicted=4 | "
      "thetas=3f705859bc34a500 3f72c5408ad84d80 3f713bebc4453800 "
      "3f6e857559944d00 3f96d71118b4ab40 3f721f137ce17800 | "
      "completed=19 max_streak=0 1 1 1 9 0 flagrant=0 0 0 0 0 0 ",
      "convicted=4 | convicted=4 | convicted=4 | convicted=1 4 | "
      "convicted=1 4 | convicted=| convicted=1 4 | convicted=4 | "
      "convicted=4 | convicted=4 | convicted=4 | convicted=4 | "
      "thetas=3f705859bc34a500 3f72c5408ad84d80 3f713bebc4453800 "
      "3f6e857559944d00 3f96d71118b4ab40 3f721f137ce17800 | "
      "completed=59 max_streak=1 2 2 1 8 1 flagrant=0 1 0 0 0 0 ",
      "convicted=4 | convicted=4 | convicted=4 | convicted=1 4 | "
      "convicted=1 4 | convicted=| convicted=1 4 | convicted=4 | "
      "convicted=4 | convicted=4 | convicted=4 | convicted=4 | "
      "thetas=3f705859bc34a500 3f72c5408ad84d80 3f713bebc4453800 "
      "3f6e857559944d00 3f96d71118b4ab40 3f721f137ce17800 | "
      "completed=59 max_streak=1 2 2 1 8 1 flagrant=0 1 0 0 0 0 ",
  };
  const char* const fl[] = {
      "convicted=| convicted=| convicted=| convicted=4 | convicted=| "
      "convicted=| convicted=1 4 | convicted=1 4 | convicted=| "
      "convicted=1 4 | convicted=1 4 | convicted=4 | "
      "thetas=3f703af8fcc1c680 3f91beb1f434be20 3f70ef00b2307600 "
      "3f6e9f02a282f900 3f985830635354c0 3f71317364e86800 | "
      "completed=12 max_streak=0 2 0 0 12 0 flagrant=0 2 0 0 0 0 ",
      "convicted=4 | convicted=4 | convicted=4 | convicted=4 | "
      "convicted=4 | convicted=4 | convicted=1 4 | convicted=1 4 | "
      "convicted=1 4 | convicted=1 4 | convicted=1 4 | convicted=4 | "
      "thetas=3f703af8fcc1c680 3f91beb1f434be20 3f70ef00b2307600 "
      "3f6e9f02a282f900 3f985830635354c0 3f71317364e86800 | "
      "completed=12 max_streak=0 2 0 0 12 0 flagrant=0 2 0 0 0 0 ",
      "convicted=| convicted=| convicted=| convicted=4 | convicted=| "
      "convicted=| convicted=1 4 | convicted=1 4 | convicted=1 | "
      "convicted=1 4 | convicted=1 4 | convicted=4 | "
      "thetas=3f703af8fcc1c680 3f91beb1f434be20 3f70ef00b2307600 "
      "3f6e9f02a282f900 3f985830635354c0 3f71317364e86800 | "
      "completed=37 max_streak=0 4 0 0 37 0 flagrant=0 7 0 0 0 0 ",
      "convicted=| convicted=| convicted=| convicted=4 | convicted=| "
      "convicted=| convicted=1 4 | convicted=1 4 | convicted=1 4 | "
      "convicted=1 4 | convicted=1 4 | convicted=1 4 | "
      "thetas=3f703af8fcc1c680 3f91beb1f434be20 3f70ef00b2307600 "
      "3f6e9f02a282f900 3f985830635354c0 3f71317364e86800 | "
      "completed=37 max_streak=0 4 0 0 37 0 flagrant=0 7 0 0 0 0 ",
  };
  const char* const mesh[] = {
      "convicted=1 4 5 | rounds<1=5 | rounds<3=4 5 | rounds<12=1 | "
      "convicted=1 4 | rounds<1=5 | rounds<3=| rounds<12=1 | "
      "convicted=4 | rounds<1=| rounds<3=| rounds<12=| ",
      "convicted=1 3 4 5 | rounds<1=| rounds<3=4 5 | rounds<12=1 4 5 "
      "| convicted=1 4 | rounds<1=| rounds<3=4 5 | rounds<12=1 | "
      "convicted=1 4 | rounds<1=| rounds<3=4 5 | rounds<12=1 | ",
      "convicted=1 4 5 | rounds<1=5 | rounds<3=4 5 | rounds<12=1 | "
      "convicted=1 4 | rounds<1=5 | rounds<3=| rounds<12=1 | "
      "convicted=1 4 | rounds<1=| rounds<3=| rounds<12=1 | ",
      "convicted=1 4 5 | rounds<1=5 | rounds<3=4 5 | rounds<12=1 | "
      "convicted=1 4 | rounds<1=5 | rounds<3=| rounds<12=1 | "
      "convicted=1 4 | rounds<1=| rounds<3=| rounds<12=1 | ",
  };
  for (std::size_t m = 0; m < 4; ++m) {
    SCOPED_TRACE(kPinSpecs[m]);
    const BlameSpec spec = BlameSpec::parse(kPinSpecs[m]);
    EXPECT_EQ(pin_onion(spec), onion[m]);
    EXPECT_EQ(pin_prefix(spec), prefix[m]);
    EXPECT_EQ(pin_fl(spec), fl[m]);
    EXPECT_EQ(pin_mesh(spec), mesh[m]);
  }
}

// ------------------------------------------------------- conviction guards
//
// The guard cases the pin sequences never reach: empty tables, a PAAI-2
// link with no probe in its upper selection bin, and a stat-FL table
// polled before its first interval is reported.

constexpr const char* kGuardSpecs[] = {"margin", "persistent:1", "windowed:8",
                                       "hybrid:1,8"};

TEST(ConvictionGuards, EmptyTablesConvictNothingInEveryMode) {
  for (const char* text : kGuardSpecs) {
    SCOPED_TRACE(text);
    const BlameSpec spec = BlameSpec::parse(text);
    ScoreTable onion(6, 2.6);
    onion.set_blame(spec);
    Paai2ScoreTable prefix(6);
    prefix.set_blame(spec);
    FlScoreTable fl(6);
    fl.set_blame(spec);
    const mesh::GlobalScoreStore store(6, 8);
    // Below zero, any estimate at all would clear the threshold.
    for (const double threshold : {-1.0, 0.0, 0.018}) {
      SCOPED_TRACE(threshold);
      EXPECT_TRUE(onion.convicted(threshold).empty());
      EXPECT_TRUE(prefix.convicted(threshold).empty());
      EXPECT_TRUE(fl.convicted(threshold).empty());
      for (const ProtocolKind kind :
           {ProtocolKind::kFullAck, ProtocolKind::kPaai1, ProtocolKind::kPaai2,
            ProtocolKind::kStatisticalFl}) {
        EXPECT_TRUE(Scorer(kind, 6, spec).convicted(threshold).empty());
      }
      for (std::size_t l = 0; l < 6; ++l) {
        EXPECT_FALSE(store.convicts(l, threshold, spec)) << l;
      }
    }
  }
}

// Probes select node 1 or 3 only, so link 1's upper bin (selection 2)
// stays empty: its estimate is exactly 0 and it has no margin, while its
// interval score still counts the failed selection-3 probes. Only a
// threshold below zero tells "no margin" from "estimate 0".
TEST(ConvictionGuards, Paai2EmptyUpperBinDisablesOnlyTheMargin) {
  Paai2ScoreTable table(3);
  for (int i = 0; i < 100; ++i) table.add_data_packet();
  for (int i = 0; i < 10; ++i) {
    table.add_probe(1, false);
    table.add_probe(3, true);
  }
  ASSERT_EQ(table.selections(2), 0u);
  ASSERT_EQ(table.interval_score(1), 10u);
  ASSERT_EQ(table.thetas()[1], 0.0);
  EXPECT_EQ(table.convicted(-1.0), (std::vector<std::size_t>{0, 2}));
  table.set_blame(BlameSpec::parse("persistent:1"));
  EXPECT_EQ(table.convicted(-1.0), (std::vector<std::size_t>{0, 1, 2}));
  table.set_blame(BlameSpec::parse("persistent:11"));
  EXPECT_TRUE(table.convicted(-1.0).empty());
}

// Stat-FL folds an interval's counts node by node, and a stream poll can
// land between them, before any interval is reported: the partial
// counts are evidence (a count deficit and a ratio estimate) like any
// other.
TEST(ConvictionGuards, StatFlPolledBetweenFirstCountsKeepsItsVerdict) {
  for (const char* text : {"persistent:1", "margin"}) {
    SCOPED_TRACE(text);
    FlScoreTable table(3);
    table.set_blame(BlameSpec::parse(text));
    EXPECT_TRUE(table.convicted(0.018).empty());
    table.add_count(0, 100);  // S = 100 0 0 0: l_0 reads as a blackhole
    EXPECT_EQ(table.convicted(0.018), std::vector<std::size_t>{0});
    table.add_count(1, 50);  // S = 100 50 0 0
    EXPECT_EQ(table.convicted(0.018), (std::vector<std::size_t>{0, 1}));
    table.add_count(2, 50);  // S = 100 50 50 0
    EXPECT_EQ(table.convicted(0.018), (std::vector<std::size_t>{0, 2}));
    table.add_count(3, 50);
    ASSERT_EQ(table.intervals_reported(), 0u);
    EXPECT_EQ(table.convicted(0.018), std::vector<std::size_t>{0});
    table.interval_reported();
    EXPECT_EQ(table.convicted(0.018), std::vector<std::size_t>{0});
  }
}

// Each family's sd at one hand-computed point (docs/DETECTORS.md's
// table), and the mesh's zero-unit record.
TEST(LinkEvidence, SdMatchesEachFamilysFormula) {
  std::vector<LinkEvidence> ev;

  // Onion: sqrt(max(b, 1/n) (1 - b) / n) / t with n = 100, t = 2.
  ScoreTable onion(3, 2.0);
  for (int i = 0; i < 90; ++i) onion.add_clean();
  for (int i = 0; i < 10; ++i) onion.blame(1);
  onion.evidence(&ev);
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_NEAR(ev[0].sd, 0.005, 1e-15);  // b = 0 -> floored at 1/n
  EXPECT_NEAR(ev[1].sd, 0.015, 1e-15);  // b = 0.1: sqrt(0.0009) / 2
  EXPECT_EQ(ev[1].tally, 10.0);
  EXPECT_EQ(ev[1].theta, onion.theta(1));

  // PAAI-2: psi/2 sqrt(1/n_lo + 1/n_hi) / (1 + 2 psi), psi = 50/100.
  Paai2ScoreTable prefix(3);
  for (int i = 0; i < 100; ++i) prefix.add_data_packet();
  for (int i = 0; i < 10; ++i) prefix.add_probe(1, false);
  for (int i = 0; i < 40; ++i) prefix.add_probe(2, i < 4);
  prefix.evidence(&ev);
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_NEAR(ev[0].sd, 0.0395284707521047, 1e-15);  // 0.125 sqrt(0.1)
  EXPECT_NEAR(ev[1].sd, 0.0441941738241592, 1e-15);  // 0.125 sqrt(0.125)
  EXPECT_EQ(ev[2].sd, std::numeric_limits<double>::infinity());
  EXPECT_EQ(ev[1].tally, 4.0);
  EXPECT_EQ(ev[1].theta, prefix.thetas()[1]);

  // Stat-FL: sqrt(2 S_{j+1} + 1) / S_j over S = 100 98 0.
  FlScoreTable fl(2);
  fl.add_count(0, 100);
  fl.add_count(1, 98);
  fl.add_count(2, 0);
  fl.interval_reported();
  fl.evidence(&ev);
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_NEAR(ev[0].sd, 0.140356688476182, 1e-15);  // sqrt(197) / 100
  EXPECT_NEAR(ev[1].sd, 1.0 / 98.0, 1e-15);
  EXPECT_EQ(ev[0].tally, 2.0);
  EXPECT_EQ(ev[1].theta, 1.0);

  // Mesh: the onion formula at t = 1; no unit, no evidence.
  const LinkEvidence m = mesh::evidence(400, 8);
  EXPECT_NEAR(m.sd, 0.007, 1e-15);  // sqrt(0.02 * 0.98 / 400)
  EXPECT_EQ(m.theta, 0.02);
  EXPECT_EQ(m.tally, 8.0);
  const LinkEvidence none = mesh::evidence(0, 0);
  EXPECT_EQ(none.sd, std::numeric_limits<double>::infinity());
  EXPECT_EQ(none.theta, 0.0);
}

TEST(PendingStore, PutFindEraseWithMeter) {
  sim::StorageMeter meter;
  PendingStore<int> store(&meter);
  net::PacketId a{}, b{};
  b[0] = 1;
  store.put(a, 10, 100);
  store.put(b, 20, 200);
  EXPECT_EQ(meter.current(), 2u);
  ASSERT_NE(store.find(a), nullptr);
  EXPECT_EQ(*store.find(a), 10);
  store.erase(a);
  EXPECT_EQ(store.find(a), nullptr);
  EXPECT_EQ(meter.current(), 1u);
  store.erase(a);  // idempotent
  EXPECT_EQ(meter.current(), 1u);
}

TEST(PendingStore, PurgeRespectsExpiryAndExtension) {
  sim::StorageMeter meter;
  PendingStore<int> store(&meter);
  net::PacketId a{}, b{};
  b[0] = 1;
  store.put(a, 1, 100);
  store.put(b, 2, 100);
  store.extend(b, 300);
  store.purge(150);
  EXPECT_EQ(store.find(a), nullptr);
  ASSERT_NE(store.find(b), nullptr);
  EXPECT_EQ(meter.current(), 1u);
  store.purge(350);
  EXPECT_EQ(store.find(b), nullptr);
  EXPECT_EQ(meter.current(), 0u);
}

TEST(PendingStore, ExtendNeverShrinks) {
  PendingStore<int> store;
  net::PacketId a{};
  store.put(a, 1, 500);
  store.extend(a, 100);  // ignored
  store.purge(200);
  EXPECT_NE(store.find(a), nullptr);
}

TEST(PendingStore, ReinsertAfterEraseWorks) {
  PendingStore<int> store;
  net::PacketId a{};
  store.put(a, 1, 100);
  store.erase(a);
  store.put(a, 2, 300);
  store.purge(150);  // stale FIFO entry for the erased generation
  ASSERT_NE(store.find(a), nullptr);
  EXPECT_EQ(*store.find(a), 2);
}

/// An id whose first 8 bytes (all PacketIdHash reads) are `bucket` and
/// whose last 8 are `tag`: equal buckets collide in the table.
net::PacketId colliding_id(std::uint64_t bucket, std::uint64_t tag) {
  net::PacketId id{};
  std::memcpy(id.data(), &bucket, sizeof(bucket));
  std::memcpy(id.data() + 8, &tag, sizeof(tag));
  return id;
}

TEST(PendingStore, CollidingIdsStayDistinct) {
  sim::StorageMeter meter;
  PendingStore<int> store(&meter);
  for (int t = 0; t < 6; ++t) store.put(colliding_id(42, t), t, 100);
  EXPECT_EQ(PacketIdHash{}(colliding_id(42, 0)),
            PacketIdHash{}(colliding_id(42, 5)));
  EXPECT_EQ(store.size(), 6u);
  // Erasing from the middle of the probe run must keep the later ones
  // reachable.
  store.erase(colliding_id(42, 2));
  store.erase(colliding_id(42, 0));
  for (int t = 0; t < 6; ++t) {
    int* v = store.find(colliding_id(42, t));
    if (t == 0 || t == 2) {
      EXPECT_EQ(v, nullptr) << t;
    } else {
      ASSERT_NE(v, nullptr) << t;
      EXPECT_EQ(*v, t);
    }
  }
  EXPECT_EQ(meter.current(), 4u);
}

TEST(PendingStore, GrowsPastInitialCapacity) {
  sim::StorageMeter meter;
  PendingStore<int> store(&meter);
  constexpr int kEntries = 5000;
  for (int i = 0; i < kEntries; ++i) {
    store.put(colliding_id(static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL,
                           i),
              i, 1000 + i);
  }
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kEntries));
  EXPECT_EQ(meter.current(), static_cast<std::size_t>(kEntries));
  EXPECT_EQ(meter.peak(), static_cast<std::size_t>(kEntries));
  for (int i = 0; i < kEntries; ++i) {
    const int* v = store.find(colliding_id(
        static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL, i));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i);
  }
  store.purge(1000 + kEntries / 2);  // deadlines 1000 .. 1000+kEntries/2
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kEntries / 2 - 1));
  EXPECT_EQ(meter.current(), store.size());
}

TEST(PendingStore, ExtendThenPurgeRequeues) {
  sim::StorageMeter meter;
  PendingStore<int> store(&meter);
  for (int i = 0; i < 40; ++i) store.put(colliding_id(i, 0), i, 100);
  for (int i = 0; i < 40; i += 2) store.extend(colliding_id(i, 0), 300 + i);
  store.purge(150);  // the odd ids expire; the even ones are re-queued
  EXPECT_EQ(store.size(), 20u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(store.find(colliding_id(i, 0)) != nullptr, i % 2 == 0) << i;
  }
  store.purge(319);  // deadlines 300..318 pass, 320..338 do not
  EXPECT_EQ(store.size(), 10u);
  store.purge(1000);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(meter.current(), 0u);
}

TEST(PendingStore, EraseThenPurgeCountsOnce) {
  sim::StorageMeter meter;
  PendingStore<int> store(&meter);
  for (int i = 0; i < 10; ++i) store.put(colliding_id(7, i), i, 100);
  for (int i = 0; i < 10; i += 3) store.erase(colliding_id(7, i));
  EXPECT_EQ(meter.current(), 6u);
  store.purge(100);  // the erased ids' deadlines are skipped, not counted
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(meter.current(), 0u);
}

TEST(PendingStore, ClearDropsEntriesAndDeadlines) {
  sim::StorageMeter meter;
  PendingStore<int> store(&meter);
  const net::PacketId a = colliding_id(1, 1);
  for (int i = 0; i < 30; ++i) store.put(colliding_id(i, 2), i, 100);
  store.put(a, 1, 100);
  store.clear();  // what a node crash runs
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(meter.current(), 0u);
  EXPECT_EQ(store.find(a), nullptr);
  // A re-put after the crash must not be expired by a deadline queued
  // before it.
  store.put(a, 2, 500);
  store.purge(200);
  ASSERT_NE(store.find(a), nullptr);
  EXPECT_EQ(*store.find(a), 2);
  EXPECT_EQ(meter.current(), 1u);
}

/// The node-based store the flat table replaced (std::map plus a deque of
/// deadlines), kept as the oracle for its semantics — including purge()'s
/// FIFO order, which lets an unexpired front deadline shield a later,
/// already expired entry until the front passes.
class MapStoreOracle {
 public:
  void put(const net::PacketId& id, int value, sim::SimTime expiry) {
    map_[id] = Entry{value, expiry};
    fifo_.emplace_back(expiry, id);
  }
  const int* find(const net::PacketId& id) const {
    const auto it = map_.find(id);
    return it == map_.end() ? nullptr : &it->second.value;
  }
  void extend(const net::PacketId& id, sim::SimTime expiry) {
    const auto it = map_.find(id);
    if (it != map_.end() && expiry > it->second.expiry) {
      it->second.expiry = expiry;
    }
  }
  void erase(const net::PacketId& id) { map_.erase(id); }
  void purge(sim::SimTime now) {
    while (!fifo_.empty() && fifo_.front().first <= now) {
      const net::PacketId id = fifo_.front().second;
      fifo_.pop_front();
      const auto it = map_.find(id);
      if (it == map_.end()) continue;
      if (it->second.expiry <= now) {
        map_.erase(it);
      } else {
        fifo_.emplace_back(it->second.expiry, id);
      }
    }
  }
  void clear() {
    map_.clear();
    fifo_.clear();
  }
  std::size_t size() const { return map_.size(); }

 private:
  struct Entry {
    int value;
    sim::SimTime expiry;
  };
  std::map<net::PacketId, Entry> map_;
  std::deque<std::pair<sim::SimTime, net::PacketId>> fifo_;
};

// Random operations against the oracle, over few buckets so probe runs
// are long and wrap around the table.
TEST(PendingStore, MatchesMapStoreUnderRandomOps) {
  sim::StorageMeter meter;
  PendingStore<int> store(&meter);
  MapStoreOracle oracle;
  Rng rng(2024);
  sim::SimTime now = 0;
  const auto random_id = [&rng] {
    return colliding_id(rng.next_below(5), rng.next_below(40));
  };
  for (int step = 0; step < 20000; ++step) {
    const net::PacketId id = random_id();
    switch (rng.next_below(6)) {
      case 0:
      case 1: {
        const int v = static_cast<int>(rng.next_below(1000));
        const auto expiry =
            now + 1 + static_cast<sim::SimTime>(rng.next_below(50));
        store.put(id, v, expiry);
        oracle.put(id, v, expiry);
        break;
      }
      case 2: {
        const auto expiry = now + static_cast<sim::SimTime>(rng.next_below(80));
        store.extend(id, expiry);
        oracle.extend(id, expiry);
        break;
      }
      case 3:
        store.erase(id);
        oracle.erase(id);
        break;
      case 4:
        now += static_cast<sim::SimTime>(rng.next_below(10));
        store.purge(now);
        oracle.purge(now);
        break;
      default:
        if (rng.next_below(100) == 0) {
          store.clear();
          oracle.clear();
        }
        break;
    }
    ASSERT_EQ(store.size(), oracle.size()) << "step " << step;
    ASSERT_EQ(meter.current(), oracle.size()) << "step " << step;
    for (int probe = 0; probe < 4; ++probe) {
      const net::PacketId q = probe == 0 ? id : random_id();
      const int* got = store.find(q);
      const int* want = oracle.find(q);
      ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
      if (got != nullptr) {
        ASSERT_EQ(*got, *want) << "step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace paai::protocols
