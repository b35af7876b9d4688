// src/mesh tests: topology generators and grammar, the O(links) score
// store's deterministic merge, and the MeshRunner's Corollary 2 claims —
// cross-path union conviction, no false accusation on shared honest
// nodes under every benign fault plan, spread-vs-concentrated damage
// against the closed forms, and bit-identity across --jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "analysis/bounds.h"
#include "faults/plan.h"
#include "mesh/runner.h"
#include "mesh/score_store.h"
#include "mesh/topology.h"
#include "util/rng.h"

namespace paai::mesh {
namespace {

/// True when every consecutive pair of links in every path connects
/// (link j's head is link j+1's tail) — routes must be real walks.
bool paths_are_walks(const Topology& topo, const PathSet& paths) {
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const std::uint32_t* pl = paths.links(i);
    for (std::size_t j = 0; j + 1 < paths.length(i); ++j) {
      if (topo.link(pl[j]).to != topo.link(pl[j + 1]).from) return false;
    }
  }
  return true;
}

TEST(MeshTopology, LinearIsLinkDisjointChains) {
  const Topology topo = Topology::linear(4, 6);
  EXPECT_EQ(topo.num_nodes(), 4u * 7u);
  EXPECT_EQ(topo.num_links(), 24u);
  const PathSet paths = topo.enumerate_paths(8, 3);
  ASSERT_EQ(paths.size(), 8u);
  EXPECT_TRUE(paths_are_walks(topo, paths));
  // Paths on different chains never share a link.
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(paths.length(i), 6u);
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(paths.links(i)[j], (i % 4) * 6 + j);
    }
  }
}

TEST(MeshTopology, GridRoutesAreValidWalks) {
  const Topology topo = Topology::grid(5, 7);
  EXPECT_EQ(topo.num_nodes(), 35u);
  // 5 rows x 6 right links + 4 row-gaps x 7 down links.
  EXPECT_EQ(topo.num_links(), 5u * 6u + 4u * 7u);
  const PathSet paths = topo.enumerate_paths(64, 17);
  ASSERT_EQ(paths.size(), 64u);
  EXPECT_TRUE(paths_are_walks(topo, paths));
  // Every route starts in the left column and ends in the right column.
  for (std::size_t i = 0; i < paths.size(); ++i) {
    ASSERT_GE(paths.length(i), 6u);
    EXPECT_EQ(topo.link(paths.links(i)[0]).from % 7, 0u);
    EXPECT_EQ(topo.link(paths.links(i)[paths.length(i) - 1]).to % 7, 6u);
  }
}

TEST(MeshTopology, FatTreeShapeAndSharedCores) {
  const Topology topo = Topology::fat_tree(4);
  // (k/2)^2 cores + k pods x k switches; per pod 8 edge<->agg and 8
  // agg<->core directed links.
  EXPECT_EQ(topo.num_nodes(), 4u + 16u);
  EXPECT_EQ(topo.num_links(), 64u);
  const PathSet paths = topo.enumerate_paths(200, 5);
  ASSERT_EQ(paths.size(), 200u);
  EXPECT_TRUE(paths_are_walks(topo, paths));
  std::vector<std::size_t> per_link(topo.num_links(), 0);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const std::size_t len = paths.length(i);
    EXPECT_TRUE(len == 2 || len == 4);  // intra- vs inter-pod
    for (std::size_t j = 0; j < len; ++j) ++per_link[paths.links(i)[j]];
  }
  // Shared intermediate nodes are the point: some link carries many
  // paths' evidence.
  EXPECT_GT(*std::max_element(per_link.begin(), per_link.end()), 10u);
}

TEST(MeshTopology, ChainsRoutesDeterministic) {
  const Topology topo = Topology::chains(32, 3, 7);
  EXPECT_EQ(topo.num_nodes(), 32u);
  EXPECT_GE(topo.num_links(), 32u);  // ring backbone at minimum
  const PathSet a = topo.enumerate_paths(50, 9);
  const PathSet b = topo.enumerate_paths(50, 9);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(paths_are_walks(topo, a));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.length(i), b.length(i));
    EXPECT_GE(a.length(i), 1u);
    for (std::size_t j = 0; j < a.length(i); ++j) {
      EXPECT_EQ(a.links(i)[j], b.links(i)[j]);
    }
  }
}

TEST(MeshTopology, GrammarRoundTripsAndRejectsMalformedSpecs) {
  for (const char* spec :
       {"linear@4:hops=6", "grid@5:cols=7", "fattree@4",
        "chains@32:degree=3,seed=7"}) {
    const Topology topo = Topology::parse(spec);
    EXPECT_EQ(topo.to_string(), spec);
    const Topology again = Topology::parse(topo.to_string());
    EXPECT_EQ(again.num_nodes(), topo.num_nodes());
    EXPECT_EQ(again.num_links(), topo.num_links());
  }
  EXPECT_THROW(Topology::parse("ring@5"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("fattree@5"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("grid@4:cols=2"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("linear@4:hops=6,bogus=1"),
               std::invalid_argument);
  EXPECT_THROW(Topology::parse("fattree@4;fattree@4"),
               std::invalid_argument);
}

// A chains seed is an integer in [0, 2^53]: a negative or fractional one
// is an error, not a wrapped or truncated seed.
TEST(MeshTopology, ChainsSeedIsAnExactInteger) {
  EXPECT_THROW(Topology::parse("chains@4:seed=-1"), std::invalid_argument);
  EXPECT_THROW(Topology::parse("chains@4:seed=1.9"), std::invalid_argument);
  const Topology topo = Topology::parse("chains@4:degree=3,seed=7");
  EXPECT_EQ(topo.to_string(), "chains@4:degree=3,seed=7");
  EXPECT_EQ(Topology::parse(topo.to_string()).to_string(), topo.to_string());
  EXPECT_EQ(Topology::parse("chains@4:seed=9007199254740992").to_string(),
            "chains@4:degree=3,seed=9007199254740992");
}

TEST(MeshStore, MergeIsOrderIndependentAndMemoryIsPerLink) {
  ScoreShard a(3), b(3);
  a.add(0, 100, 5, /*path=*/7, false);
  a.add(2, 50, 0, /*path=*/9, true);
  b.add(0, 200, 12, /*path=*/2, false);
  b.add(1, 80, 3, /*path=*/4, false);

  GlobalScoreStore ab(3), ba(3);
  ab.absorb(a);
  ab.absorb(b);
  ba.absorb(b);
  ba.absorb(a);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_EQ(ab.units(l), ba.units(l));
    EXPECT_EQ(ab.blames(l), ba.blames(l));
    EXPECT_EQ(ab.paths(l), ba.paths(l));
    EXPECT_EQ(ab.solo_convictions(l), ba.solo_convictions(l));
    EXPECT_EQ(ab.witnesses(l), ba.witnesses(l));
  }
  // Witnesses: only blame-contributing paths, ascending ids.
  EXPECT_EQ(ab.witnesses(0), (std::vector<std::uint32_t>{2, 7}));
  EXPECT_TRUE(ab.witnesses(2).empty());  // clean evidence, no witness
  EXPECT_EQ(ab.solo_convictions(2), 1u);

  // O(links): feeding 10k more paths through a shard never grows it.
  ScoreShard big(3);
  const std::size_t before = ScoreShard::bytes_for(3);
  for (std::uint32_t p = 0; p < 10000; ++p) big.add(1, 10, 1, p, false);
  EXPECT_EQ(ScoreShard::bytes_for(3), before);
  EXPECT_EQ(big.num_links(), 3u);
  GlobalScoreStore store(3);
  store.absorb(big);
  EXPECT_EQ(store.paths(1), 10000u);
  EXPECT_EQ(store.witnesses(1),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));  // smallest-K
}

/// The acceptance scenario: one adversarial node straddling many paths,
/// each path's own evidence too scarce to convict (zero solo
/// convictions), while the aggregated cross-path union convicts — the
/// Corollary 2 regime. Constants are calibrated against the pinned
/// seed; the engine is bit-deterministic, so the realized zero-solo /
/// union-convicts split is stable.
MeshConfig union_conviction_config() {
  MeshConfig cfg;
  cfg.topo = Topology::parse("linear@1:hops=6");
  cfg.paths = cfg.topo.enumerate_paths(20, 1);
  cfg.engine = MeshEngine::kStat;
  cfg.units_per_path = 6;
  cfg.rounds = 1;
  cfg.natural_loss = 0.01;
  cfg.decision_threshold = 0.02;
  cfg.adversaries = adversary::AdversaryPlan::parse("uniform@4:rate=0.05");
  cfg.seed0 = 9000;
  return cfg;
}

TEST(MeshRunner, CrossPathUnionConvictsWhereNoSinglePathCan) {
  const MeshResult r = run_mesh(union_conviction_config());
  // Node 4's outgoing link (chain link 4) is convicted from the union...
  const MeshResult::LinkVerdict& bad = r.links[4];
  EXPECT_TRUE(bad.malicious);
  EXPECT_TRUE(bad.convicted);
  EXPECT_EQ(bad.paths, 20u);
  // ...but no single path's own evidence would have convicted any link.
  for (const MeshResult::LinkVerdict& row : r.links) {
    EXPECT_EQ(row.solo_convictions, 0u);
  }
  // Provenance names at least two contributing paths.
  EXPECT_GE(bad.witnesses.size(), 2u);
  // And the union never frames an honest link.
  EXPECT_EQ(r.false_accusations, 0u);
  EXPECT_EQ(r.convicted, std::vector<std::size_t>{4});
  EXPECT_GT(bad.first_convicted_units, 0u);
}

TEST(MeshRunner, HonestSharedNodeSurvivesEveryBenignPlan) {
  // An honest chain shared by 1000 paths: every mesh link carries the
  // union of 1000 paths' evidence — exactly where a spurious conviction
  // would be cheapest — under each shipped benign fault plan.
  for (const faults::NamedPlan& plan : faults::benign_plans()) {
    MeshConfig cfg;
    cfg.topo = Topology::parse("linear@1:hops=6");
    cfg.paths = cfg.topo.enumerate_paths(1000, 2);
    cfg.engine = MeshEngine::kStat;
    cfg.units_per_path = 500;
    cfg.rounds = 8;
    cfg.natural_loss = 0.01;
    cfg.decision_threshold = 0.02;
    cfg.faults = faults::FaultPlan::parse(plan.spec);
    cfg.seed0 = 9100;
    const MeshResult r = run_mesh(cfg);
    EXPECT_TRUE(r.convicted.empty()) << "plan " << plan.name;
    EXPECT_EQ(r.false_accusations, 0u) << "plan " << plan.name;
    for (const MeshResult::LinkVerdict& row : r.links) {
      EXPECT_EQ(row.paths, 1000u);
      EXPECT_FALSE(row.malicious);
    }
  }
}

TEST(MeshRunner, SpreadVersusConcentratedMatchesCorollary2) {
  // z = 4 links at alpha = 0.2, natural loss zero, conviction disabled
  // (threshold above any estimate): measure pure damage. Spread (one
  // link per path) must land at z*alpha; concentrated (all four on one
  // path) at 1-(1-alpha)^4 — the closed forms in analysis/bounds.h.
  analysis::Params prm;
  prm.alpha = 0.2;
  const auto run_damage = [](const std::vector<MeshLinkFault>& faults) {
    MeshConfig cfg;
    cfg.topo = Topology::parse("linear@4:hops=4");
    cfg.paths = cfg.topo.enumerate_paths(4, 0);
    cfg.engine = MeshEngine::kStat;
    cfg.units_per_path = 20000;
    cfg.rounds = 1;
    cfg.natural_loss = 0.0;
    cfg.decision_threshold = 0.5;  // measurement only, nothing convicts
    cfg.link_faults = faults;
    cfg.seed0 = 42;
    return run_mesh(cfg).total_damage;
  };
  // One mid-chain link per chain (chain c's links are ids 4c..4c+3).
  const double spread =
      run_damage({{1, 0.2}, {5, 0.2}, {9, 0.2}, {13, 0.2}});
  // All four links of chain 0.
  const double concentrated =
      run_damage({{0, 0.2}, {1, 0.2}, {2, 0.2}, {3, 0.2}});
  EXPECT_NEAR(spread, analysis::optimal_spread_total(4, prm), 0.02);
  EXPECT_NEAR(concentrated, analysis::concentrated_total(4, prm), 0.02);
  EXPECT_NEAR(spread - concentrated, analysis::spread_advantage(4, prm),
              0.03);
  EXPECT_GT(spread, concentrated);
}

TEST(MeshRunner, StatEngineBitIdenticalAcrossJobs) {
  MeshConfig cfg;
  cfg.topo = Topology::parse("fattree@4");
  cfg.paths = cfg.topo.enumerate_paths(2000, 3);
  cfg.engine = MeshEngine::kStat;
  cfg.units_per_path = 400;
  cfg.rounds = 4;
  cfg.adversaries = adversary::AdversaryPlan::parse("uniform@0:rate=0.03");
  cfg.faults = faults::FaultPlan::parse("ge@7:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15");
  cfg.seed0 = 77;

  cfg.jobs = 1;
  const MeshResult serial = run_mesh(cfg);
  cfg.jobs = 8;
  const MeshResult parallel = run_mesh(cfg);

  EXPECT_EQ(serial.total_damage, parallel.total_damage);  // bit-exact
  EXPECT_EQ(serial.baseline_delivery, parallel.baseline_delivery);
  EXPECT_EQ(serial.convicted, parallel.convicted);
  EXPECT_EQ(serial.detection_units_p50, parallel.detection_units_p50);
  EXPECT_EQ(serial.detection_units_p99, parallel.detection_units_p99);
  ASSERT_EQ(serial.links.size(), parallel.links.size());
  for (std::size_t l = 0; l < serial.links.size(); ++l) {
    EXPECT_EQ(serial.links[l].units, parallel.links[l].units);
    EXPECT_EQ(serial.links[l].blames, parallel.links[l].blames);
    EXPECT_EQ(serial.links[l].paths, parallel.links[l].paths);
    EXPECT_EQ(serial.links[l].solo_convictions,
              parallel.links[l].solo_convictions);
    EXPECT_EQ(serial.links[l].theta, parallel.links[l].theta);
    EXPECT_EQ(serial.links[l].first_convicted_units,
              parallel.links[l].first_convicted_units);
    EXPECT_EQ(serial.links[l].witnesses, parallel.links[l].witnesses);
  }
}

// Same contract under a windowed blame mode: the per-round window
// counters are u64 sums keyed by round index, so they must absorb
// order-independently — any --jobs value lands every delta in the same
// round cell and the windowed verdict is bit-identical.
TEST(MeshRunner, StatEngineWindowedModeBitIdenticalAcrossJobs) {
  MeshConfig cfg;
  cfg.topo = Topology::parse("fattree@4");
  cfg.paths = cfg.topo.enumerate_paths(2000, 3);
  cfg.engine = MeshEngine::kStat;
  cfg.units_per_path = 400;
  cfg.rounds = 4;
  cfg.blame = protocols::BlameSpec::parse("windowed:192");
  cfg.adversaries = adversary::AdversaryPlan::parse("uniform@0:rate=0.03");
  cfg.faults = faults::FaultPlan::parse("ge@7:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15");
  cfg.seed0 = 77;

  cfg.jobs = 1;
  const MeshResult serial = run_mesh(cfg);
  cfg.jobs = 8;
  const MeshResult parallel = run_mesh(cfg);

  EXPECT_EQ(serial.total_damage, parallel.total_damage);  // bit-exact
  EXPECT_EQ(serial.convicted, parallel.convicted);
  EXPECT_EQ(serial.detection_units_p50, parallel.detection_units_p50);
  EXPECT_EQ(serial.detection_units_p99, parallel.detection_units_p99);
  ASSERT_EQ(serial.links.size(), parallel.links.size());
  for (std::size_t l = 0; l < serial.links.size(); ++l) {
    EXPECT_EQ(serial.links[l].units, parallel.links[l].units);
    EXPECT_EQ(serial.links[l].blames, parallel.links[l].blames);
    EXPECT_EQ(serial.links[l].theta, parallel.links[l].theta);
    EXPECT_EQ(serial.links[l].convicted, parallel.links[l].convicted);
    EXPECT_EQ(serial.links[l].first_convicted_units,
              parallel.links[l].first_convicted_units);
  }

  // Margin mode on the same scenario is unchanged by the window
  // counters riding along: its verdict comes from the cumulative sums.
  MeshConfig margin = cfg;
  margin.blame = protocols::BlameSpec{};
  margin.jobs = 1;
  const MeshResult margin_result = run_mesh(margin);
  for (std::size_t l = 0; l < margin_result.links.size(); ++l) {
    EXPECT_EQ(margin_result.links[l].units, serial.links[l].units);
    EXPECT_EQ(margin_result.links[l].blames, serial.links[l].blames);
    EXPECT_EQ(margin_result.links[l].theta, serial.links[l].theta);
  }
}

// The store's window cells cover the cumulative evidence exactly, and
// the blame-aware convicts() reproduces the margin rule on the totals.
TEST(ScoreStore, WindowCountersCommuteAndCoverTotals) {
  ScoreShard a(3, /*rounds=*/2);
  ScoreShard b(3, /*rounds=*/2);
  a.add(0, 100, 10, /*path=*/1, false);
  a.add_window(0, 0, 60, 8);
  a.add_window(0, 1, 40, 2);
  b.add(0, 50, 5, /*path=*/2, false);
  b.add_window(0, 1, 50, 5);

  GlobalScoreStore ab(3, 2);
  ab.absorb(a);
  ab.absorb(b);
  GlobalScoreStore ba(3, 2);
  ba.absorb(b);
  ba.absorb(a);

  for (const GlobalScoreStore* store : {&ab, &ba}) {
    EXPECT_EQ(store->round_units(0, 0), 60u);
    EXPECT_EQ(store->round_blames(0, 0), 8u);
    EXPECT_EQ(store->round_units(0, 1), 90u);
    EXPECT_EQ(store->round_blames(0, 1), 7u);
    // The full-prefix record sums the cells: the totals' estimate, sd
    // and tally (the blame count).
    const protocols::LinkEvidence cells = store->evidence(0, 2);
    const protocols::LinkEvidence totals =
        evidence(store->units(0), store->blames(0));
    EXPECT_EQ(cells.theta, totals.theta);
    EXPECT_EQ(cells.sd, totals.sd);
    EXPECT_EQ(cells.tally, static_cast<double>(store->blames(0)));
    // Margin via the blame-aware overload == the rule on the totals.
    const protocols::BlameSpec margin;
    EXPECT_EQ(store->convicts(0, 0.02, margin),
              protocols::clears_margin(
                  evidence(store->units(0), store->blames(0)), 0.02));
  }

  // Round mismatch is a hard error, not a silent mis-keying.
  GlobalScoreStore narrow(3, 1);
  EXPECT_THROW(narrow.absorb(a), std::invalid_argument);
}

// The runner's one-pass detection-latency scan finds the same round as
// asking convicts() of every prefix in turn, under every blame mode, on
// stores merged from random shards with empty rounds mixed in.
TEST(ScoreStore, FirstConvictingPrefixMatchesThePerPrefixScan) {
  constexpr std::size_t kLinks = 40;
  constexpr double kThreshold = 0.02;
  for (const std::size_t rounds : {1u, 2u, 8u, 33u}) {
    Rng rng(1000 + rounds);
    GlobalScoreStore store(kLinks, rounds);
    for (int s = 0; s < 3; ++s) {
      ScoreShard shard(kLinks, rounds);
      for (std::size_t l = 0; l < kLinks; ++l) {
        const double rate = 0.006 * static_cast<double>(l % 10);
        for (std::size_t r = 0; r < rounds; ++r) {
          if (rng.next_below(4) == 0) continue;  // an empty round
          const std::uint64_t units = 1 + rng.next_below(120);
          const std::uint64_t blames = rng.binomial(units, rate);
          shard.add(l, units, blames, static_cast<std::uint32_t>(l), false);
          shard.add_window(l, r, units, blames);
        }
      }
      store.absorb(shard);
    }
    for (const char* mode :
         {"margin", "persistent:3", "windowed", "hybrid:2,8"}) {
      const protocols::BlameSpec spec = protocols::BlameSpec::parse(mode);
      std::size_t convicting = 0;
      for (std::size_t l = 0; l < kLinks; ++l) {
        std::size_t expected = 0;
        for (std::size_t p = 1; p <= rounds && expected == 0; ++p) {
          if (store.convicts(l, kThreshold, spec, p)) expected = p;
        }
        EXPECT_EQ(store.first_convicting_prefix(l, kThreshold, spec), expected)
            << mode << " rounds=" << rounds << " link=" << l;
        convicting += expected != 0 ? 1 : 0;
      }
      EXPECT_GT(convicting, 0u) << mode << " rounds=" << rounds;
      EXPECT_LT(convicting, kLinks) << mode << " rounds=" << rounds;
    }
  }
}

TEST(MeshRunner, PacketEngineMapsMeshPlansOntoPaths) {
  // Full discrete-event engine on a shared chain: the mesh-level
  // adversary at node 4 must project onto every path's local F_4 and be
  // convicted by the aggregated store, agreeing with the stat engine's
  // verdict on the same scenario.
  MeshConfig cfg;
  cfg.topo = Topology::parse("linear@1:hops=6");
  cfg.paths = cfg.topo.enumerate_paths(6, 0);
  cfg.engine = MeshEngine::kPacket;
  cfg.adversaries = adversary::AdversaryPlan::parse("uniform@4:rate=0.05");
  cfg.decision_threshold = 0.02;
  cfg.seed0 = 500;
  // Full-ack: per-hop acks localize blame to the dropping node's own
  // out-link. PAAI-1's blame-to-first-failing-hop heuristic measurably
  // over-blames the upstream link here (bench_robustness C) — same
  // reason tools/check.sh leg 5 runs its colluder smoke on full-ack.
  cfg.packet_base =
      runner::paper_config(protocols::ProtocolKind::kFullAck, 20000, 0);
  cfg.packet_base.link_faults.clear();
  cfg.packet_base.params.send_rate_pps = 1000.0;
  const MeshResult packet = run_mesh(cfg);

  ASSERT_EQ(packet.path_outcomes.size(), 6u);
  EXPECT_TRUE(std::find(packet.convicted.begin(), packet.convicted.end(),
                        std::size_t{4}) != packet.convicted.end());
  EXPECT_EQ(packet.false_accusations, 0u);
  EXPECT_TRUE(packet.links[4].malicious);
  EXPECT_EQ(packet.links[4].paths, 6u);
  EXPECT_GT(packet.baseline_delivery, 0.9);
  EXPECT_GT(packet.total_damage, 0.0);
  for (const MeshPathOutcome& outcome : packet.path_outcomes) {
    EXPECT_EQ(outcome.malicious, std::vector<std::size_t>{4});
    EXPECT_FALSE(outcome.any_honest_convicted);
  }

  // Stat engine on the same mesh scenario reaches the same verdict.
  MeshConfig stat = cfg;
  stat.engine = MeshEngine::kStat;
  stat.units_per_path = 20000;
  stat.rounds = 8;
  stat.natural_loss = 0.01;
  const MeshResult quick = run_mesh(stat);
  EXPECT_TRUE(std::find(quick.convicted.begin(), quick.convicted.end(),
                        std::size_t{4}) != quick.convicted.end());
  EXPECT_EQ(quick.false_accusations, 0u);
}

TEST(MeshRunner, PacketDamageScoresEachRouteAgainstItsOwnLength) {
  // A 3% malicious drop on one link of a two-path fleet costs that path
  // about 0.03 of its delivery whatever the route's length. A clean
  // baseline run at another length would hide (or inflate) the loss:
  // 2-hop routes scored against a 6-hop baseline read 0 damage.
  const auto damage = [](std::size_t hops) {
    MeshConfig cfg;
    cfg.topo = Topology::parse("linear@2:hops=" + std::to_string(hops));
    cfg.paths = cfg.topo.enumerate_paths(2, 7);
    cfg.engine = MeshEngine::kPacket;
    cfg.link_faults = {{/*link=*/1, 0.03}};
    cfg.seed0 = 9000;
    cfg.jobs = 1;
    cfg.packet_base =
        runner::paper_config(protocols::ProtocolKind::kFullAck, 20000, 0);
    cfg.packet_base.link_faults.clear();
    return run_mesh(cfg).total_damage;
  };
  const double six = damage(6);
  EXPECT_GT(six, 0.02);
  EXPECT_NEAR(damage(2), six, 0.01);
}

/// FNV-1a over every verdict row and the exact bits of the damage and
/// baseline doubles: one number that moves if any draw does.
std::uint64_t verdict_digest(const MeshResult& r) {
  std::string t;
  for (const MeshResult::LinkVerdict& row : r.links) {
    t += std::to_string(row.units) + "," + std::to_string(row.blames) + "," +
         std::to_string(row.paths) + "," +
         std::to_string(row.solo_convictions) + "," +
         std::to_string(row.first_convicted_units) +
         (row.convicted ? "C;" : ".;");
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a|%a", r.total_damage,
                r.baseline_delivery);
  t += buf;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : t) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

// A stat run whose every link drops at its own rate: 512 distinct rates
// (some above 0.5, so the sampler's flipped tail runs too) — more keys
// than any per-tile draw cache holds. The digest pins the draws, and
// --jobs cannot move them.
TEST(MeshRunner, StatEngineDistinctRatePerLinkDigest) {
  MeshConfig cfg;
  cfg.topo = Topology::parse("fattree@8");
  ASSERT_EQ(cfg.topo.num_links(), 512u);
  cfg.paths = cfg.topo.enumerate_paths(3000, 11);
  cfg.engine = MeshEngine::kStat;
  cfg.units_per_path = 600;
  cfg.rounds = 3;
  cfg.natural_loss = 0.01;
  for (std::size_t l = 0; l < cfg.topo.num_links(); ++l) {
    const double rate =
        l % 37 == 5 ? 0.55 + 1e-4 * static_cast<double>(l)
                    : 1e-3 + 6e-5 * static_cast<double>(l);
    cfg.link_faults.push_back({l, rate});
  }
  cfg.seed0 = 2024;

  cfg.jobs = 1;
  const std::uint64_t serial = verdict_digest(run_mesh(cfg));
  cfg.jobs = 3;
  EXPECT_EQ(verdict_digest(run_mesh(cfg)), serial);
  EXPECT_EQ(serial, 0x2795eb7168bed197ULL);
}

TEST(MeshRunner, RejectsOutOfRangeSpecs) {
  // linear@1:hops=6 has links 0..5 and nodes 0..6; both engines must
  // reject every out-of-range index before running anything.
  for (const MeshEngine engine : {MeshEngine::kStat, MeshEngine::kPacket}) {
    MeshConfig cfg;
    cfg.topo = Topology::parse("linear@1:hops=6");
    cfg.paths = cfg.topo.enumerate_paths(2, 0);
    cfg.engine = engine;
    cfg.packet_base =
        runner::paper_config(protocols::ProtocolKind::kPaai1, 200, 0);
    cfg.adversaries = adversary::AdversaryPlan::parse("uniform@99:rate=0.05");
    EXPECT_THROW(run_mesh(cfg), std::invalid_argument);
    cfg.adversaries = {};
    cfg.link_faults = {{/*link=*/6, 0.05}};
    EXPECT_THROW(run_mesh(cfg), std::invalid_argument);
    cfg.link_faults = {};
    for (const char* clause :
         {"ge@6:pg=0,pb=0.5,g2b=0.1,b2g=0.1", "set@6:t=0,loss=0.1",
          "outage@7:t=0,dur=1", "reorder@6:p=0.1,delay=1", "dup@6:p=0.1"}) {
      cfg.faults = faults::FaultPlan::parse(clause);
      EXPECT_THROW(run_mesh(cfg), std::invalid_argument)
          << clause << " engine=" << static_cast<int>(engine);
    }
  }
}

}  // namespace
}  // namespace paai::mesh
