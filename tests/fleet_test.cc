// Fleet tests (Corollary 2 infrastructure): a fleet is the mesh packet
// engine on linear@P:hops=6 — P link-disjoint paths, path p's hop j at
// mesh link 6p + j. These cover the clean baseline, per-path outcome
// classification and damage aggregation, and the last test replays the
// historical serial fleet loop inline and demands bit-identical numbers
// from run_mesh at jobs 1 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mesh/runner.h"

namespace paai::mesh {
namespace {

using runner::ExperimentConfig;
using runner::LinkFault;

/// A packet-engine fleet of `paths` PAAI-1 chains of 6 hops.
MeshConfig fleet(std::size_t paths, std::uint64_t packets) {
  MeshConfig cfg;
  cfg.topo = Topology::parse("linear@" + std::to_string(paths) + ":hops=6");
  cfg.paths = cfg.topo.enumerate_paths(paths, /*seed=*/0);
  cfg.engine = MeshEngine::kPacket;
  cfg.packet_base =
      runner::paper_config(protocols::ProtocolKind::kPaai1, packets, 0);
  cfg.packet_base.link_faults.clear();
  cfg.packet_base.params.probe_probability = 1.0 / 9.0;
  cfg.packet_base.params.send_rate_pps = 1000.0;
  return cfg;
}

TEST(Fleet, CleanPathsReportNoDamageOrConvictions) {
  const MeshResult r = run_mesh(fleet(2, 40000));
  ASSERT_EQ(r.path_outcomes.size(), 2u);
  EXPECT_GT(r.baseline_delivery, 0.9);
  EXPECT_LT(r.total_damage, 0.01);
  for (const auto& p : r.path_outcomes) {
    EXPECT_TRUE(p.convicted.empty());
    EXPECT_TRUE(p.malicious.empty());
    EXPECT_TRUE(p.all_malicious_convicted);  // vacuously
    EXPECT_FALSE(p.any_honest_convicted);
  }
}

TEST(Fleet, ClassifiesConvictionsAgainstGroundTruth) {
  MeshConfig cfg = fleet(2, 40000);
  cfg.link_faults = {{4, 0.05}};  // path 0, hop 4
  const MeshResult r = run_mesh(cfg);
  ASSERT_EQ(r.path_outcomes.size(), 2u);
  EXPECT_TRUE(r.path_outcomes[0].all_malicious_convicted);
  EXPECT_FALSE(r.path_outcomes[0].any_honest_convicted);
  EXPECT_EQ(r.path_outcomes[0].malicious, std::vector<std::size_t>{4});
  EXPECT_TRUE(r.path_outcomes[1].convicted.empty());
  // Damage ~ one path losing ~5% of its traffic.
  EXPECT_NEAR(r.total_damage, 0.05, 0.02);
}

TEST(Fleet, DamageAddsAcrossPaths) {
  MeshConfig one = fleet(1, 40000);
  one.link_faults = {{3, 0.05}};
  MeshConfig three = fleet(3, 40000);
  three.link_faults = {{3, 0.05}, {6 + 3, 0.05}, {12 + 3, 0.05}};
  const double d1 = run_mesh(one).total_damage;
  const double d3 = run_mesh(three).total_damage;
  EXPECT_NEAR(d3, 3.0 * d1, 0.03);
}

/// The historical fleet's inputs and outputs, local to the reference.
struct LegacyConfig {
  ExperimentConfig base;
  /// One entry per path: path-local malicious links.
  std::vector<std::vector<LinkFault>> paths;
  std::uint64_t seed0 = 9000;
};

struct LegacyResult {
  std::vector<MeshPathOutcome> paths;
  double total_damage = 0.0;
  double baseline_delivery = 0.0;
};

/// The pre-mesh fleet runner, verbatim but serial: clean baseline seeded
/// seed0, path i seeded seed0 + 1 + i, damage folded in path order.
LegacyResult legacy_run_fleet(const LegacyConfig& config) {
  LegacyResult result;
  {
    ExperimentConfig clean = config.base;
    clean.link_faults.clear();
    clean.adversaries.clear();
    clean.path.seed = config.seed0;
    result.baseline_delivery = run_experiment(clean).ground_truth_delivery;
  }
  for (std::size_t i = 0; i < config.paths.size(); ++i) {
    ExperimentConfig cfg = config.base;
    cfg.link_faults = config.paths[i];
    cfg.path.seed = config.seed0 + 1 + i;
    const runner::ExperimentResult run = run_experiment(cfg);

    MeshPathOutcome outcome;
    outcome.ground_truth_delivery = run.ground_truth_delivery;
    outcome.observed_e2e_rate = run.observed_e2e_rate;
    outcome.convicted = run.final_convicted;
    for (const auto& fault : config.paths[i]) {
      outcome.malicious.push_back(fault.link);
    }
    std::sort(outcome.malicious.begin(), outcome.malicious.end());
    outcome.all_malicious_convicted = true;
    for (const std::size_t link : outcome.malicious) {
      if (std::find(outcome.convicted.begin(), outcome.convicted.end(),
                    link) == outcome.convicted.end()) {
        outcome.all_malicious_convicted = false;
      }
    }
    for (const std::size_t link : outcome.convicted) {
      if (std::find(outcome.malicious.begin(), outcome.malicious.end(),
                    link) == outcome.malicious.end()) {
        outcome.any_honest_convicted = true;
      }
    }
    result.total_damage += std::max(
        0.0, result.baseline_delivery - outcome.ground_truth_delivery);
    result.paths.push_back(std::move(outcome));
  }
  return result;
}

TEST(Fleet, MeshBackedFleetReproducesLegacyNumbersBitForBit) {
  MeshConfig cfg = fleet(3, 15000);
  cfg.seed0 = 9000;
  // Mesh link 6p + j is path p's hop j.
  cfg.link_faults = {{4, 0.05}, {12 + 2, 0.04}, {12 + 4, 0.05}};

  LegacyConfig legacy;
  legacy.base = cfg.packet_base;
  legacy.paths = {{LinkFault{4, 0.05}},
                  {},
                  {LinkFault{2, 0.04}, LinkFault{4, 0.05}}};
  legacy.seed0 = cfg.seed0;
  const LegacyResult want = legacy_run_fleet(legacy);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    cfg.jobs = jobs;
    const MeshResult got = run_mesh(cfg);
    EXPECT_EQ(got.baseline_delivery, want.baseline_delivery);  // bit-exact
    EXPECT_EQ(got.total_damage, want.total_damage);
    ASSERT_EQ(got.path_outcomes.size(), want.paths.size());
    for (std::size_t i = 0; i < want.paths.size(); ++i) {
      const MeshPathOutcome& g = got.path_outcomes[i];
      const MeshPathOutcome& w = want.paths[i];
      EXPECT_EQ(g.ground_truth_delivery, w.ground_truth_delivery);
      EXPECT_EQ(g.observed_e2e_rate, w.observed_e2e_rate);
      EXPECT_EQ(g.convicted, w.convicted);
      EXPECT_EQ(g.malicious, w.malicious);
      EXPECT_EQ(g.all_malicious_convicted, w.all_malicious_convicted);
      EXPECT_EQ(g.any_honest_convicted, w.any_honest_convicted);
    }
  }
}

}  // namespace
}  // namespace paai::mesh
