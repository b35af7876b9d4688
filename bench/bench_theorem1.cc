// Theorem 1 / Corollary 2, measured.
//
// Part 1 (Theorem 1): a single malicious link sweeps its drop rate; we
// measure the ground-truth damage it inflicts and how fast PAAI-1 convicts
// it. Below the per-link threshold alpha it hides (bounded damage z*alpha);
// above it, detection time collapses — the protocol enforces exactly the
// damage bound of Theorem 1(a).
//
// Part 2 (Corollary 2): a fixed budget of z = 3 malicious links, placed
// either concentrated on one path or spread one-per-path across three
// paths. Spreading maximizes total undetected damage (~linear in z), and
// every touched path still convicts its malicious link.
#include <cmath>
#include <iostream>

#include "analysis/bounds.h"
#include "bench_common.h"
#include "mesh/runner.h"
#include "util/csv.h"

using namespace paai;
using namespace paai::runner;

int main(int argc, char** argv) {
  bench::BenchSession session("bench_theorem1", argc, argv);
  const auto& args = session.args;
  bench::print_header("Theorem 1 / Corollary 2 — damage bounds, measured",
                      "Theorem 1, Corollaries 1-2");

  // ---- Part 1: drop-rate sweep on l_4 (PAAI-1) --------------------------
  const std::size_t runs = args.runs_or(16);
  Table sweep({"malicious_extra_rate", "true_l4_loss", "delivery",
               "damage_vs_clean", "detect_pkts", "verdict"});
  const double clean_delivery = [&] {
    MonteCarloConfig mc;
    mc.base = paper_config(protocols::ProtocolKind::kPaai1, 30000, 0);
    mc.base.link_faults.clear();
    const auto r = run_experiment(mc.base);
    return r.ground_truth_delivery;
  }();

  for (const double extra : {0.005, 0.02, 0.05, 0.1, 0.2}) {
    std::fprintf(stderr, "[thm1] extra=%.3f...\n", extra);
    MonteCarloConfig mc;
    mc.base = paper_config(protocols::ProtocolKind::kPaai1,
                           args.scaled(150000), 0);
    mc.base.link_faults = {LinkFault{4, extra}};
    mc.base.checkpoints = log_checkpoints(1000, mc.base.params.total_packets,
                                          12);
    args.apply_adversaries(mc);
    mc.runs = runs;
    mc.seed0 = 1000;
    mc.jobs = args.jobs;
    mc.malicious_links = {4};
    mc.events = session.take_events();
    mc.telemetry = session.telemetry();
    const MonteCarloResult agg = run_monte_carlo(mc);
    if (agg.detection_packets) {
      session.metric("sweep.rate" + fmt_num(extra, 3) + ".detection_packets",
                     static_cast<double>(*agg.detection_packets));
    }

    // One representative run for the ground-truth columns.
    ExperimentConfig one = mc.base;
    one.path.seed = 77;
    const ExperimentResult r = run_experiment(one);

    sweep.row()
        .num(extra, 3)
        .num(r.true_link_loss[4], 4)
        .num(r.ground_truth_delivery, 4)
        .num(clean_delivery - r.ground_truth_delivery, 4)
        .cell(agg.detection_packets ? std::to_string(*agg.detection_packets)
                                    : "not in budget")
        .cell(agg.detection_packets
                  ? "convicted"
                  : (extra <= 0.02 ? "hiding (damage <= alpha bound)"
                                   : "needs more packets"));
  }
  std::printf("-- Theorem 1: single malicious link l_4, rate sweep "
              "(alpha = 0.03, threshold between rho and alpha) --\n");
  sweep.print(std::cout, args.csv);
  std::printf("reading: below/at alpha the link blends into the threshold "
              "band — its damage is bounded by ~alpha = 0.03 of the "
              "path's traffic; past alpha, conviction accelerates "
              "sharply.\n\n");

  // ---- Part 2: Corollary 2 placement comparison -------------------------
  // At the stealth rate (alpha) the spread-vs-concentrated difference is
  // second-order (~C(z,2) alpha^2), so we average several fleet seeds and
  // additionally show an exaggerated rate where the concavity of
  // 1-(1-x)^z is visible to the naked eye.
  Table fleet({"placement", "rate/link", "total_damage(avg)",
               "analytic", "all_malicious_convicted", "honest_framed"});
  const std::size_t fleet_reps = std::max<std::size_t>(args.runs_or(16) / 2, 4);
  for (const double rate : {0.02, 0.15}) {
    for (const bool is_spread : {true, false}) {
      // A Corollary 2 fleet is the mesh packet engine on linear@4:hops=6:
      // path p's hop j is mesh link 6p + j.
      mesh::MeshConfig cfg;
      cfg.topo = mesh::Topology::parse("linear@4:hops=6");
      cfg.paths = cfg.topo.enumerate_paths(4, /*seed=*/0);
      cfg.engine = mesh::MeshEngine::kPacket;
      cfg.packet_base = paper_config(protocols::ProtocolKind::kPaai1,
                                     args.scaled(60000), 0);
      cfg.packet_base.link_faults.clear();
      cfg.natural_loss = cfg.packet_base.path.natural_loss;
      cfg.decision_threshold = cfg.packet_base.decision_threshold;
      cfg.jobs = args.jobs;
      cfg.telemetry = session.telemetry();
      if (is_spread) {
        cfg.link_faults = {{4, rate}, {6 + 2, rate}, {12 + 3, rate}};
      } else {
        cfg.link_faults = {{2, rate}, {3, rate}, {4, rate}};
      }
      std::fprintf(stderr, "[cor2] %s rate=%.2f...\n",
                   is_spread ? "spread" : "concentrated", rate);
      RunningStat damage;
      bool all_convicted = true;
      bool framed = false;
      for (std::size_t rep = 0; rep < fleet_reps; ++rep) {
        cfg.seed0 = 9000 + rep * 101;
        const mesh::MeshResult fr = mesh::run_mesh(cfg);
        damage.add(fr.total_damage);
        for (const auto& p : fr.path_outcomes) {
          if (!p.malicious.empty()) {
            all_convicted &= p.all_malicious_convicted;
          }
          framed |= p.any_honest_convicted;
        }
      }
      // Analytic damage under independent per-traversal loss, relative to
      // the natural baseline (the (1-rho) factors cancel to first order).
      const double z = 3.0;
      const double analytic =
          is_spread ? z * rate : 1.0 - std::pow(1.0 - rate, z);
      session.metric(std::string("cor2.") +
                         (is_spread ? "spread" : "concentrated") + ".rate" +
                         fmt_num(rate, 3) + ".damage",
                     damage.mean());
      fleet.row()
          .cell(is_spread ? "spread (1 link/path, 3 paths)"
                          : "concentrated (3 links, 1 path)")
          .num(rate, 3)
          .num(damage.mean(), 4)
          .num(analytic, 4)
          .cell(all_convicted ? "yes" : "NO")
          .cell(framed ? "YES" : "no");
    }
  }
  std::printf("-- Corollary 2: z = 3 malicious links, placement "
              "comparison (4 paths, d = 6, %zu fleet seeds) --\n",
              fleet_reps);
  fleet.print(std::cout, args.csv);
  std::printf("reading: total damage grows ~linearly in z when the links "
              "are spread one-per-path (the adversary's optimal "
              "deployment), while concentration compounds drops on one "
              "path for strictly less total loss — clearly visible at the "
              "exaggerated rate. Either way, every touched path localizes "
              "its malicious links.\n");
  return 0;
}
