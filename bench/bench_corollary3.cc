// Corollary 3 sensitivity study:
//   * full-ack / PAAI-1 detection is dominated by sigma; path length d and
//     natural loss rho have negligible influence;
//   * PAAI-2 detection degrades steeply with d.
// We sweep d and rho with measured Monte-Carlo detection, next to the
// Theorem-2 bounds.
#include <iostream>

#include "analysis/bounds.h"
#include "bench_common.h"
#include "util/csv.h"

using namespace paai;
using namespace paai::runner;

namespace {

std::optional<std::uint64_t> measure_detection(
    protocols::ProtocolKind kind, std::size_t d, double rho,
    std::uint64_t packets, std::size_t runs, bench::BenchSession& session) {
  MonteCarloConfig mc;
  mc.jobs = session.args.jobs;
  mc.events = session.take_events();
  mc.telemetry = session.telemetry();
  mc.base = paper_config(kind, packets, 0);
  mc.base.path.length = d;
  mc.base.path.natural_loss = rho;
  mc.base.link_faults.clear();
  // Keep the malicious link mid-path and its rate at rho + 0.02.
  const std::size_t target = d - 2;
  mc.base.link_faults.push_back(LinkFault{target, 0.02});
  // The decision threshold tracks the natural rate (the estimator reads a
  // malicious link at ~rho + 0.016).
  mc.base.decision_threshold = rho + 0.008;
  mc.base.checkpoints = log_checkpoints(200, packets, 12);
  mc.runs = runs;
  mc.seed0 = 1000;
  mc.malicious_links = {target};
  mc.sigma = 0.03;
  session.args.apply_adversaries(mc);
  return run_monte_carlo(mc).detection_packets;
}

std::string fmt_detection(std::optional<std::uint64_t> v) {
  return v ? std::to_string(*v) : std::string("n/a");
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchSession session("bench_corollary3", argc, argv);
  const auto& args = session.args;
  bench::print_header("Corollary 3 — parameter sensitivity of detection",
                      "Corollary 3");

  analysis::Params ap;
  ap.alpha = 0.03;
  ap.sigma = 0.03;
  ap.p = 1.0 / 36.0;

  // -- PAAI-1 across d and rho: near-flat measured detection -------------
  std::printf("-- PAAI-1 measured detection (packets) across d and rho "
              "(bound in parentheses) --\n");
  Table p1({"d", "rho", "measured_pkts", "bound_pkts"});
  const std::size_t runs1 = args.runs_or(32);
  for (const std::size_t d : {std::size_t{4}, std::size_t{6},
                              std::size_t{8}}) {
    for (const double rho : {0.005, 0.01, 0.02}) {
      ap.d = d;
      ap.rho = rho;
      ap.alpha = rho + 0.02;
      std::fprintf(stderr, "[cor3] PAAI-1 d=%zu rho=%.3f...\n", d, rho);
      const auto measured = measure_detection(
          protocols::ProtocolKind::kPaai1, d, rho, args.scaled(140000),
          runs1, session);
      if (measured) {
        session.metric("paai1.d" + std::to_string(d) + ".rho" +
                           fmt_num(rho, 3),
                       static_cast<double>(*measured));
      }
      p1.row()
          .integer(static_cast<long long>(d))
          .num(rho, 3)
          .cell(fmt_detection(measured))
          .num(analysis::tau_paai1(ap), 3);
    }
  }
  p1.print(std::cout, args.csv);

  // -- sigma dominance (analytic; the measured criterion uses sigma
  //    directly, so the bound shows the scaling) --------------------------
  std::printf("\n-- sigma sensitivity (Theorem 2, PAAI-1, d=6, "
              "rho=0.01) --\n");
  Table ps({"sigma", "bound_pkts"});
  ap.d = 6;
  ap.rho = 0.01;
  ap.alpha = 0.03;
  for (const double sigma : {0.1, 0.03, 0.01, 0.003, 0.001}) {
    ap.sigma = sigma;
    ps.row().num(sigma, 4).num(analysis::tau_paai1(ap), 4);
  }
  ps.print(std::cout, args.csv);
  ap.sigma = 0.03;

  // -- PAAI-2 vs d: the 2^d wall ------------------------------------------
  std::printf("\n-- PAAI-2 detection vs d (measured + Theorem 2 bound) "
              "--\n");
  Table p2({"d", "measured_pkts", "bound_pkts"});
  const std::size_t runs2 = args.runs_or(32) / 2;
  for (const std::size_t d : {std::size_t{4}, std::size_t{6},
                              std::size_t{8}}) {
    ap.d = d;
    std::fprintf(stderr, "[cor3] PAAI-2 d=%zu...\n", d);
    const auto measured = measure_detection(
        protocols::ProtocolKind::kPaai2, d, 0.01,
        args.scaled(d <= 6 ? 600000 : 1200000), runs2, session);
    if (measured) {
      session.metric("paai2.d" + std::to_string(d),
                     static_cast<double>(*measured));
    }
    p2.row()
        .integer(static_cast<long long>(d))
        .cell(fmt_detection(measured))
        .num(analysis::tau_paai2(ap), 4);
  }
  p2.print(std::cout, args.csv);

  std::printf("\nshape checks: the PAAI-1 column barely moves across the "
              "d/rho grid while its bound scales ~1/eps^2 with sigma. "
              "PAAI-2 stays far below its 2^d bound at every d: the bound "
              "is driven by the paper's coarse interval scoring, while our "
              "source-side per-selection estimator converges polynomially "
              "(a measured refinement of Corollary 3, recorded in "
              "EXPERIMENTS.md).\n");
  return 0;
}
