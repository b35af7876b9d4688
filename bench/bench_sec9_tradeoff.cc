// §9 practicality claims for PAAI-1 at p = 1/(5 d^2):
//   * ~3% additional communication overhead on a d = 6 path;
//   * detection bound ~45 minutes, average ~20 minutes at 100 pkt/s;
//   * storage below ~45 KB peak at 1.5 MB/s (1000 x 1.5 KB pkt/s) and
//     ~6 KB peak at 150 KB/s, assuming 1.5 KB data packets.
#include <iostream>

#include "analysis/bounds.h"
#include "bench_common.h"
#include "util/csv.h"

using namespace paai;
using namespace paai::runner;

int main(int argc, char** argv) {
  bench::BenchSession session("bench_sec9_tradeoff", argc, argv);
  const auto& args = session.args;
  bench::print_header("§9 — PAAI-1 practicality at p = 1/(5 d^2)",
                      "§9 'Practicality' paragraph (b)");

  const double p_small = 1.0 / (5.0 * 36.0);

  analysis::Params ap;
  ap.d = 6;
  ap.rho = 0.01;
  ap.alpha = 0.03;
  ap.sigma = 0.03;
  ap.p = p_small;
  const double bound_pkts = analysis::tau_paai1(ap);
  std::printf("analytic: comm overhead p*d = %.3f ctrl pkts/data pkt; "
              "detection bound = %.0f packets = %.1f min @100 pps "
              "(paper: ~3%%, 45 min)\n\n",
              analysis::comm_paai1(ap), bound_pkts,
              analysis::detection_minutes(bound_pkts, 100.0));

  // Measured: detection + overhead.
  const std::size_t runs = args.runs_or(24);
  const std::uint64_t packets = args.scaled(700000);
  MonteCarloConfig mc;
  mc.base = paper_config(protocols::ProtocolKind::kPaai1, packets, 0);
  mc.base.params.probe_probability = p_small;
  mc.base.params.payload_size = 1500;  // "each data packet is 1.5KB"
  mc.base.checkpoints = log_checkpoints(5000, packets, 14);
  args.apply_adversaries(mc);
  mc.runs = runs;
  mc.seed0 = 1000;
  mc.jobs = args.jobs;
  mc.events = session.take_events();
  mc.telemetry = session.telemetry();
  std::fprintf(stderr, "[sec9] detection run: %zu x %llu packets...\n",
               runs, static_cast<unsigned long long>(packets));
  const MonteCarloResult det = run_monte_carlo(mc);
  session.exec(det.exec);
  session.metric("comm_overhead_bytes_ratio",
                 det.overhead_bytes_ratio.mean());
  session.metric("comm_overhead_packets_ratio",
                 det.overhead_packets_ratio.mean());
  if (det.detection_packets) {
    session.metric("detection_packets",
                   static_cast<double>(*det.detection_packets));
  }
  session.metric("per_run_detection_packets_mean",
                 det.per_run_detection_packets.mean());

  Table table({"metric", "measured", "paper"});
  table.row()
      .cell("comm overhead (bytes ratio)")
      .num(det.overhead_bytes_ratio.mean(), 4)
      .cell("~0.03");
  table.row()
      .cell("comm overhead (ctrl pkts/data)")
      .num(det.overhead_packets_ratio.mean(), 4)
      .cell("~0.033");
  table.row()
      .cell("detection, curve (min @100pps)")
      .num(det.detection_packets
               ? static_cast<double>(*det.detection_packets) / 6000.0
               : -1.0,
           3)
      .cell("~20 (avg) / 45 (bound)");
  table.row()
      .cell("detection, per-run mean (min)")
      .num(det.per_run_detection_packets.mean() / 6000.0, 3)
      .cell("~20");

  // Storage peaks at the two rates (KB, 1.5 KB packets).
  for (const double rate : {1000.0, 100.0}) {
    MonteCarloConfig smc;
    smc.base = paper_config(protocols::ProtocolKind::kPaai1, 4000, 0);
    smc.base.params.probe_probability = p_small;
    smc.base.params.payload_size = 1500;
    smc.base.params.send_rate_pps = rate;
    smc.base.storage_sample_period = sim::milliseconds(1000.0 / rate);
    smc.runs = std::max<std::size_t>(runs / 4, 4);
    smc.seed0 = 8000;
    smc.jobs = args.jobs;
    smc.storage_bins = 40;
    smc.storage_horizon_seconds = 4000.0 / rate;
    std::fprintf(stderr, "[sec9] storage run @%g pps...\n", rate);
    const MonteCarloResult st = run_monte_carlo(smc);
    double peak = 0.0;
    for (std::size_t i = 0; i < st.storage_grids[1].size(); ++i) {
      peak = std::max(peak, st.storage_grids[1].stat(i).mean());
    }
    table.row()
        .cell(std::string("F_1 peak storage KB @") +
              fmt_num(rate * 1.5, 4) + "KB/s")
        .num(peak * 1.5, 2)
        .cell(rate > 500 ? "<45" : "~6");
    session.metric("f1_peak_storage_kb." + fmt_num(rate, 4) + "pps",
                   peak * 1.5);
  }

  table.print(std::cout, args.csv);
  return 0;
}
