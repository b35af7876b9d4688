// Table 2: theoretical bounds vs simulated averages.
//   * detection time in minutes at 100 packets/second (bound = Theorem 2;
//     average = Monte-Carlo first checkpoint with FP, FN <= sigma, plus the
//     per-run stable-conviction average);
//   * storage at F_1 in packets (bound = Table 1 worst case in r_0*nu
//     units; average = time-averaged F_1 storage with the malicious l_4
//     present).
// The paper's row for statistical FL has no simulated average (N/A); ours
// measures one (at a packet budget two orders beyond PAAI-2's, exactly the
// trade-off the comparison is about).
#include <cmath>
#include <iostream>

#include "analysis/bounds.h"
#include "bench_common.h"
#include "util/csv.h"

using namespace paai;
using namespace paai::runner;

namespace {

struct ProtocolPlan {
  protocols::ProtocolKind kind;
  const char* name;
  std::uint64_t packets;  // budget for detection search
  std::size_t runs;
  double bound_packets;
  double storage_bound_r0nu;
};

double average_storage_at_f1(protocols::ProtocolKind kind, std::size_t runs,
                             std::uint64_t packets, std::size_t jobs) {
  MonteCarloConfig mc;
  mc.base = paper_config(kind, packets, 0);
  mc.base.storage_sample_period = sim::milliseconds(5.0);
  mc.runs = runs;
  mc.seed0 = 7000;
  mc.jobs = jobs;
  mc.storage_bins = 40;
  mc.storage_horizon_seconds =
      static_cast<double>(packets) / mc.base.params.send_rate_pps;
  const MonteCarloResult r = run_monte_carlo(mc);
  // Time-average over the grid, skipping the first 10% (warm-up).
  RunningStat avg;
  const auto& grid = r.storage_grids[1];
  for (std::size_t i = grid.size() / 10; i < grid.size(); ++i) {
    avg.add(grid.stat(i).mean());
  }
  return avg.mean();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchSession session("bench_table2", argc, argv);
  const auto& args = session.args;
  bench::print_header("Table 2 — detection time and storage: bound vs "
                      "simulated average",
                      "Table 2 (source rate 100 pkt/s, malicious l_4)");

  analysis::Params p;
  p.d = 6;
  p.rho = 0.01;
  p.alpha = 0.03;
  p.sigma = 0.03;
  p.p = 1.0 / 36.0;

  const double r0_nu = 0.0624 /*s*/ * 100.0;  // r_0 bound (62.4 ms) * nu

  const ProtocolPlan plans[] = {
      {protocols::ProtocolKind::kFullAck, "Full-ack", args.scaled(6000),
       args.runs_or(100), analysis::tau_fullack(p),
       analysis::storage_fullack(p).worst},
      {protocols::ProtocolKind::kPaai1, "PAAI-1", args.scaled(120000),
       args.runs_or(40), analysis::tau_paai1(p),
       analysis::storage_paai1(p).worst},
      {protocols::ProtocolKind::kPaai2, "PAAI-2", args.scaled(1000000),
       args.runs_or(12), analysis::tau_paai2(p),
       analysis::storage_paai2(p).worst},
      {protocols::ProtocolKind::kStatisticalFl, "Statistical FL",
       args.scaled(4000000), args.runs_or(4), analysis::tau_statfl(p),
       analysis::storage_statfl(p).worst},
  };

  Table table({"protocol", "bound_min", "avg_min(curve)", "avg_min(per-run)",
               "storage_bound_pkts", "storage_avg_pkts"});

  for (const auto& plan : plans) {
    std::fprintf(stderr, "[table2] %s: %zu runs x %llu packets...\n",
                 plan.name, plan.runs,
                 static_cast<unsigned long long>(plan.packets));
    const auto mc = bench::detection_curve(plan.kind, plan.packets, plan.runs,
                                           14, 100, session);
    session.exec(mc.exec);
    const double bound_min = analysis::detection_minutes(plan.bound_packets,
                                                         100.0);
    const double curve_min =
        mc.detection_packets
            ? analysis::detection_minutes(
                  static_cast<double>(*mc.detection_packets), 100.0)
            : -1.0;
    const double per_run_min = analysis::detection_minutes(
        mc.per_run_detection_packets.mean(), 100.0);

    const double storage_avg = average_storage_at_f1(
        plan.kind, std::max<std::size_t>(plan.runs / 4, 3),
        std::min<std::uint64_t>(plan.packets, 20000), args.jobs);

    table.row()
        .cell(plan.name)
        .num(bound_min, 4)
        .num(curve_min, 4)
        .num(per_run_min, 4)
        .num(plan.storage_bound_r0nu * r0_nu, 3)
        .num(storage_avg, 3);

    const std::string prefix = std::string(plan.name) + ".";
    session.metric(prefix + "avg_min_curve", curve_min);
    session.metric(prefix + "avg_min_per_run", per_run_min);
    session.metric(prefix + "storage_avg_pkts", storage_avg);
  }

  table.print(std::cout, args.csv);
  std::printf("\npaper's Table 2 (minutes):   full-ack 0.25/0.17, PAAI-1 "
              "9/4.2, PAAI-2 100/50, stat-FL 3333/N-A\n");
  std::printf("paper's Table 2 (storage):   full-ack 12/3.2, PAAI-1 "
              "3.2/3.0, PAAI-2 12/6.4, stat-FL <1/N-A\n");
  std::printf("(avg_min(curve) = first checkpoint with FP and FN <= "
              "sigma across runs; -1 = not reached in budget)\n");
  return 0;
}
