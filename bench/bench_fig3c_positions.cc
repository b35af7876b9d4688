// Figure 3(c): storage overhead at different path positions (F_1, F_3,
// F_5) under the full-ack scheme, with the malicious node's rate enlarged
// to 0.1, 2000 packets at 1000 pkt/s, adversary bypassed after 1000
// packets. Expected shape (paper): nodes closer to the destination hold
// less state and are less affected by the adversarial drops; the bypass
// visibly deflates all curves.
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "util/csv.h"

using namespace paai;
using namespace paai::runner;

int main(int argc, char** argv) {
  bench::BenchSession session("bench_fig3c_positions", argc, argv);
  const auto& args = session.args;
  bench::print_header("Figure 3(c) — storage by path position (full-ack)",
                      "Figure 3(c)");
  const std::size_t runs = args.runs_or(40);

  MonteCarloConfig mc;
  mc.base = paper_config(protocols::ProtocolKind::kFullAck, 2000, 0);
  mc.base.params.send_rate_pps = 1000.0;
  // "we enlarge the drop rate of F_4 to 0.1"
  mc.base.link_faults.clear();
  mc.base.link_faults.push_back(LinkFault{4, 0.1});
  mc.base.bypass_after_packets = 1000;
  mc.base.storage_sample_period = sim::milliseconds(1.0);
  args.apply_adversaries(mc);
  mc.runs = runs;
  mc.seed0 = 5000;
  mc.jobs = args.jobs;
  mc.storage_bins = 50;
  mc.storage_horizon_seconds = 2.2;
  mc.events = session.take_events();
  mc.telemetry = session.telemetry();

  std::fprintf(stderr, "[fig3c] full-ack, l_4 at 0.1, bypass @1000, "
               "%zu runs...\n", runs);
  const MonteCarloResult result = run_monte_carlo(mc);
  session.exec(result.exec);

  Table table({"time_s", "F1_storage", "F3_storage", "F5_storage"});
  for (std::size_t i = 0; i < result.storage_grids[1].size(); ++i) {
    table.row()
        .num(result.storage_grids[1].x(i), 3)
        .num(result.storage_grids[1].stat(i).mean(), 2)
        .num(result.storage_grids[3].stat(i).mean(), 2)
        .num(result.storage_grids[5].stat(i).mean(), 2);
  }
  table.print(std::cout, args.csv);

  // Summary statistics for the shape checks.
  auto avg_range = [&](std::size_t node, double t0, double t1) {
    RunningStat s;
    const auto& g = result.storage_grids[node];
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (g.x(i) >= t0 && g.x(i) < t1) s.add(g.stat(i).mean());
    }
    return s.mean();
  };
  std::printf("\nmean storage, attack phase (0.2-1.0s):  F1=%.2f F3=%.2f "
              "F5=%.2f\n",
              avg_range(1, 0.2, 1.0), avg_range(3, 0.2, 1.0),
              avg_range(5, 0.2, 1.0));
  std::printf("mean storage, after bypass (1.2-2.0s): F1=%.2f F3=%.2f "
              "F5=%.2f\n",
              avg_range(1, 1.2, 2.0), avg_range(3, 1.2, 2.0),
              avg_range(5, 1.2, 2.0));

  session.metric("attack_phase.f1", avg_range(1, 0.2, 1.0));
  session.metric("attack_phase.f3", avg_range(3, 0.2, 1.0));
  session.metric("attack_phase.f5", avg_range(5, 0.2, 1.0));
  session.metric("after_bypass.f1", avg_range(1, 1.2, 2.0));
  session.metric("after_bypass.f3", avg_range(3, 1.2, 2.0));
  session.metric("after_bypass.f5", avg_range(5, 1.2, 2.0));
  return 0;
}
