// §10 ablation: the two combination protocols against their parents.
// Expected shape (Table 1 rows 5-6): Combination 1 keeps PAAI-1's
// detection rate at lower communication overhead but higher storage;
// Combination 2 undercuts everyone's overhead at a detection rate ~1/p
// slower than PAAI-2's.
#include <iostream>

#include "analysis/bounds.h"
#include "bench_common.h"
#include "util/csv.h"

using namespace paai;
using namespace paai::runner;

namespace {

struct Plan {
  protocols::ProtocolKind kind;
  const char* name;
  std::uint64_t packets;
  std::size_t runs;
};

}  // namespace

int main(int argc, char** argv) {
  bench::BenchSession session("bench_combinations", argc, argv);
  const auto& args = session.args;
  bench::print_header("§10 — combination protocols vs their parents",
                      "§10 / Table 1 (Combination 1 & 2)");

  const Plan plans[] = {
      {protocols::ProtocolKind::kPaai1, "PAAI-1", args.scaled(120000),
       args.runs_or(40)},
      {protocols::ProtocolKind::kCombination1, "Combination 1",
       args.scaled(120000), args.runs_or(40)},
      {protocols::ProtocolKind::kPaai2, "PAAI-2", args.scaled(1000000),
       args.runs_or(12)},
      {protocols::ProtocolKind::kCombination2, "Combination 2",
       args.scaled(3000000), args.runs_or(6)},
  };

  Table table({"protocol", "detect_pkts(curve)", "detect_min@100pps",
               "ctrl_pkts/data", "ctrl_bytes/data", "F1_storage_pkts"});

  for (const Plan& plan : plans) {
    std::fprintf(stderr, "[comb] %s: %zu x %llu...\n", plan.name, plan.runs,
                 static_cast<unsigned long long>(plan.packets));
    const auto mc = bench::detection_curve(plan.kind, plan.packets,
                                           plan.runs, 12, 2000, session);
    session.exec(mc.exec);

    // Storage probe (short run).
    MonteCarloConfig smc;
    smc.base = paper_config(plan.kind, 6000, 0);
    smc.base.storage_sample_period = sim::milliseconds(10.0);
    smc.runs = 5;
    smc.seed0 = 100;
    smc.jobs = args.jobs;
    smc.storage_bins = 30;
    smc.storage_horizon_seconds = 60.0;
    const auto st = run_monte_carlo(smc);
    RunningStat f1;
    for (std::size_t i = 3; i < st.storage_grids[1].size(); ++i) {
      f1.add(st.storage_grids[1].stat(i).mean());
    }

    const std::string prefix = std::string(plan.name) + ".";
    if (mc.detection_packets) {
      session.metric(prefix + "detection_packets",
                     static_cast<double>(*mc.detection_packets));
    }
    session.metric(prefix + "ctrl_pkts_per_data",
                   mc.overhead_packets_ratio.mean());
    session.metric(prefix + "ctrl_bytes_per_data",
                   mc.overhead_bytes_ratio.mean());
    session.metric(prefix + "f1_storage_pkts", f1.mean());

    table.row()
        .cell(plan.name)
        .cell(mc.detection_packets
                  ? std::to_string(*mc.detection_packets)
                  : std::string(">") + std::to_string(plan.packets))
        .num(mc.detection_packets
                 ? static_cast<double>(*mc.detection_packets) / 6000.0
                 : -1.0,
             3)
        .num(mc.overhead_packets_ratio.mean(), 4)
        .num(mc.overhead_bytes_ratio.mean(), 4)
        .num(f1.mean(), 2);
  }

  table.print(std::cout, args.csv);
  std::printf("\nshape checks: Comb-1 detection ~= PAAI-1 at lower "
              "comm, higher storage; Comb-2 comm < everyone, detection "
              "slowest (may exceed its budget here — that is the "
              "finding).\n");
  return 0;
}
