// Shared implementation for the three Figure 2 benches: false-positive and
// false-negative rates vs number of packets sent (log-spaced grid), for
// one protocol on the reference path (d = 6, rho = 0.01, malicious l_4 at
// ~alpha = 0.03).
#pragma once

#include <iostream>

#include "bench_common.h"
#include "util/csv.h"
#include "util/stats.h"

namespace paai::bench {

inline int run_fig2(int argc, char** argv, protocols::ProtocolKind kind,
                    const char* fig_name, std::uint64_t default_packets,
                    std::size_t default_runs,
                    std::uint64_t first_checkpoint) {
  BenchSession session(fig_name, argc, argv);
  const auto& args = session.args;
  const std::size_t runs = args.runs_or(default_runs);
  const std::uint64_t packets = args.scaled(default_packets);
  session.info("protocol", protocols::protocol_name(kind));
  session.arg("packets", static_cast<long long>(packets));

  print_header(fig_name,
               "Figure 2: false positive/negative vs packets sent");
  std::printf("protocol=%s runs=%zu packets=%llu (paper used 10000 runs; "
              "--runs=N to scale)\n\n",
              protocols::protocol_name(kind), runs,
              static_cast<unsigned long long>(packets));

  const auto mc =
      detection_curve(kind, packets, runs, 18, first_checkpoint, session);
  session.exec(mc.exec);

  Table table({"packets_sent", "false_positive", "false_negative",
               "fp_ci95", "fn_ci95"});
  for (const auto& pt : mc.curve) {
    table.row()
        .integer(static_cast<long long>(pt.packets))
        .num(pt.fp, 4)
        .num(pt.fn, 4)
        .num(wilson_halfwidth(pt.fp, runs), 3)
        .num(wilson_halfwidth(pt.fn, runs), 3);
  }
  table.print(std::cout, args.csv);

  if (mc.detection_packets) {
    std::printf("\nconverged (FP, FN <= 0.03) at %llu packets = %.2f min "
                "@100 pkt/s\n",
                static_cast<unsigned long long>(*mc.detection_packets),
                static_cast<double>(*mc.detection_packets) / 6000.0);
  } else {
    std::printf("\nnot converged within the packet budget\n");
  }
  std::printf("per-run stable conviction: mean %.0f packets (sd %.0f, "
              "%zu/%zu runs)\n",
              mc.per_run_detection_packets.mean(),
              mc.per_run_detection_packets.stddev(),
              mc.per_run_detection_packets.count(), runs);
  if (!mc.detection_samples.empty()) {
    std::printf("convergence timeline: p50 %.0f  p90 %.0f  p99 %.0f "
                "packets-to-detection\n",
                mc.detection_p50, mc.detection_p90, mc.detection_p99);
  }
  std::printf("final theta estimates (mean over runs):");
  for (std::size_t i = 0; i < mc.final_thetas.size(); ++i) {
    std::printf(" l_%zu=%.4f", i, mc.final_thetas[i].mean());
  }
  std::printf("\n");

  if (mc.detection_packets) {
    session.metric("detection_packets",
                   static_cast<double>(*mc.detection_packets));
  }
  session.metric("per_run_detection_packets_mean",
                 mc.per_run_detection_packets.mean());
  if (!mc.detection_samples.empty()) {
    session.metric("detection_packets_p50", mc.detection_p50);
    session.metric("detection_packets_p90", mc.detection_p90);
    session.metric("detection_packets_p99", mc.detection_p99);
  }
  session.metric("final_fp", mc.curve.empty() ? 0.0 : mc.curve.back().fp);
  session.metric("final_fn", mc.curve.empty() ? 0.0 : mc.curve.back().fn);
  session.metric("final_e2e_rate", mc.final_e2e_rate.mean());
  session.metric("overhead_bytes_ratio", mc.overhead_bytes_ratio.mean());
  return 0;
}

}  // namespace paai::bench
