// Footnote 1, measured: the asymmetric-crypto AAI variant (W-OTS signed
// acks) against the symmetric full-ack scheme and PAAI-1. Detection works,
// but the per-packet communication and computation overheads are what the
// paper says they are — prohibitive.
#include <algorithm>
#include <array>
#include <chrono>
#include <iostream>
#include <optional>

#include "bench_common.h"
#include "crypto/wots.h"
#include "util/csv.h"

using namespace paai;
using namespace paai::runner;

namespace {

// CPU time per packet moves between runs of one build (full-ack's, the
// ratio's denominator, most), so each protocol is timed over kReps
// repetitions, the protocols alternating, and the bench reports medians
// and the spread of the per-repetition sig-ack/full-ack ratio.
constexpr std::size_t kReps = 3;

double median3(std::array<double, kReps> v) {
  std::sort(v.begin(), v.end());
  return v[kReps / 2];
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchSession session("bench_asymmetric", argc, argv);
  const auto& args = session.args;
  bench::print_header("Footnote 1 — the asymmetric-crypto AAI variant",
                      "footnote 1's overhead claim");

  struct Plan {
    protocols::ProtocolKind kind;
    const char* name;
    std::uint64_t packets;
    std::optional<ExperimentResult> result;  // identical every repetition
    std::array<double, kReps> us_per_pkt{};
  };
  Plan plans[] = {
      {protocols::ProtocolKind::kSigAck, "sig-ack (W-OTS)", args.scaled(2500),
       {}, {}},
      {protocols::ProtocolKind::kFullAck, "full-ack (MAC)", args.scaled(2500),
       {}, {}},
      {protocols::ProtocolKind::kPaai1, "PAAI-1 (MAC)", args.scaled(60000),
       {}, {}},
  };

  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (Plan& plan : plans) {
      ExperimentConfig cfg = paper_config(plan.kind, plan.packets, 0);
      cfg.crypto = crypto::CryptoKind::kReal;  // honest crypto cost
      cfg.params.send_rate_pps = 500.0;
      args.apply_adversaries(cfg);

      const auto t0 = std::chrono::steady_clock::now();
      plan.result = run_experiment(cfg);
      const auto t1 = std::chrono::steady_clock::now();
      plan.us_per_pkt[rep] =
          std::chrono::duration<double, std::micro>(t1 - t0).count() /
          static_cast<double>(plan.result->packets_sent);
    }
  }

  Table table({"protocol", "ctrl_bytes/data_byte", "ctrl_pkts/data",
               "cpu_us/pkt(sim)", "convicted", "ack_bytes"});
  for (const Plan& plan : plans) {
    const ExperimentResult& r = *plan.result;
    const double us_per_pkt = median3(plan.us_per_pkt);
    std::string convicted;
    for (const auto l : r.final_convicted) {
      convicted += "l_" + std::to_string(l) + " ";
    }
    const std::string prefix = std::string(plan.name) + ".";
    session.metric(prefix + "overhead_bytes_ratio", r.overhead_bytes_ratio);
    session.metric(prefix + "overhead_packets_ratio",
                   r.overhead_packets_ratio);
    session.metric(prefix + "cpu_us_per_pkt", us_per_pkt);
    table.row()
        .cell(plan.name)
        .num(r.overhead_bytes_ratio, 4)
        .num(r.overhead_packets_ratio, 4)
        .num(us_per_pkt, 2)
        .cell(convicted.empty() ? "-" : convicted)
        .cell(plan.kind == protocols::ProtocolKind::kSigAck
                  ? std::to_string(crypto::kWotsSignatureSize) + " (sig)"
                  : "8 (MAC)");
  }
  table.print(std::cout, args.csv);

  std::array<double, kReps> ratio{};
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    ratio[rep] = plans[0].us_per_pkt[rep] / plans[1].us_per_pkt[rep];
  }
  const auto [lo, hi] = std::minmax_element(ratio.begin(), ratio.end());
  std::printf("\ncpu_us/pkt is the median of %zu alternated repetitions.\n"
              "reading: every protocol localizes l_4; the signature "
              "variant pays >100%% byte overhead (a 2.1 KB signature per "
              "ack vs 8-byte MACs) and %.0fx (%.0f-%.0fx over the "
              "repetitions) the CPU per packet of full-ack — footnote 1's "
              "dismissal, quantified.\n",
              kReps, median3(ratio), *lo, *hi);
  return 0;
}
