// Robustness under benign faults — the two questions src/faults exists to
// answer:
//
// A. False accusations: run every shipped benign fault plan (bursty loss,
//    link churn, node outages, reordering/duplication — see docs/FAULTS.md)
//    against every protocol on an honest path. The paper's identification
//    guarantee ("an honest link is never identified as faulty", Theorem 2)
//    is only worth having if realistic benign turbulence cannot trip it:
//    the false-accusation rate must be 0 everywhere.
//
// B. Detection degradation: with the paper's adversary on l_4, how much
//    does bursty (Gilbert-Elliott) natural loss on an honest link slow
//    detection down? Burstiness widens the estimator's transient — the
//    detection point moves, the verdict must not.
//
// Sizing: statistical-FL runs with exact counters (fl_sampling = 1), the
// repo-wide convention at sub-1e7-packet scales; sig-ack runs a reduced
// packet budget (W-OTS signing dominates wall time; its detection behaviour
// is full-ack-like, so the faults see plenty of traffic).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "faults/plan.h"
#include "util/csv.h"

using namespace paai;
using namespace paai::runner;

namespace {

struct ProtocolUnderTest {
  protocols::ProtocolKind kind;
  std::uint64_t packets;
  double pps;
};

// Every protocol at the paper rate, with two sized exceptions:
//  * comb-2 detects 1/p slower by design (Table 1), so it gets a 6x
//    horizon to reach the converged sample count the protocol_test.cc
//    sweeps use — below that, estimator variance alone can convict;
//  * sig-ack signs every packet with W-OTS (~3 CPU-minutes per
//    60k-packet run), so it covers the same 600 s fault horizon (the
//    shipped plans schedule events up to t = 550) at a tenth of the
//    rate and signing cost.
std::vector<ProtocolUnderTest> protocols_under_test(std::uint64_t packets) {
  return {
      {protocols::ProtocolKind::kFullAck, packets, 100.0},
      {protocols::ProtocolKind::kPaai1, packets, 100.0},
      {protocols::ProtocolKind::kPaai2, packets, 100.0},
      {protocols::ProtocolKind::kCombination1, packets, 100.0},
      {protocols::ProtocolKind::kCombination2, packets * 6, 100.0},
      {protocols::ProtocolKind::kStatisticalFl, packets, 100.0},
      {protocols::ProtocolKind::kSigAck, packets / 10, 10.0},
  };
}

ExperimentConfig benign_config(const ProtocolUnderTest& put,
                               std::uint64_t seed,
                               const faults::FaultPlan& plan) {
  ExperimentConfig cfg = paper_config(put.kind, put.packets, seed);
  cfg.params.send_rate_pps = put.pps;
  cfg.link_faults.clear();  // honest path: any conviction is false
  cfg.faults = plan;
  if (put.kind == protocols::ProtocolKind::kStatisticalFl) {
    cfg.params.fl_sampling = 1.0;
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchSession session("bench_robustness", argc, argv);
  const auto& args = session.args;
  bench::print_header(
      "Robustness — benign faults must not create false accusations",
      "the Theorem 2 guarantee under the src/faults chaos plans");

  const std::uint64_t packets = args.scaled(60000);
  const std::size_t runs = args.runs_or(3);

  // --- A: false-accusation sweep ----------------------------------------
  Table a({"plan", "protocol", "runs", "false_accusations", "max_theta"});
  std::size_t total_false = 0;
  for (const auto& named : faults::benign_plans()) {
    const faults::FaultPlan plan = faults::FaultPlan::parse(named.spec);
    for (const auto& put : protocols_under_test(packets)) {
      std::size_t accusations = 0;
      double max_theta = 0.0;
      for (std::size_t r = 0; r < runs; ++r) {
        const ExperimentResult result =
            run_experiment(benign_config(put, 3000 + r, plan));
        if (!result.final_convicted.empty()) ++accusations;
        for (const double t : result.final_thetas) {
          max_theta = std::max(max_theta, t);
        }
      }
      total_false += accusations;
      session.metric(std::string("false_accuse.") + named.name + "." +
                         protocols::protocol_name(put.kind),
                     static_cast<double>(accusations));
      a.row()
          .cell(named.name)
          .cell(protocols::protocol_name(put.kind))
          .integer(static_cast<long long>(runs))
          .integer(static_cast<long long>(accusations))
          .num(max_theta, 4);
    }
  }
  a.print(std::cout, args.csv);
  session.metric("false_accusations_total",
                 static_cast<double>(total_false));
  std::printf("\n%s\n\n",
              total_false == 0
                  ? "no honest link convicted under any benign plan"
              : args.scale < 1.0
                  ? "false accusations at reduced --scale (estimator "
                    "variance; expected at small sample sizes)"
                  : "FALSE ACCUSATIONS DETECTED — invariant violated");

  // --- B: detection degradation under bursty loss -----------------------
  // The paper's adversary (l_4 at ~alpha = 0.03) with calibrated bursty
  // natural loss on honest l_2; same stationary rate as rho, arriving in
  // bursts. Detection must still converge to exactly {l_4} — only the
  // transient may stretch.
  const char* kBurst = "ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15";
  Table b({"protocol", "condition", "detection_pkts", "final_fp",
           "final_fn"});
  for (const auto kind : {protocols::ProtocolKind::kFullAck,
                          protocols::ProtocolKind::kPaai1,
                          protocols::ProtocolKind::kPaai2}) {
    for (const bool bursty : {false, true}) {
      MonteCarloConfig mc;
      mc.base = paper_config(kind, packets, 0);
      if (bursty) mc.base.faults = faults::FaultPlan::parse(kBurst);
      mc.base.checkpoints = log_checkpoints(100, packets, 16);
      mc.runs = args.runs_or(6);
      mc.seed0 = 500;
      mc.malicious_links = {4};
      mc.sigma = 0.03;
      args.apply_adversaries(mc);
      mc.jobs = args.jobs;
      mc.events = session.take_events();
      mc.telemetry = session.telemetry();
      const MonteCarloResult r = run_monte_carlo(mc);
      session.exec(r.exec);

      const std::string prefix = std::string("degradation.") +
                                 protocols::protocol_name(kind) +
                                 (bursty ? ".bursty" : ".clean");
      if (r.detection_packets) {
        session.metric(prefix + ".detection_packets",
                       static_cast<double>(*r.detection_packets));
      }
      session.metric(prefix + ".final_fp", r.curve.back().fp);
      session.metric(prefix + ".final_fn", r.curve.back().fn);
      b.row()
          .cell(protocols::protocol_name(kind))
          .cell(bursty ? "bursty l_2" : "clean")
          .cell(r.detection_packets
                    ? std::to_string(*r.detection_packets)
                    : std::string("not converged"))
          .num(r.curve.back().fp, 3)
          .num(r.curve.back().fn, 3);
    }
  }
  b.print(std::cout, args.csv);
  std::printf(
      "\nburstiness may stretch the transient; the final verdict (fp = "
      "fn = 0 at the horizon) must hold in both conditions\n");

  // --- C: detection-vs-stealth frontier ---------------------------------
  // Adaptive adversaries trade damage for detectability. For each strategy
  // point we measure both axes over Monte-Carlo runs:
  //   achieved   = ground-truth data loss on the adversary's downstream
  //                link l_4 (what the attack actually cost the data plane;
  //                rho = 0.01 of it is natural);
  //   theta_4    = the scorer's estimate of that link (what detection saw);
  //   undetected = fraction of runs NOT convicting l_4 at the horizon.
  // The frontier is the curve those points trace: strategies riding under
  // psi_th (stealth margin < 1) or hiding in benign cover must buy their
  // invisibility with proportionally less damage — an adversary that does
  // real damage gets caught, one that stays hidden is bounded to
  // threshold-level loss. Colluder points run with the calibrated bursty
  // plan on honest l_2 as cover.
  struct FrontierPoint {
    const char* label;
    const char* spec;
    const char* cover;  // benign fault plan providing the hiding windows
  };
  const std::vector<FrontierPoint> frontier = {
      {"stealth-m050", "stealth@4:margin=0.5", ""},
      {"stealth-m090", "stealth@4:margin=0.9", ""},
      {"stealth-m120", "stealth@4:margin=1.2", ""},
      {"onoff-d25", "onoff@4:rate=0.25,on=5,off=15", ""},
      {"onoff-d75", "onoff@4:rate=0.25,on=15,off=5", ""},
      {"collude-r05", "collude@4:rate=0.5", kBurst},
      {"collude-r10", "collude@4:rate=1", kBurst},
      {"probeshy-c5", "probeshy@4:rate=0.05,cooldown=5", ""},
  };
  Table c({"strategy", "protocol", "true_l4_loss", "est_theta4",
           "undetected", "fp", "detect_pkts"});
  // Each point runs the three reference protocols; colluder points add
  // PAAI-1 rows under the multi-level blame modes (docs/DETECTORS.md):
  //   persistent:3  — K repeated first-failing-hop observations;
  //   windowed:192  — flagrant-window clause only. An expected NEGATIVE
  //                   result: PAAI-1 samples ~1/36 of packets, so a
  //                   GE-cover burst never fills a 192-unit window past
  //                   the flagrant bar — the row documents why windowed
  //                   alone cannot catch a fault-colluder at this rate;
  //   hybrid:4,192  — adds the hot-window streak clause gated on the
  //                   cumulative floor; the sustained r=1 colluder keeps
  //                   >= 4 consecutive hot windows while honest churn
  //                   cannot, so this row is the one that convicts.
  struct Contender {
    protocols::ProtocolKind kind;
    const char* blame;  // BlameSpec grammar ("" = margin)
    const char* name;   // nullptr = protocol_name(kind)
  };
  for (const auto& point : frontier) {
    const adversary::AdversaryPlan plan =
        adversary::AdversaryPlan::parse(point.spec);
    std::vector<Contender> contenders = {
        {protocols::ProtocolKind::kFullAck, "", nullptr},
        {protocols::ProtocolKind::kPaai1, "", nullptr},
        {protocols::ProtocolKind::kPaai2, "", nullptr},
    };
    if (std::string(point.label).rfind("collude", 0) == 0) {
      contenders.push_back({protocols::ProtocolKind::kPaai1, "persistent:3",
                            "paai1-persistent"});
      contenders.push_back({protocols::ProtocolKind::kPaai1, "windowed:192",
                            "paai1-windowed"});
      contenders.push_back({protocols::ProtocolKind::kPaai1, "hybrid:4,192",
                            "paai1-hybrid"});
    }
    for (const auto& contender : contenders) {
      const auto kind = contender.kind;
      const char* pname = contender.name ? contender.name
                                         : protocols::protocol_name(kind);
      MonteCarloConfig mc;
      mc.base = paper_config(kind, packets, 0);
      if (contender.blame[0] != '\0') {
        mc.base.params.blame = protocols::BlameSpec::parse(contender.blame);
      }
      mc.base.link_faults.clear();  // the strategy IS the adversary
      mc.base.adversaries = plan.specs;
      if (point.cover[0] != '\0') {
        mc.base.faults = faults::FaultPlan::parse(point.cover);
      }
      mc.base.checkpoints = log_checkpoints(100, packets, 12);
      mc.runs = args.runs_or(3);
      mc.seed0 = 900;
      mc.malicious_links = {4};
      mc.sigma = 0.03;
      mc.jobs = args.jobs;
      mc.events = session.take_events();
      mc.telemetry = session.telemetry();
      const MonteCarloResult r = run_monte_carlo(mc);
      session.exec(r.exec);

      const double achieved = r.true_link_loss[4].mean();
      const double theta = r.final_thetas[4].mean();
      const double undetected = r.curve.back().fn;
      const double fp = r.curve.back().fp;
      const std::string prefix =
          std::string("frontier.") + point.label + "." + pname;
      session.metric(prefix + ".achieved", achieved);
      session.metric(prefix + ".theta", theta);
      session.metric(prefix + ".undetected", undetected);
      session.metric(prefix + ".fp", fp);
      if (r.detection_packets) {
        session.metric(prefix + ".detection_packets",
                       static_cast<double>(*r.detection_packets));
      }
      c.row()
          .cell(point.label)
          .cell(pname)
          .num(achieved, 4)
          .num(theta, 4)
          .num(undetected, 3)
          .num(fp, 3)
          .cell(r.detection_packets ? std::to_string(*r.detection_packets)
                                    : std::string("evaded"));
    }
  }
  c.print(std::cout, args.csv);
  std::printf(
      "\nfrontier reading: high true_l4_loss with 'evaded' = a detection "
      "gap; stealth points are *designed* to evade by capping their own "
      "damage near psi_th, so 'evaded' with true_l4_loss <~ threshold is "
      "the estimator working as specified, not a failure\n");

  // The invariant is only meaningful at full sample size; reduced --scale
  // runs are smoke tests where estimator variance alone can convict.
  return (total_false == 0 || args.scale < 1.0) ? 0 : 1;
}
