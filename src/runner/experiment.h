// Experiment: wires a full single simulation run together.
//
// One run = one PathNetwork + KeyStore + ProtocolContext + protocol agents
// + adversary strategies, driven until the source has sent
// params.total_packets and every timer has settled. The result carries
// conviction snapshots on a packet-count grid (for the Fig. 2 FP/FN
// curves), per-node storage time series (Fig. 3), traffic counters
// (communication overhead), and the final estimates.
//
// Thread-safety contract (relied on by src/exec and the parallel
// Monte-Carlo and mesh drivers): run_experiment() is a pure function of its
// config. Every piece of mutable state — Simulator, PathNetwork, crypto
// provider, KeyStore, ProtocolContext, adversary strategies, and all RNG
// streams (forked from config.path.seed) — is constructed inside the call
// and owned by it. There are no globals, function-local statics, or
// lazily initialized shared tables anywhere beneath it, with one
// deliberate carve-out: the src/obs metrics registry
// (obs::MetricsRegistry::global(), phase timers included). It is fully
// synchronized (mutex-guarded registration, relaxed atomics on the hot
// path) and strictly write-only from inside a run — no result field ever
// reads it — so concurrent run_experiment() calls remain safe and their
// results still depend only on their configs, never on interleaving.
// Any future code that introduces shared mutable state below this call
// must follow the same rule: synchronize it AND keep results
// schedule-independent, or be rejected — tools/check.sh runs the exec +
// runner + obs tests under TSan to enforce the first half, and the
// jobs=1-vs-jobs=8 determinism test in tests/exec_test.cc the second.
#pragma once

#include <cstdint>
#include <vector>

#include "adversary/spec.h"
#include "adversary/strategy.h"
#include "crypto/provider.h"
#include "faults/plan.h"
#include "protocols/context.h"
#include "sim/network.h"
#include "util/timeseries.h"

namespace paai::obs {
class TelemetrySink;
}  // namespace paai::obs

namespace paai::runner {

/// One compromised node's behaviour. The full definition (kinds, the
/// --adversary grammar, make_strategy) lives in adversary/spec.h; the
/// runner consumes it verbatim.
using AdversarySpec = adversary::Spec;

/// A link-level malicious drop rate, composed with the natural loss. This
/// is the paper's formal model (Theorems 1-2 speak of per-*link* drop
/// rates theta_i) and its simulation target ("the malicious drops will
/// directly increase l_4's drop count; thus l_4 is the target link"): a
/// compromised node dropping uniformly while pretending honesty in the ack
/// machinery manifests exactly as extra loss on its downstream link.
/// Node-level Strategy adversaries (AdversarySpec) model the *behavioural*
/// attacks instead; the security tests use those.
struct LinkFault {
  std::size_t link = 4;
  double extra_loss = 0.02;
};

struct ExperimentConfig {
  protocols::ProtocolKind protocol = protocols::ProtocolKind::kPaai1;
  sim::PathConfig path{};
  protocols::ProtocolParams params{};
  crypto::CryptoKind crypto = crypto::CryptoKind::kFast;
  std::vector<AdversarySpec> adversaries{};
  std::vector<LinkFault> link_faults{};

  /// Scripted *benign* faults (bursty loss, link churn, node outages —
  /// src/faults). Installed after link_faults; a Gilbert–Elliott clause
  /// replaces the Bernoulli coin (and thus any composed link-fault rate)
  /// on its link, so benign-fault robustness studies keep adversaries and
  /// fault processes on disjoint links. The plan's worst-case latency /
  /// reordering delay is folded into the path's RTT bounds before the
  /// network is built (sim::PathConfig::extra_rtt_slack_ms), so the
  /// wait-timer cascade is provisioned for the schedule just as a real
  /// deployment provisions for its SLA envelope.
  faults::FaultPlan faults{};

  /// Identify-phase decision threshold in per-traversal terms; the paper's
  /// setting rho = 0.01, alpha = 0.03 gives the midpoint 0.02.
  double decision_threshold = 0.02;

  /// Packet counts at which to snapshot the convicted-link set.
  std::vector<std::uint64_t> checkpoints{};

  /// When > 0, sample every node's storage meter with this period.
  sim::SimDuration storage_sample_period = 0;

  /// When > 0, deactivate all adversary strategies and reset faulty links
  /// to the natural loss rate once this many packets have been sent (the
  /// source "bypasses" the identified node — the "w/ AAI" curves of
  /// Fig. 3, implemented exactly like the paper: "resetting F_4's drop
  /// rate to zero").
  std::uint64_t bypass_after_packets = 0;

  /// Optional live telemetry sink (obs/telemetry.h). A periodic sampler
  /// event snapshots the metrics registry as the run
  /// progresses, adding the packets sent since its previous sample to
  /// the sink's units, with the simulated clock as the virtual timestamp.
  /// Strictly observational: sampler events are subtracted from
  /// events_processed, and they never reorder protocol events (the
  /// simulator's tie-break seq preserves relative order of all other
  /// events). Callers sharing one sink across parallel runs get
  /// interleaved-but-valid samples; the Monte-Carlo driver instead ticks
  /// its sink from the serialized fold.
  obs::TelemetrySink* telemetry = nullptr;
};

struct CheckpointResult {
  std::uint64_t packets = 0;
  std::vector<std::size_t> convicted;
};

struct ExperimentResult {
  std::vector<CheckpointResult> checkpoints;
  std::vector<double> final_thetas;
  std::vector<std::size_t> final_convicted;
  double observed_e2e_rate = 0.0;
  std::uint64_t observations = 0;
  std::uint64_t packets_sent = 0;

  /// storage[i] is node F_i's sampled storage series (seconds, packets);
  /// empty when storage sampling was off.
  std::vector<TimeSeries> storage;

  /// Control bytes per data byte, and control packets per data packet.
  double overhead_bytes_ratio = 0.0;
  double overhead_packets_ratio = 0.0;

  /// Ground-truth traffic: total data-packet link crossings (a packet
  /// surviving the whole path counts d times). Used by tests to verify
  /// that control-plane attacks leave the data plane untouched.
  std::uint64_t data_link_crossings = 0;

  /// Ground truth: fraction of sent data packets that physically reached
  /// the destination (the quantity Theorem 1 bounds), and the true
  /// per-traversal data loss rate of each link.
  double ground_truth_delivery = 0.0;
  std::vector<double> true_link_loss;

  std::uint64_t events_processed = 0;
};

ExperimentResult run_experiment(const ExperimentConfig& config);

/// The paper's reference configuration (§8.1): d = 6, rho = 0.01 per link,
/// uniform 0-5 ms link latency, malicious node F_4 dropping everything at
/// 0.02 (so link l_4 exhibits ~alpha = 0.03), source rate 100 pps.
ExperimentConfig paper_config(protocols::ProtocolKind protocol,
                              std::uint64_t total_packets,
                              std::uint64_t seed);

}  // namespace paai::runner
