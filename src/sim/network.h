// PathNetwork: the monitored forwarding path of Figure 1.
//
// Builds nodes F_0 = S, F_1..F_{d-1}, F_d = D and links l_0..l_{d-1}
// (l_i connects F_i and F_{i+1}), draws each link's latency uniformly from
// the configured range, seeds independent loss streams per link, and
// assigns per-node clock offsets within the loose-synchronization bound.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/events.h"
#include "sim/link.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace paai::sim {

struct PathConfig {
  /// Path length d in hops; d+1 nodes. Must be >= 2.
  std::size_t length = 6;
  /// Natural per-link, per-traversal drop probability (rho).
  double natural_loss = 0.01;
  /// Per-link latency drawn once from U(min, max) ms (paper: 0..5 ms).
  double min_latency_ms = 0.0;
  double max_latency_ms = 5.0;
  /// Per-traversal latency jitter, U(0, jitter_ms), on top of the link's
  /// base latency. Keep well below the per-hop timer allowance (0.2 ms is
  /// added per hop on top of max latency + jitter in rtt_bound) — the
  /// wait-timer cascade tolerates exactly what the RTT bounds cover.
  double jitter_ms = 0.0;
  /// Loose time synchronization: node clock offsets drawn from
  /// U(-max_clock_error_ms, +max_clock_error_ms).
  double max_clock_error_ms = 0.0;
  /// Extra per-hop allowance folded into the RTT bounds (and nothing
  /// else). The runner sets this from a FaultPlan's worst-case latency
  /// retune / reordering delay, exactly as a deployment would provision
  /// its wait timers from a known SLA envelope — link construction and
  /// all RNG streams are untouched, only the timers widen.
  double extra_rtt_slack_ms = 0.0;
  /// Seed for link loss / latency / clock-offset streams.
  std::uint64_t seed = 1;
  /// Optional structured event log (obs/events.h): when set, every node
  /// records packet send/recv/forward and crash/restart events, and the
  /// protocol engines record their forensic trail (sample selections,
  /// ack timeouts, score updates, ...). Single-writer and purely
  /// observational — never read by the simulation; the Monte-Carlo
  /// driver attaches it to run 0 only so the stream is bit-identical
  /// for any --jobs value.
  obs::EventLog* events = nullptr;
};

class PathNetwork {
 public:
  /// Throws std::invalid_argument for a length < 2, an inverted latency
  /// range, or any negative/NaN rate, latency, jitter, clock error, or
  /// slack — bad schedules must fail loudly at construction.
  PathNetwork(Simulator& sim, const PathConfig& config);

  std::size_t length() const { return config_.length; }
  Node& node(std::size_t i) { return *nodes_[i]; }
  const Node& node(std::size_t i) const { return *nodes_[i]; }
  Node& source() { return *nodes_.front(); }
  Node& destination() { return *nodes_.back(); }
  Link& link(std::size_t i) { return *links_[i]; }

  TrafficCounters& counters() { return counters_; }
  const TrafficCounters& counters() const { return counters_; }
  const PathConfig& config() const { return config_; }

  /// Conservative round-trip-time bound r_i between F_i and D: twice the
  /// remaining hops at max latency, plus a per-hop processing allowance.
  /// Protocol wait-timers are derived from these bounds, exactly as a
  /// deployment would provision them from known link SLAs.
  SimDuration rtt_bound(std::size_t i) const;

  /// r_0: RTT bound for the whole path.
  SimDuration path_rtt_bound() const { return rtt_bound(0); }

  /// Calls start() on every attached agent (source last, so all relays are
  /// listening before traffic flows).
  void start_agents();

 private:
  Simulator& sim_;
  PathConfig config_;
  TrafficCounters counters_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace paai::sim
