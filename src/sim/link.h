// A bidirectional point-to-point link with independent natural loss.
//
// §3.2: "links in the network independently exhibit some natural packet
// loss due to congestion and/or channel errors" and §8.1: "each packet
// traversing a link has an independent probability of being dropped
// bi-directionally", "per-link bi-directional latency distributed within 0
// to 5 ms uniformly at random" — the latency is drawn once per link; the
// loss coin is tossed per traversal.
//
// The i.i.d. Bernoulli coin is only the *default* loss model. A link can
// carry a pluggable LossProcess (src/faults ships Gilbert–Elliott bursty
// loss) plus scripted reordering/duplication knobs, so the robustness
// suite can subject the protocols to realistic benign faults. Every fault
// decision draws exclusively from this link's own RNG stream — runs stay
// bit-identical across --jobs values.
#pragma once

#include <cstddef>

#include "net/packet.h"
#include "obs/metrics.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace paai::sim {

/// Pluggable per-traversal loss decision. Stateful processes (bursty
/// models) advance on every traversal; they must draw randomness only
/// from the link's RNG handed in, never from shared state. When a link
/// has a process attached it fully replaces the Bernoulli coin (and thus
/// any rate set via set_loss_rate) on that link.
class LossProcess {
 public:
  virtual ~LossProcess() = default;

  /// Returns true iff this traversal is dropped.
  virtual bool drop(SimTime now, Rng& rng) = 0;
};

/// Per-link observability handles (sim.link.<i>.* in the registry). All
/// handles are inert until the registry is enabled, so a default
/// LinkObs costs one predicted branch per operation.
struct LinkObs {
  obs::Counter tx_packets;
  obs::Counter tx_bytes;
  obs::Counter drops;
  obs::Counter dup_copies;  // extra deliveries minted by the dup knob
};

class Link {
 public:
  /// Throws std::invalid_argument for a loss rate outside [0, 1] or a
  /// negative latency/jitter (NaN rejected everywhere) — a misconfigured
  /// schedule must fail loudly, never silently produce nonsense.
  Link(Simulator& sim, std::size_t index, double loss_rate,
       SimDuration latency, SimDuration jitter, Rng rng,
       TrafficCounters* counters);

  Link(Simulator& sim, std::size_t index, double loss_rate,
       SimDuration latency, Rng rng, TrafficCounters* counters)
      : Link(sim, index, loss_rate, latency, 0, rng, counters) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void connect(Node* upstream, Node* downstream) {
    upstream_ = upstream;
    downstream_ = downstream;
  }

  /// Wires the metrics handles; PathNetwork calls this once at
  /// construction.
  void set_obs(LinkObs obs) { obs_ = obs; }

  /// Sends the packet across the link: counts it, tosses the natural-loss
  /// coin (or consults the attached LossProcess), and on survival
  /// schedules delivery at the peer after `latency` (+ jitter, + the
  /// reordering delay when that knob fires).
  void transmit(const PacketEnv& env);

  std::size_t index() const { return index_; }
  double loss_rate() const { return loss_rate_; }
  /// Validates like the constructor (throws std::invalid_argument).
  void set_loss_rate(double rate);
  SimDuration latency() const { return latency_; }
  void set_latency(SimDuration latency);
  void set_jitter(SimDuration jitter);

  /// Attaches (or detaches, with nullptr) a per-traversal loss process.
  /// Non-owning: the caller (faults::FaultInjector) keeps it alive for
  /// the simulation's lifetime.
  void set_loss_process(LossProcess* process) { loss_process_ = process; }
  LossProcess* loss_process() const { return loss_process_; }

  /// Reordering knob: with probability `prob`, a surviving traversal is
  /// delayed by an extra U(0, extra_delay) on top of latency + jitter, so
  /// it can overtake or be overtaken by neighbouring packets.
  void set_reordering(double prob, SimDuration extra_delay);

  /// Duplication knob: with probability `prob`, a surviving traversal is
  /// delivered twice (the copy drawn with its own delay). Duplicates show
  /// up in sim.link.<i>.dup_copies but not in the ground-truth traffic
  /// counters — they are echoes of one traversal, not fresh crossings.
  void set_duplication(double prob);

 private:
  SimDuration draw_delay();

  Simulator& sim_;
  std::size_t index_;
  double loss_rate_;
  SimDuration latency_;
  SimDuration jitter_ = 0;
  Rng rng_;
  TrafficCounters* counters_;
  LossProcess* loss_process_ = nullptr;
  double reorder_prob_ = 0.0;
  SimDuration reorder_delay_ = 0;
  double dup_prob_ = 0.0;
  LinkObs obs_{};
  Node* upstream_ = nullptr;    // the l_i endpoint closer to S (F_i)
  Node* downstream_ = nullptr;  // the endpoint closer to D (F_{i+1})
};

}  // namespace paai::sim
