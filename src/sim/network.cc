#include "sim/network.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"

namespace paai::sim {

namespace {

// One registry lookup set per link per network construction — never on
// the per-packet path. Names follow docs/OBSERVABILITY.md.
LinkObs link_obs(std::size_t i) {
  auto& reg = obs::MetricsRegistry::global();
  const std::string prefix = "sim.link." + std::to_string(i);
  LinkObs o;
  o.tx_packets = reg.counter(prefix + ".tx_packets");
  o.tx_bytes = reg.counter(prefix + ".tx_bytes");
  o.drops = reg.counter(prefix + ".drops");
  o.dup_copies = reg.counter(prefix + ".dup_copies");
  return o;
}

void check_nonnegative(double value, const char* what) {
  if (!(value >= 0.0)) {  // NaN fails the comparison too
    throw std::invalid_argument(std::string("PathNetwork: ") + what +
                                " must be >= 0 and finite, got " +
                                std::to_string(value));
  }
}

}  // namespace

PathNetwork::PathNetwork(Simulator& sim, const PathConfig& config)
    : sim_(sim), config_(config), counters_(config.length) {
  if (config.length < 2) {
    throw std::invalid_argument("PathNetwork: path length must be >= 2");
  }
  if (!(config.natural_loss >= 0.0 && config.natural_loss <= 1.0)) {
    throw std::invalid_argument(
        "PathNetwork: natural loss must be within [0, 1], got " +
        std::to_string(config.natural_loss));
  }
  check_nonnegative(config.min_latency_ms, "min latency");
  check_nonnegative(config.max_latency_ms, "max latency");
  check_nonnegative(config.jitter_ms, "jitter");
  check_nonnegative(config.max_clock_error_ms, "max clock error");
  check_nonnegative(config.extra_rtt_slack_ms, "extra RTT slack");
  if (config.max_latency_ms < config.min_latency_ms) {
    throw std::invalid_argument("PathNetwork: invalid latency range");
  }

  Rng master(config.seed);
  Rng latency_rng = master.fork(1);
  Rng clock_rng = master.fork(2);
  Rng loss_seed_rng = master.fork(3);

  nodes_.reserve(config.length + 1);
  for (std::size_t i = 0; i <= config.length; ++i) {
    nodes_.push_back(std::make_unique<Node>(sim_, i));
    if (config.max_clock_error_ms > 0.0) {
      nodes_.back()->set_clock_offset(milliseconds(clock_rng.uniform(
          -config.max_clock_error_ms, config.max_clock_error_ms)));
    }
    nodes_.back()->set_obs(config.events);
  }

  links_.reserve(config.length);
  for (std::size_t i = 0; i < config.length; ++i) {
    const SimDuration latency = milliseconds(
        latency_rng.uniform(config.min_latency_ms, config.max_latency_ms));
    links_.push_back(std::make_unique<Link>(
        sim_, i, config.natural_loss, latency,
        milliseconds(config.jitter_ms), loss_seed_rng.fork(i), &counters_));
    links_[i]->set_obs(link_obs(i));
    links_[i]->connect(nodes_[i].get(), nodes_[i + 1].get());
    nodes_[i]->set_link_toward_dest(links_[i].get());
    nodes_[i + 1]->set_link_toward_source(links_[i].get());
  }
}

SimDuration PathNetwork::rtt_bound(std::size_t i) const {
  if (i > config_.length) {
    throw std::out_of_range("rtt_bound: node index outside [0, d]");
  }
  // Per-hop allowance for processing/queuing on top of the worst latency
  // plus the configured jitter.
  constexpr double kPerHopSlackMs = 0.2;
  const double hops = static_cast<double>(config_.length - i);
  return milliseconds(2.0 * hops *
                      (config_.max_latency_ms + config_.jitter_ms +
                       config_.extra_rtt_slack_ms + kPerHopSlackMs));
}

void PathNetwork::start_agents() {
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    if (Agent* a = nodes_[i]->agent()) a->start();
  }
}

}  // namespace paai::sim
