#include "sim/link.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace paai::sim {

namespace {

void check_probability(double value, const char* what) {
  if (!(value >= 0.0 && value <= 1.0)) {  // NaN fails both comparisons
    throw std::invalid_argument(std::string("Link: ") + what +
                                " must be within [0, 1], got " +
                                std::to_string(value));
  }
}

void check_duration(SimDuration value, const char* what) {
  if (value < 0) {
    throw std::invalid_argument(std::string("Link: ") + what +
                                " must be >= 0, got " +
                                std::to_string(value));
  }
}

}  // namespace

Link::Link(Simulator& sim, std::size_t index, double loss_rate,
           SimDuration latency, SimDuration jitter, Rng rng,
           TrafficCounters* counters)
    : sim_(sim),
      index_(index),
      loss_rate_(loss_rate),
      latency_(latency),
      jitter_(jitter),
      rng_(rng),
      counters_(counters) {
  check_probability(loss_rate, "loss rate");
  check_duration(latency, "latency");
  check_duration(jitter, "jitter");
}

void Link::set_loss_rate(double rate) {
  check_probability(rate, "loss rate");
  loss_rate_ = rate;
}

void Link::set_latency(SimDuration latency) {
  check_duration(latency, "latency");
  latency_ = latency;
}

void Link::set_jitter(SimDuration jitter) {
  check_duration(jitter, "jitter");
  jitter_ = jitter;
}

void Link::set_reordering(double prob, SimDuration extra_delay) {
  check_probability(prob, "reordering probability");
  check_duration(extra_delay, "reordering delay");
  reorder_prob_ = prob;
  reorder_delay_ = extra_delay;
}

void Link::set_duplication(double prob) {
  check_probability(prob, "duplication probability");
  dup_prob_ = prob;
}

SimDuration Link::draw_delay() {
  SimDuration delay = latency_;
  if (jitter_ > 0) {
    delay += static_cast<SimDuration>(rng_.next_double() *
                                      static_cast<double>(jitter_));
  }
  if (reorder_prob_ > 0.0 && rng_.bernoulli(reorder_prob_)) {
    delay += static_cast<SimDuration>(rng_.next_double() *
                                      static_cast<double>(reorder_delay_));
  }
  return delay;
}

void Link::transmit(const PacketEnv& env) {
  const auto type = net::peek_type(env.view());
  if (counters_ != nullptr && type) {
    counters_->on_transmit(*type, env.wire_size, index_);
  }
  obs_.tx_packets.add();
  obs_.tx_bytes.add(env.wire_size);
  const bool dropped = loss_process_ != nullptr
                           ? loss_process_->drop(sim_.now(), rng_)
                           : rng_.bernoulli(loss_rate_);
  if (dropped) {
    if (counters_ != nullptr) counters_->on_link_drop(index_, type);
    obs_.drops.add();
    return;
  }
  Node* target = env.dir == Direction::kToDest ? downstream_ : upstream_;
  if (target == nullptr) return;
  const std::size_t copies =
      dup_prob_ > 0.0 && rng_.bernoulli(dup_prob_) ? 2 : 1;
  if (copies == 2) obs_.dup_copies.add();
  for (std::size_t c = 0; c < copies; ++c) {
    sim_.after(draw_delay(), [target, env] { target->deliver(env); });
  }
}

}  // namespace paai::sim
