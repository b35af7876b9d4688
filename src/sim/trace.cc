#include "sim/trace.h"

namespace paai::sim {

void TrafficCounters::on_transmit(net::PacketType type, std::size_t bytes,
                                  std::size_t link_index) {
  auto& c = counters_[slot(type)];
  ++c.packets;
  c.bytes += bytes;
  if (type == net::PacketType::kData && link_index < data_tx_.size()) {
    ++data_tx_[link_index];
  }
}

void TrafficCounters::on_link_drop(std::size_t link_index,
                                   std::optional<net::PacketType> type) {
  if (link_index < link_drops_.size()) ++link_drops_[link_index];
  if (type == net::PacketType::kData && link_index < data_drops_.size()) {
    ++data_drops_[link_index];
  }
}

std::uint64_t TrafficCounters::data_tx(std::size_t link_index) const {
  return link_index < data_tx_.size() ? data_tx_[link_index] : 0;
}

std::uint64_t TrafficCounters::data_drops(std::size_t link_index) const {
  return link_index < data_drops_.size() ? data_drops_[link_index] : 0;
}

double TrafficCounters::true_link_loss(std::size_t link_index) const {
  const std::uint64_t tx = data_tx(link_index);
  if (tx == 0) return 0.0;
  return static_cast<double>(data_drops(link_index)) /
         static_cast<double>(tx);
}

const TypeCounter& TrafficCounters::by_type(net::PacketType type) const {
  return counters_[slot(type)];
}

double TrafficCounters::overhead_ratio() const {
  const auto& data = counters_[slot(net::PacketType::kData)];
  if (data.bytes == 0) return 0.0;
  std::uint64_t control = 0;
  for (std::size_t i = 0; i < kNumTypes; ++i) {
    if (i == slot(net::PacketType::kData)) continue;
    control += counters_[i].bytes;
  }
  return static_cast<double>(control) / static_cast<double>(data.bytes);
}

double TrafficCounters::control_packets_per_data() const {
  const auto& data = counters_[slot(net::PacketType::kData)];
  if (data.packets == 0) return 0.0;
  std::uint64_t control = 0;
  for (std::size_t i = 0; i < kNumTypes; ++i) {
    if (i == slot(net::PacketType::kData)) continue;
    control += counters_[i].packets;
  }
  return static_cast<double>(control) / static_cast<double>(data.packets);
}

std::uint64_t TrafficCounters::total_packets() const {
  std::uint64_t n = 0;
  for (const auto& c : counters_) n += c.packets;
  return n;
}

std::uint64_t TrafficCounters::total_bytes() const {
  std::uint64_t n = 0;
  for (const auto& c : counters_) n += c.bytes;
  return n;
}

std::uint64_t TrafficCounters::drops_on_link(std::size_t link_index) const {
  return link_index < link_drops_.size() ? link_drops_[link_index] : 0;
}

void TrafficCounters::reset() {
  counters_ = {};
  for (auto& d : link_drops_) d = 0;
  for (auto& d : data_tx_) d = 0;
  for (auto& d : data_drops_) d = 0;
}

}  // namespace paai::sim
