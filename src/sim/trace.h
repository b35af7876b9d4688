// Traffic and loss accounting.
//
// TrafficCounters aggregates what crossed the links: packets and bytes per
// packet type (for the communication-overhead results, §7.3) and natural /
// malicious drop counts per link (ground truth for tests and debugging —
// never visible to the protocols).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.h"

namespace paai::sim {

struct TypeCounter {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

class TrafficCounters {
 public:
  explicit TrafficCounters(std::size_t num_links = 0)
      : link_drops_(num_links),
        data_tx_(num_links),
        data_drops_(num_links) {}

  void on_transmit(net::PacketType type, std::size_t bytes,
                   std::size_t link_index);
  /// A drop of a wire whose type byte does not parse (`type` empty)
  /// counts on the link but never as a data drop.
  void on_link_drop(std::size_t link_index,
                    std::optional<net::PacketType> type);

  const TypeCounter& by_type(net::PacketType type) const;

  /// Bytes of everything that is not application data, divided by data
  /// bytes — the paper's "communication overhead per data packet".
  double overhead_ratio() const;

  /// Control packets (everything except data) per data packet.
  double control_packets_per_data() const;

  std::uint64_t total_packets() const;
  std::uint64_t total_bytes() const;
  std::uint64_t drops_on_link(std::size_t link_index) const;

  /// Ground truth (invisible to the protocols): data packets that entered
  /// / were dropped on a given link. data_tx(d-1) - data_drops(d-1) is the
  /// exact number of data packets delivered to the destination.
  std::uint64_t data_tx(std::size_t link_index) const;
  std::uint64_t data_drops(std::size_t link_index) const;

  /// True per-traversal data loss rate of a link.
  double true_link_loss(std::size_t link_index) const;

  void reset();

 private:
  static constexpr std::size_t kNumTypes = 6;
  static std::size_t slot(net::PacketType type) {
    return static_cast<std::size_t>(type) - 1;
  }

  std::array<TypeCounter, kNumTypes> counters_{};
  std::vector<std::uint64_t> link_drops_;
  std::vector<std::uint64_t> data_tx_;
  std::vector<std::uint64_t> data_drops_;
};

}  // namespace paai::sim
