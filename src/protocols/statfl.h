// Statistical fault localization — our implementation of the baseline the
// paper compares against (Barak, Goldberg, Xiao, EUROCRYPT'08 [7]).
//
// Time is divided into intervals of T data packets. Every node F_i keeps a
// single counter: how many data packets of the current interval were
// "sampled" by PRF_{k_i}(H(m)) < p, where k_i is a sampling key shared
// only between S and F_i (so no other node — compromised or not — can
// predict which packets F_i counts; dropping selectively around another
// node's sample set is impossible). At the end of an interval the source
// requests one onion report carrying every node's counter; per-link loss
// rates are estimated from adjacent counter ratios, which converge by the
// law of large numbers over the sampled sub-streams.
//
// The protocol's per-packet overhead is essentially zero (O(1) counters,
// two control packets per interval) — and its detection rate is orders of
// magnitude slower than PAAI-1's, which is precisely the trade-off the
// paper's Tables 1-2 illustrate.
#pragma once

#include "protocols/agent.h"
#include "protocols/relay_base.h"

namespace paai::protocols {

class StatFlSource final : public SourceAgent<StatFlSource, NoPending> {
 public:
  explicit StatFlSource(const ProtocolContext& ctx)
      : SourceAgent(ctx, ProtocolKind::kStatisticalFl) {}

 private:
  friend SourceAgent;

  bool before_send(const net::PacketId& id, std::uint64_t seq);
  void after_send(const net::PacketId& id, std::uint64_t seq, bool counted);
  void request_report(std::uint64_t interval, int attempt);
  void on_fl_report(const net::FlReport& report);

  std::uint64_t own_count_ = 0;       // current interval, source's stream
  std::uint64_t interval_ = 0;        // current interval number
  std::uint64_t awaiting_ = 0;        // interval with an outstanding request
  bool awaiting_active_ = false;
  std::uint64_t awaiting_own_count_ = 0;
};

class StatFlRelay final : public RelayBase {
 public:
  explicit StatFlRelay(const ProtocolContext& ctx) : RelayBase(ctx) {}

  void on_packet(const sim::PacketEnv& env) override;

  /// A crashed node loses its volatile interval counters; the interval in
  /// flight under-reports and the source's per-interval estimate absorbs
  /// it (bounded by one interval's worth of samples — the chaos suite
  /// checks it stays below the accusation threshold at paper scale).
  void on_crash() override {
    count_ = 0;
    snapshot_ = 0;
    snapshot_interval_ = ~0ULL;
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t snapshot_ = 0;
  std::uint64_t snapshot_interval_ = ~0ULL;
};

class StatFlDestination final : public sim::Agent {
 public:
  explicit StatFlDestination(const ProtocolContext& ctx) : ctx_(ctx) {}

  void on_packet(const sim::PacketEnv& env) override;

 private:
  const ProtocolContext& ctx_;
  std::uint64_t count_ = 0;
  std::uint64_t last_snapshot_ = 0;
  std::uint64_t last_interval_ = ~0ULL;
};

/// Whether node `index`'s sampling stream counts this packet.
bool statfl_counts(const ProtocolContext& ctx, std::size_t index,
                   const net::PacketId& id);

/// The FL local report R_i = <i || interval || count>.
Bytes statfl_local_report(std::size_t index, std::uint64_t interval,
                          std::uint64_t count);

}  // namespace paai::protocols
