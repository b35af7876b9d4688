// The full-ack strawman protocol (§4).
//
// Every data packet is acknowledged by the destination with
// a_d = [H(m)]_{K_d}. If the source misses that ack within the path RTT
// bound, it sends an onion-report request (probe); every node still holding
// state for H(m) contributes a MAC layer, and the first missing/invalid
// layer pinpoints the faulty link for *that very packet* — the finest
// detection granularity of all the protocols, at one control packet (plus
// an O(d) onion on loss) per data packet.
//
// Storage note: the paper's ideal-case bound (§7.4) assumes a relay can
// release its per-packet state once the destination ack passes. We found
// that optimization unsound: relays cannot authenticate a_d, so corrupted
// acks injected by an adversary would flush honest state and turn the next
// probe round into a false accusation of l_0 (see DESIGN.md §"findings").
// Our relays therefore hold state for the full probe horizon; the paper's
// worst-case bound still applies.
#pragma once

#include "crypto/sampler.h"
#include "protocols/agent.h"
#include "protocols/relay_base.h"

namespace paai::protocols {

class FullAckSource : public SourceAgent<FullAckSource> {
 public:
  explicit FullAckSource(const ProtocolContext& ctx)
      : FullAckSource(ctx, /*sampled_mode=*/false) {}

 protected:
  /// sampled_mode = Combination 1 (§10): only a K_d-keyed sampled
  /// fraction of the packets is monitored (the destination acks exactly
  /// those), and a probe resolves after r_0 + 2 slack where full-ack
  /// resolves after r_0 + slack.
  FullAckSource(const ProtocolContext& ctx, bool sampled_mode);

 private:
  friend SourceAgent;

  bool before_send(const net::PacketId& id, std::uint64_t seq);
  void after_send(const net::PacketId& id, std::uint64_t seq, bool monitored);
  void on_probe_timeout(const net::PacketId& id);
  void on_dest_ack(const net::DestAck& ack);
  void on_report(const net::ReportAck& ack);

  bool sampled_mode_;
  crypto::SecureSampler sampler_;  // keyed with K_d (sampled mode only)
  sim::SimDuration probe_wait_;
};

class FullAckRelay final : public OnionRelay {
 public:
  explicit FullAckRelay(const ProtocolContext& ctx)
      : OnionRelay(ctx, /*paai1=*/false) {}
};

class FullAckDestination : public sim::Agent {
 public:
  explicit FullAckDestination(const ProtocolContext& ctx)
      : FullAckDestination(ctx, /*ack_only_sampled=*/false) {}

  void start() override;
  void on_packet(const sim::PacketEnv& env) override;

 protected:
  /// ack_only_sampled = Combination 1: D evaluates the K_d-keyed sampler
  /// itself; unsampled packets get no ack and will never be probed.
  FullAckDestination(const ProtocolContext& ctx, bool ack_only_sampled);

 private:
  struct DState {};

  const ProtocolContext& ctx_;
  bool ack_only_sampled_;
  crypto::SecureSampler sampler_;
  PendingStore<DState> pending_;
};

}  // namespace paai::protocols
