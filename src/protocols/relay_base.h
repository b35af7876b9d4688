// RelayBase: common machinery for intermediate-node agents.
//
// Every protocol's relay derives from this. It provides
//   * the adversary interposition point: protocol code calls relay()
//     instead of Node::forward(), and a compromised node's Strategy gets to
//     drop / corrupt / withhold the packet. Note the protocol state update
//     happens *before* relay() is called, which yields exactly the paper's
//     §8.1 tactic (b): a node that drops a data packet still answers later
//     ack requests as if it had forwarded it, so its drops are charged to
//     its downstream link; and
//   * the withheld-packet buffer used when a Strategy plays that attack.
// Data packets enter a relay through decode_fresh() (protocols/agent.h),
// which discards stale ones and reads H(m) from the wire buffer;
// relay()'s packet-id and withhold branches read it the same way.
//
// OnionRelay is the relay of the three onion-report protocols (full-ack,
// Combination 1, PAAI-1; §4, §6.1 phase 3): it stores H(m) for every
// fresh data packet; on a probe for a stored id it forwards the probe and
// starts the wait timer r_i + slack; the first onion that comes back from
// downstream gets this node's layer R_i = <i || H(m)> wrapped around it,
// and if the timer fires first the node originates the onion itself.
#pragma once

#include <unordered_map>

#include "adversary/strategy.h"
#include "net/packet.h"
#include "protocols/context.h"
#include "protocols/pending.h"
#include "sim/node.h"

namespace paai::protocols {

class RelayBase : public sim::Agent {
 public:
  void set_strategy(adversary::Strategy* strategy) { strategy_ = strategy; }
  adversary::Strategy* strategy() const { return strategy_; }

 protected:
  explicit RelayBase(const ProtocolContext& ctx) : ctx_(ctx) {}

  const ProtocolContext& ctx() const { return ctx_; }

  /// Forwards `env` in its travel direction, subject to the adversary
  /// strategy (if any). Honest nodes always forward. Returns true iff the
  /// packet (or a corrupted copy) actually went out — callers that release
  /// state "because the packet passed" must check this, otherwise a
  /// compromised node that swallowed the packet would also forget it and
  /// shift later blame onto its honest upstream neighbour.
  bool relay(const sim::PacketEnv& env);

 private:
  void handle_withheld_release(const sim::PacketEnv& probe_env,
                               const net::PacketId& id);

  const ProtocolContext& ctx_;
  adversary::Strategy* strategy_ = nullptr;
  std::unordered_map<net::PacketId, sim::PacketEnv, PacketIdHash> withheld_;
};

class OnionRelay : public RelayBase {
 public:
  void start() override;
  void on_packet(const sim::PacketEnv& env) override;

 protected:
  /// `paai1` selects PAAI-1's relay: state for an unprobed packet lives
  /// until no probe can still arrive, destination acks (which PAAI-1 never
  /// sends) are forwarded blindly, and the probe-auth / independent-ack
  /// switches of ProtocolParams apply. Otherwise the full-ack relay:
  /// state lives for the ack-driven state_horizon(), and a destination
  /// ack is forwarded only for a packet this node holds — but never
  /// releases that state. Relays cannot authenticate a_d (only S and D
  /// hold K_d), so releasing on sight would let an adversary flush honest
  /// relays' state with corrupted acks, after which a probe round yields
  /// no report and blames honest l_0 (DESIGN.md §"findings").
  OnionRelay(const ProtocolContext& ctx, bool paai1);

 private:
  struct RState {
    bool probe_seen = false;
    bool responded = false;
  };

  void on_probe(const sim::PacketEnv& env);
  void on_report(const sim::PacketEnv& env);
  void on_wait_timeout(const net::PacketId& id);

  const bool paai1_;
  const bool check_probe_auth_;
  const bool independent_acks_;
  sim::SimDuration horizon_ = 0;
  PendingStore<RState> pending_;
};

}  // namespace paai::protocols
