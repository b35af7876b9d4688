// Shared agent machinery: everything the seven protocols' agents do the
// same way has one owner here.
//
//   * Wire helpers: envelope() / originate() encode a message into the
//     pooled wire buffer the simulator carries (sim::Wire::of).
//   * decode_fresh(): the one data-packet intake of every relay and
//     destination — parse, enforce the §5/§6 phase-1 freshness window,
//     and take H(m) from the wire buffer (data_id()), where the source
//     sets it, so honest traffic is hashed once per packet.
//   * The destination ack a_d = [H(m)]_{K_d}, the ack-driven protocols'
//     per-node state horizon, and full-ack's local reports (which
//     Combination 1 shares).
//   * SourceAgent: the source skeleton. It owns the send loop, the
//     Scorer, the receive dispatch, the probe send, and the onion-table
//     credit rules (onion decision, contiguous-ack prefix). It scores
//     only through record(): each forensic event it logs is first
//     applied to its Scorer.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/onion.h"
#include "net/packet.h"
#include "protocols/context.h"
#include "protocols/pending.h"
#include "protocols/score.h"
#include "sim/node.h"

namespace paai::protocols {

template <class Msg>
sim::PacketEnv envelope(const Msg& msg, sim::Direction dir) {
  return sim::PacketEnv{sim::Wire::of(msg), msg.wire_size(), dir};
}

template <class Msg>
void originate(sim::Node& node, sim::Direction dir, const Msg& msg) {
  node.originate(dir, sim::Wire::of(msg), msg.wire_size());
}

/// A data packet as a relay or destination accepts it.
struct DecodedData {
  net::DataPacket packet;
  net::PacketId id;
};

/// H(m) of `pkt`, the data packet decoded from `env`: the id on its wire
/// buffer when the source set one, else a fresh hash (a tampered copy, or
/// a wire built from bytes).
net::PacketId data_id(const ProtocolContext& ctx, const sim::PacketEnv& env,
                      const net::DataPacket& pkt);

/// Parses a data packet and checks its timestamp against `node`'s local
/// clock: older than the freshness window is discarded (which is what
/// defeats the withhold-until-probed attack), and slightly-future
/// timestamps are tolerated up to the same bound (peer clock ahead of
/// ours). H(m) (data_id()) is taken only for packets that pass.
std::optional<DecodedData> decode_fresh(const ProtocolContext& ctx,
                                        sim::Node& node,
                                        const sim::PacketEnv& env);

/// a_d = [H(m)]_{K_d}: the MAC input is the packet identifier.
crypto::Mac dest_ack_tag(const ProtocolContext& ctx, const net::PacketId& id);

/// How long a node of an ack-driven protocol (full-ack, PAAI-2, sig-ack)
/// keeps a packet's state: a probe (sent after the source's ack timeout,
/// <= r_0 + slack) reaches F_i a fixed interval after the data did, and
/// the node then needs r_i for the downstream response. Deeper nodes
/// therefore hold state slightly shorter — the position slope of
/// Figure 3(c).
sim::SimDuration state_horizon(const ProtocolContext& ctx,
                               std::size_t node_index);

/// Full-ack / Combination 1 onion reports: a relay's layer carries
/// R_i = <i || H(m)> (paai1_local_report), the destination additionally
/// embeds its ack tag: R_d = <d || H(m) || a_d>.
Bytes fullack_dest_report(const ProtocolContext& ctx, const net::PacketId& id);
bool fullack_report_ok(const ProtocolContext& ctx, std::uint8_t index,
                       ByteView report, const net::PacketId& id);

/// Node `index`'s onion layer over `report`: a fresh onion, or one more
/// layer around `inner`.
Bytes onion_layer(const ProtocolContext& ctx, std::size_t index,
                  ByteView report);
Bytes onion_layer(const ProtocolContext& ctx, std::size_t index,
                  ByteView report, ByteView inner);

/// Per-packet source state of the onion-table protocols: whether the
/// packet was probed, the verified per-node acks (bit i = F_i), and the
/// sequence number sig-ack signs under.
struct ProbeRound {
  bool probed = false;
  std::uint32_t ack_bits = 0;
  std::uint64_t seq = 0;
};

/// Pending type of a source that keeps no per-packet state.
struct NoPending {};

/// The source skeleton shared by all seven protocols. `Derived` supplies
/// the per-packet hooks as plain members (static dispatch — no virtual
/// call on the per-packet path):
///   bool before_send(id, seq)             state recorded before m leaves;
///                                         the result goes to after_send
///   void after_send(id, seq, flag)        sampling/timer decisions
///   void on_dest_ack / on_report / on_fl_report(msg)   (optional)
///   void on_probe_timeout(id)             (protocols that send_probe())
/// A hook's place relative to the originate is part of its protocol's
/// event schedule: each protocol's originate / log_event / timer order
/// is pinned by tests/protocol_test.cc's GoldenRun digests.
template <class Derived, class Pending = ProbeRound>
class SourceAgent : public sim::Agent {
 public:
  void start() override {
    if constexpr (!std::is_same_v<Pending, NoPending>) {
      pending_.attach(node(), ctx_.r0() / 2);
    }
    node().sim().after(send_period_, [this] { send_next(); });
  }

  void on_packet(const sim::PacketEnv& env) override {
    const auto type = net::peek_type(env.view());
    if (type == net::PacketType::kDestAck) {
      if (const auto ack = net::DestAck::decode(env.view())) {
        ctx_.metrics().dest_acks_received.add();
        self().on_dest_ack(*ack);
      }
    } else if (type == net::PacketType::kReportAck) {
      if (const auto ack = net::ReportAck::decode(env.view())) {
        ctx_.metrics().report_acks_received.add();
        self().on_report(*ack);
      }
    } else if (type == net::PacketType::kFlReport) {
      if (const auto report = net::FlReport::decode(env.view())) {
        ctx_.metrics().fl_reports_received.add();
        self().on_fl_report(*report);
      }
    }
  }

  /// The identification verdict's read side.
  const Scorer& scorer() const { return scorer_; }

 protected:
  SourceAgent(const ProtocolContext& ctx, ProtocolKind protocol)
      : ctx_(ctx),
        scorer_(protocol, ctx.d(), ctx.params().blame),
        pending_(nullptr),
        send_period_(static_cast<sim::SimDuration>(
            static_cast<double>(sim::kSecond) / ctx.params().send_rate_pps)) {}

  // Default receive hooks: a protocol that never expects a message type
  // ignores it.
  void on_dest_ack(const net::DestAck&) {}
  void on_report(const net::ReportAck&) {}
  void on_fl_report(const net::FlReport&) {}

  /// Scores and logs one source event: the Scorer applies it (and fills
  /// in a score event's post-state payload), then the log records it.
  void record(obs::EventKind kind, std::uint64_t a, std::uint64_t b = 0,
              std::int32_t link = -1, double value = 0.0) {
    obs::Event e;
    e.kind = kind;
    e.a = a;
    e.b = b;
    e.link = link;
    e.value = value;
    scorer_.apply(e);
    ctx_.log_event(node(), e.kind, e.link, e.a, e.b, e.value);
  }
  void record(obs::EventKind kind, const net::PacketId& id,
              std::uint64_t b = 0, std::int32_t link = -1,
              double value = 0.0) {
    record(kind, obs::event_id64(id.data()), b, link, value);
  }

  /// Starts tracking `id` until now + `horizon`.
  void track(const net::PacketId& id, Pending state,
             sim::SimDuration horizon) {
    const sim::SimTime now = node().sim().now();
    pending_.purge(now);
    pending_.put(id, std::move(state), now + horizon);
  }

  /// Originates a probe for `id` (already encoded in `wire`), logs it with
  /// `b`, and arms the protocol's probe timeout after `wait`.
  void send_probe(const net::PacketId& id, sim::Wire wire,
                  std::size_t wire_size, sim::SimDuration wait,
                  std::uint64_t b = 0) {
    node().originate(sim::Direction::kToDest, std::move(wire), wire_size);
    ctx_.metrics().probes_sent.add();
    record(obs::EventKind::kProbeSend, id, b);
    node().sim().after(wait, [this, id] { self().on_probe_timeout(id); });
  }

  // ---- onion-table protocols (full-ack, PAAI-1, Comb-1, sig-ack) ----

  /// The destination's ack for `id` did not arrive in time: mark the
  /// round probed and probe, resolving after `wait`.
  void probe_missing_ack(const net::PacketId& id, sim::SimDuration wait) {
    Pending* p = pending_.find(id);
    if (p == nullptr || p->probed) return;
    p->probed = true;
    record(obs::EventKind::kAckTimeout, id);
    net::Probe probe;
    probe.data_id = id;
    send_probe(id, sim::Wire::of(probe), probe.wire_size(), wait);
  }

  bool dest_ack_ok(const net::DestAck& ack) const {
    const crypto::Mac expected = dest_ack_tag(ctx_, ack.data_id);
    return ct_equal(ByteView(expected.data(), expected.size()),
                    ByteView(ack.tag.data(), ack.tag.size()));
  }

  void credit_clean(const net::PacketId& id) {
    record(obs::EventKind::kScoreClean, id);
  }

  void credit_blame(const net::PacketId& id, std::size_t link) {
    record(obs::EventKind::kScoreBlame, id, 0, static_cast<std::int32_t>(link));
  }

  /// The onion-report decision (§4, §6.1 phases 4-5): verify the onion
  /// for `ack.data_id` and blame the link after the last valid layer.
  void credit_onion(
      const net::ReportAck& ack,
      const std::function<bool(std::uint8_t, ByteView)>& report_ok) {
    const net::PacketId& id = ack.data_id;
    record(obs::EventKind::kAckRecv, id, /*b=*/1);
    const auto result = net::onion_verify(
        ctx_.crypto(), ctx_.key_vector(), ctx_.d(),
        ByteView(ack.report.data(), ack.report.size()), report_ok);
    record(obs::EventKind::kOnionDecode, id, result.valid_layers);
    if (result.valid_layers == 0) {
      // Not even F_1's layer authenticates: indistinguishable from an
      // injected forgery. Acting on it would let any downstream
      // compromised node incriminate l_0 at will, so discard it; genuine
      // F_1 silence is handled by the probe timeout (which blames l_0).
      return;
    }
    if (result.valid_layers >= ctx_.d()) {
      // The onion originates at the destination: the data arrived.
      credit_clean(id);
    } else {
      credit_blame(id, result.valid_layers);
    }
    pending_.erase(id);
  }

  /// Independent (non-onion) acks: blame the link after the deepest
  /// contiguous prefix F_1..F_k of verified acks in `ack_bits`. This is
  /// exactly the rule independent acks force on the source — and exactly
  /// why they are framable (bench_ablation).
  void credit_prefix(const net::PacketId& id, std::uint32_t ack_bits) {
    std::size_t k = 0;
    while (k < ctx_.d() && (ack_bits >> (k + 1)) & 1u) ++k;
    if (k >= ctx_.d()) {
      credit_clean(id);
    } else {
      credit_blame(id, k);
    }
    pending_.erase(id);
  }

  const ProtocolContext& ctx_;
  Scorer scorer_;
  PendingStore<Pending> pending_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  /// One send period: m = <seq || timestamp || payload> goes out between
  /// the protocol's two hooks.
  void send_next() {
    if (scorer_.packets_sent() >= ctx_.params().total_packets) return;

    net::DataPacket pkt;
    pkt.seq = scorer_.packets_sent();
    pkt.timestamp_ns = static_cast<std::uint64_t>(node().local_now());
    pkt.payload_size = ctx_.params().payload_size;
    const net::PacketId id = pkt.id(ctx_.crypto());

    const bool flag = self().before_send(id, pkt.seq);
    sim::Wire wire = sim::Wire::of(pkt);
    wire.set_id(id);
    node().originate(sim::Direction::kToDest, std::move(wire),
                     pkt.wire_size());
    record(obs::EventKind::kDataSend, id, pkt.seq);  // counts the packet
    self().after_send(id, pkt.seq, flag);

    if (scorer_.packets_sent() < ctx_.params().total_packets) {
      node().sim().after(send_period_, [this] { send_next(); });
    }
  }

  sim::SimDuration send_period_;
};

}  // namespace paai::protocols
