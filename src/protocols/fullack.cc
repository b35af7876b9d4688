#include "protocols/fullack.h"

#include <cstring>

#include "util/wire.h"

namespace paai::protocols {

namespace {

/// a_d = [H(m)]_{K_d}: the MAC input is the packet identifier.
crypto::Mac dest_ack_tag(const ProtocolContext& ctx, const net::PacketId& id) {
  return ctx.crypto().mac(ctx.keys().node_key(ctx.d()),
                          ByteView(id.data(), id.size()));
}

std::shared_ptr<const Bytes> shared_wire(Bytes b) {
  return std::make_shared<const Bytes>(std::move(b));
}

/// How long any node must remember a packet id: until no probe (sent after
/// the source's ack timeout) can still arrive, plus response time.
sim::SimDuration state_horizon(const ProtocolContext& ctx,
                               std::size_t node_index) {
  // A probe (sent after the source's ack timeout, <= r_0 + slack) reaches
  // F_i a fixed interval after the data did; the node then needs r_i for
  // the downstream response. Deeper nodes therefore hold state slightly
  // shorter — the position slope of Figure 3(c).
  return ctx.r0() + ctx.rtt(node_index) + 3 * ctx.timer_slack();
}

}  // namespace

std::optional<DecodedData> decode_data(const ProtocolContext& ctx,
                                       ByteView wire) {
  const auto pkt = net::DataPacket::decode(wire);
  if (!pkt) return std::nullopt;
  return DecodedData{*pkt, pkt->id(ctx.crypto())};
}

// ---------------------------------------------------------------- source

// Blame exposure per monitored packet: a *data* drop on l_i is always
// localized there (1 traversal); a lost destination ack resolves to
// "clean" via the onion round (the data demonstrably arrived); the probe
// and onion legs add exposure only in rounds that actually probed — hence
// the dynamic probe_extra term (see ScoreTable).
FullAckSource::FullAckSource(const ProtocolContext& ctx)
    : ctx_(ctx),
      score_(ctx.d(), /*traversals=*/1.0, /*probe_extra=*/2.0),
      pending_(nullptr),
      send_period_(static_cast<sim::SimDuration>(
          static_cast<double>(sim::kSecond) / ctx.params().send_rate_pps)) {
  score_.set_blame(ctx.params().blame);
}

void FullAckSource::start() {
  pending_.attach(node(), ctx_.r0() / 2);
  node().sim().after(send_period_, [this] { send_next(); });
}

void FullAckSource::send_next() {
  if (sent_ >= ctx_.params().total_packets) return;

  net::DataPacket pkt;
  pkt.seq = sent_;
  pkt.timestamp_ns = static_cast<std::uint64_t>(node().local_now());
  pkt.payload_size = ctx_.params().payload_size;
  const net::PacketId id = pkt.id(ctx_.crypto());

  pending_.purge(node().sim().now());
  pending_.put(id, Pending{},
               node().sim().now() + 3 * ctx_.r0() + 8 * ctx_.timer_slack());
  node().originate(sim::Direction::kToDest, shared_wire(pkt.encode()),
                   pkt.wire_size());
  ctx_.log_event(node(), obs::EventKind::kDataSend, -1,
                 obs::event_id64(id.data()), pkt.seq);
  ++sent_;

  node().sim().after(ctx_.r0() + ctx_.timer_slack(),
                     [this, id] { on_ack_timeout(id); });
  if (sent_ < ctx_.params().total_packets) {
    node().sim().after(send_period_, [this] { send_next(); });
  }
}

void FullAckSource::on_ack_timeout(const net::PacketId& id) {
  Pending* p = pending_.find(id);
  if (p == nullptr || p->probed) return;
  p->probed = true;
  score_.note_probe();
  ctx_.log_event(node(), obs::EventKind::kAckTimeout, -1,
                 obs::event_id64(id.data()));

  net::Probe probe;
  probe.data_id = id;
  node().originate(sim::Direction::kToDest, shared_wire(probe.encode()),
                   probe.wire_size());
  ctx_.metrics().probes_sent.add();
  ctx_.log_event(node(), obs::EventKind::kProbeSend, -1,
                 obs::event_id64(id.data()));
  node().sim().after(ctx_.r0() + ctx_.timer_slack(),
                     [this, id] { on_probe_timeout(id); });
}

void FullAckSource::on_probe_timeout(const net::PacketId& id) {
  if (pending_.find(id) == nullptr) return;  // resolved by a report
  // No report at all: the loss is on the source's own downstream link
  // (PAAI-1 footnote 8 reasoning applies here identically).
  score_.blame(0);
  ctx_.log_event(node(), obs::EventKind::kScoreBlame, 0,
                 obs::event_id64(id.data()), score_.observations(),
                 score_.theta(0));
  pending_.erase(id);
}

void FullAckSource::on_packet(const sim::PacketEnv& env) {
  const auto type = net::peek_type(env.view());
  if (!type) return;
  if (*type == net::PacketType::kDestAck) {
    if (const auto ack = net::DestAck::decode(env.view())) {
      handle_dest_ack(*ack);
    }
  } else if (*type == net::PacketType::kReportAck) {
    if (const auto ack = net::ReportAck::decode(env.view())) {
      handle_report(*ack);
    }
  }
}

void FullAckSource::handle_dest_ack(const net::DestAck& ack) {
  ctx_.metrics().dest_acks_received.add();
  Pending* p = pending_.find(ack.data_id);
  if (p == nullptr) return;
  const crypto::Mac expected = dest_ack_tag(ctx_, ack.data_id);
  if (!ct_equal(ByteView(expected.data(), expected.size()),
                ByteView(ack.tag.data(), ack.tag.size()))) {
    return;  // forged/corrupted ack: keep waiting, the timeout will probe
  }
  // Delivery confirmed. A probe may already be in flight (late ack); the
  // outcome is clean either way.
  ctx_.log_event(node(), obs::EventKind::kAckRecv, -1,
                 obs::event_id64(ack.data_id.data()), /*b=*/0);
  score_.add_clean();
  ++delivered_;
  ctx_.log_event(node(), obs::EventKind::kScoreClean, -1,
                 obs::event_id64(ack.data_id.data()), score_.observations());
  pending_.erase(ack.data_id);
}

bool FullAckSource::report_ok(std::uint8_t index, ByteView report,
                              const net::PacketId& id) const {
  // R_i = <i || H(m)>; the destination additionally embeds its original
  // ack tag: R_d = <d || H(m) || a_d>.
  const std::size_t base = 1 + id.size();
  if (report.size() < base) return false;
  if (report[0] != index) return false;
  if (std::memcmp(report.data() + 1, id.data(), id.size()) != 0) return false;
  if (index == ctx_.d()) {
    if (report.size() != base + crypto::kMacSize) return false;
    const crypto::Mac expected = dest_ack_tag(ctx_, id);
    return ct_equal(ByteView(expected.data(), expected.size()),
                    report.subspan(base));
  }
  return report.size() == base;
}

void FullAckSource::handle_report(const net::ReportAck& ack) {
  ctx_.metrics().report_acks_received.add();
  Pending* p = pending_.find(ack.data_id);
  if (p == nullptr || !p->probed) return;

  const net::PacketId id = ack.data_id;
  ctx_.log_event(node(), obs::EventKind::kAckRecv, -1,
                 obs::event_id64(id.data()), /*b=*/1);
  const auto result = net::onion_verify(
      ctx_.crypto(), ctx_.key_vector(), ctx_.d(),
      ByteView(ack.report.data(), ack.report.size()),
      [this, &id](std::uint8_t i, ByteView r) { return report_ok(i, r, id); });

  ctx_.log_event(node(), obs::EventKind::kOnionDecode, -1,
                 obs::event_id64(id.data()), result.valid_layers);
  if (result.valid_layers == 0) {
    // Not even F_1's layer authenticates: this is indistinguishable from
    // an injected forgery. Acting on it would let any downstream
    // compromised node incriminate l_0 at will, so discard it; genuine
    // F_1 silence is handled by the probe timeout (which blames l_0).
    return;
  }
  if (result.valid_layers >= ctx_.d()) {
    // The onion originates at the destination: the data packet arrived;
    // only its ack was lost (and the onion already localized nothing).
    score_.add_clean();
    ++delivered_;
    ctx_.log_event(node(), obs::EventKind::kScoreClean, -1,
                   obs::event_id64(id.data()), score_.observations());
  } else {
    score_.blame(result.valid_layers);
    ctx_.log_event(node(), obs::EventKind::kScoreBlame,
                   static_cast<std::int32_t>(result.valid_layers),
                   obs::event_id64(id.data()), score_.observations(),
                   score_.theta(result.valid_layers));
  }
  pending_.erase(id);
}

double FullAckSource::observed_e2e_rate() const {
  if (sent_ == 0) return 0.0;
  return 1.0 - static_cast<double>(delivered_) / static_cast<double>(sent_);
}

// ----------------------------------------------------------------- relay

void FullAckRelay::start() { pending_.attach(node(), ctx().r0() / 2); }

Bytes FullAckRelay::local_report(const net::PacketId& id) const {
  WireWriter w(1 + id.size());
  w.u8(static_cast<std::uint8_t>(node().index()));
  w.raw(ByteView(id.data(), id.size()));
  return std::move(w).take();
}

void FullAckRelay::on_packet(const sim::PacketEnv& env) {
  pending_.purge(node().sim().now());
  const auto type = net::peek_type(env.view());
  if (!type) return;

  switch (*type) {
    case net::PacketType::kData: {
      const auto data = decode_data(ctx(), env.view());
      if (!data || !fresh(data->packet)) return;
      pending_.put(data->id, RState{},
                   node().sim().now() + state_horizon(ctx(), node().index()));
      relay(env);
      break;
    }
    case net::PacketType::kDestAck: {
      const auto ack = net::DestAck::decode(env.view());
      if (!ack || pending_.find(ack->data_id) == nullptr) return;
      // Note: the state is NOT released here even though the paper's
      // ideal-case storage analysis assumes it could be. Relays cannot
      // authenticate a_d (only S and D hold K_d), so releasing on sight
      // would let an adversary flush honest relays' state by forwarding
      // *corrupted* acks, after which a probe round yields no report and
      // blames honest l_0. Holding for the full horizon closes that
      // incrimination channel at a bounded storage cost.
      relay(env);
      break;
    }
    case net::PacketType::kProbe: {
      const auto probe = net::Probe::decode(env.view());
      if (!probe) return;
      RState* st = pending_.find(probe->data_id);
      if (st == nullptr) {
        // Unknown identifier: a withheld-release decision may still be
        // owed to the strategy, but an honest node ignores the probe.
        relay(sim::PacketEnv{env.wire, env.wire_size, env.dir});
        return;
      }
      st->probe_seen = true;
      const auto wait = ctx().rtt(node().index()) + ctx().timer_slack();
      pending_.extend(probe->data_id, node().sim().now() + wait +
                                          2 * ctx().timer_slack());
      relay(env);
      const net::PacketId id = probe->data_id;
      node().sim().after(wait, [this, id] { on_wait_timeout(id); });
      break;
    }
    case net::PacketType::kReportAck: {
      const auto ack = net::ReportAck::decode(env.view());
      if (!ack) return;
      RState* st = pending_.find(ack->data_id);
      if (st == nullptr || !st->probe_seen || st->responded) return;
      st->responded = true;
      const Bytes report = local_report(ack->data_id);
      net::ReportAck wrapped;
      wrapped.data_id = ack->data_id;
      wrapped.report = net::onion_wrap(
          ctx().crypto(), ctx().keys().node_key(node().index()),
          static_cast<std::uint8_t>(node().index()),
          ByteView(report.data(), report.size()),
          ByteView(ack->report.data(), ack->report.size()));
      relay(sim::PacketEnv{std::make_shared<const Bytes>(wrapped.encode()),
                           wrapped.wire_size(), sim::Direction::kToSource});
      pending_.erase(ack->data_id);
      break;
    }
    default:
      relay(env);
      break;
  }
}

void FullAckRelay::on_wait_timeout(const net::PacketId& id) {
  RState* st = pending_.find(id);
  if (st == nullptr || st->responded) return;
  st->responded = true;
  const Bytes report = local_report(id);
  net::ReportAck ack;
  ack.data_id = id;
  ack.report = net::onion_originate(
      ctx().crypto(), ctx().keys().node_key(node().index()),
      static_cast<std::uint8_t>(node().index()),
      ByteView(report.data(), report.size()));
  relay(sim::PacketEnv{std::make_shared<const Bytes>(ack.encode()),
                       ack.wire_size(), sim::Direction::kToSource});
  pending_.erase(id);
}

// ----------------------------------------------------------- destination

void FullAckDestination::start() { pending_.attach(node(), ctx_.r0() / 2); }

void FullAckDestination::on_packet(const sim::PacketEnv& env) {
  pending_.purge(node().sim().now());
  const auto type = net::peek_type(env.view());
  if (!type) return;

  if (*type == net::PacketType::kData) {
    const auto data = decode_data(ctx_, env.view());
    if (!data) return;
    // The destination enforces freshness like everyone else.
    const sim::SimTime now = node().local_now();
    const auto age = now - static_cast<sim::SimTime>(data->packet.timestamp_ns);
    if (age > ctx_.freshness_window() || age < -ctx_.freshness_window()) {
      return;
    }
    pending_.put(data->id, DState{},
                 node().sim().now() + state_horizon(ctx_, ctx_.d()));
    net::DestAck ack;
    ack.data_id = data->id;
    ack.tag = dest_ack_tag(ctx_, data->id);
    node().originate(sim::Direction::kToSource,
                     std::make_shared<const Bytes>(ack.encode()),
                     ack.wire_size());
  } else if (*type == net::PacketType::kProbe) {
    const auto probe = net::Probe::decode(env.view());
    if (!probe || pending_.find(probe->data_id) == nullptr) return;
    // R_d = <d || H(m) || a_d>.
    WireWriter w(1 + probe->data_id.size() + crypto::kMacSize);
    w.u8(static_cast<std::uint8_t>(ctx_.d()));
    w.raw(ByteView(probe->data_id.data(), probe->data_id.size()));
    const crypto::Mac tag = dest_ack_tag(ctx_, probe->data_id);
    w.raw(ByteView(tag.data(), tag.size()));
    const Bytes report = std::move(w).take();

    net::ReportAck ack;
    ack.data_id = probe->data_id;
    ack.report = net::onion_originate(
        ctx_.crypto(), ctx_.keys().node_key(ctx_.d()),
        static_cast<std::uint8_t>(ctx_.d()),
        ByteView(report.data(), report.size()));
    node().originate(sim::Direction::kToSource,
                     std::make_shared<const Bytes>(ack.encode()),
                     ack.wire_size());
    pending_.erase(probe->data_id);
  }
}

}  // namespace paai::protocols
