#include "protocols/comb1.h"

#include <cstring>

#include "util/wire.h"

namespace paai::protocols {

namespace {

std::shared_ptr<const Bytes> shared_wire(Bytes b) {
  return std::make_shared<const Bytes>(std::move(b));
}

crypto::Mac dest_ack_tag(const ProtocolContext& ctx, const net::PacketId& id) {
  return ctx.crypto().mac(ctx.keys().node_key(ctx.d()),
                          ByteView(id.data(), id.size()));
}

}  // namespace

// ---------------------------------------------------------------- source

Comb1Source::Comb1Source(const ProtocolContext& ctx)
    : ctx_(ctx),
      sampler_(ctx.crypto(), ctx.keys().destination_key(),
               ctx.params().probe_probability),
      // Same blame-exposure structure as full-ack (see FullAckSource).
      score_(ctx.d(), /*traversals=*/1.0, /*probe_extra=*/2.0),
      pending_(nullptr),
      send_period_(static_cast<sim::SimDuration>(
          static_cast<double>(sim::kSecond) / ctx.params().send_rate_pps)) {
  score_.set_blame(ctx.params().blame);
}

void Comb1Source::start() {
  pending_.attach(node(), ctx_.r0() / 2);
  node().sim().after(send_period_, [this] { send_next(); });
}

void Comb1Source::send_next() {
  if (sent_ >= ctx_.params().total_packets) return;

  net::DataPacket pkt;
  pkt.seq = sent_;
  pkt.timestamp_ns = static_cast<std::uint64_t>(node().local_now());
  pkt.payload_size = ctx_.params().payload_size;
  const net::PacketId id = pkt.id(ctx_.crypto());

  node().originate(sim::Direction::kToDest, shared_wire(pkt.encode()),
                   pkt.wire_size());
  ctx_.log_event(node(), obs::EventKind::kDataSend, -1,
                 obs::event_id64(id.data()), pkt.seq);
  ++sent_;

  // Only K_d-sampled packets are monitored; D acks those unprompted.
  if (sampler_.sampled(ByteView(id.data(), id.size()))) {
    ctx_.log_event(node(), obs::EventKind::kSampleSelect, -1,
                   obs::event_id64(id.data()), pkt.seq);
    pending_.purge(node().sim().now());
    pending_.put(id, Pending{},
                 node().sim().now() + 3 * ctx_.r0() + 8 * ctx_.timer_slack());
    node().sim().after(ctx_.r0() + ctx_.timer_slack(),
                       [this, id] { on_ack_timeout(id); });
  }

  if (sent_ < ctx_.params().total_packets) {
    node().sim().after(send_period_, [this] { send_next(); });
  }
}

void Comb1Source::on_ack_timeout(const net::PacketId& id) {
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
  node().sim().after(ctx_.r0() + 2 * ctx_.timer_slack(),
                     [this, id] { on_probe_timeout(id); });
}

void Comb1Source::on_probe_timeout(const net::PacketId& id) {
  if (pending_.find(id) == nullptr) return;
  score_.blame(0);
  ctx_.log_event(node(), obs::EventKind::kScoreBlame, 0,
                 obs::event_id64(id.data()), score_.observations(),
                 score_.theta(0));
  pending_.erase(id);
}

void Comb1Source::on_packet(const sim::PacketEnv& env) {
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

void Comb1Source::handle_dest_ack(const net::DestAck& ack) {
  ctx_.metrics().dest_acks_received.add();
  Pending* p = pending_.find(ack.data_id);
  if (p == nullptr) return;
  const crypto::Mac expected = dest_ack_tag(ctx_, ack.data_id);
  if (!ct_equal(ByteView(expected.data(), expected.size()),
                ByteView(ack.tag.data(), ack.tag.size()))) {
    return;
  }
  ctx_.log_event(node(), obs::EventKind::kAckRecv, -1,
                 obs::event_id64(ack.data_id.data()), /*b=*/0);
  score_.add_clean();
  ++delivered_;
  ctx_.log_event(node(), obs::EventKind::kScoreClean, -1,
                 obs::event_id64(ack.data_id.data()), score_.observations());
  pending_.erase(ack.data_id);
}

void Comb1Source::handle_report(const net::ReportAck& ack) {
  ctx_.metrics().report_acks_received.add();
  Pending* p = pending_.find(ack.data_id);
  if (p == nullptr || !p->probed) return;

  const net::PacketId id = ack.data_id;
  // Relay layers carry <i || H(m)>; the destination embeds its ack tag:
  // <d || H(m) || a_d> (same formats as the full-ack scheme).
  const auto report_ok = [this, &id](std::uint8_t i, ByteView r) {
    const std::size_t base = 1 + id.size();
    if (r.size() < base || r[0] != i) return false;
    if (std::memcmp(r.data() + 1, id.data(), id.size()) != 0) return false;
    if (i == ctx_.d()) {
      if (r.size() != base + crypto::kMacSize) return false;
      const crypto::Mac expected = dest_ack_tag(ctx_, id);
      return ct_equal(ByteView(expected.data(), expected.size()),
                      r.subspan(base));
    }
    return r.size() == base;
  };

  ctx_.log_event(node(), obs::EventKind::kAckRecv, -1,
                 obs::event_id64(id.data()), /*b=*/1);
  const auto result = net::onion_verify(
      ctx_.crypto(), ctx_.key_vector(), ctx_.d(),
      ByteView(ack.report.data(), ack.report.size()), report_ok);

  ctx_.log_event(node(), obs::EventKind::kOnionDecode, -1,
                 obs::event_id64(id.data()), result.valid_layers);
  if (result.valid_layers == 0) return;  // unauthenticated: ignore
  if (result.valid_layers >= ctx_.d()) {
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

double Comb1Source::observed_e2e_rate() const {
  const std::uint64_t n = score_.observations();
  if (n == 0) return 0.0;
  return 1.0 - static_cast<double>(delivered_) / static_cast<double>(n);
}

// ----------------------------------------------------------- destination

Comb1Destination::Comb1Destination(const ProtocolContext& ctx)
    : ctx_(ctx),
      sampler_(ctx.crypto(), ctx.keys().destination_key(),
               ctx.params().probe_probability),
      pending_(nullptr) {}

void Comb1Destination::start() { pending_.attach(node(), ctx_.r0() / 2); }

void Comb1Destination::on_packet(const sim::PacketEnv& env) {
  pending_.purge(node().sim().now());
  const auto type = net::peek_type(env.view());
  if (!type) return;

  if (*type == net::PacketType::kData) {
    const auto pkt = net::DataPacket::decode(env.view());
    if (!pkt) return;
    const sim::SimTime now = node().local_now();
    const auto age = now - static_cast<sim::SimTime>(pkt->timestamp_ns);
    if (age > ctx_.freshness_window() || age < -ctx_.freshness_window()) {
      return;
    }
    const net::PacketId id = pkt->id(ctx_.crypto());
    // D evaluates the K_d-keyed sampler itself: unsampled packets need no
    // ack and will never be probed.
    if (!sampler_.sampled(ByteView(id.data(), id.size()))) return;
    pending_.put(id, DState{},
                 node().sim().now() + 2 * ctx_.r0() + 4 * ctx_.timer_slack());
    net::DestAck ack;
    ack.data_id = id;
    ack.tag = dest_ack_tag(ctx_, id);
    node().originate(sim::Direction::kToSource, shared_wire(ack.encode()),
                     ack.wire_size());
  } else if (*type == net::PacketType::kProbe) {
    const auto probe = net::Probe::decode(env.view());
    if (!probe || pending_.find(probe->data_id) == nullptr) return;
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
    node().originate(sim::Direction::kToSource, shared_wire(ack.encode()),
                     ack.wire_size());
    pending_.erase(probe->data_id);
  }
}

}  // namespace paai::protocols
