#include "protocols/sigack.h"

#include <cstring>

#include "util/wire.h"

namespace paai::protocols {

namespace {

std::shared_ptr<const Bytes> shared_wire(Bytes b) {
  return std::make_shared<const Bytes>(std::move(b));
}

sim::SimDuration state_horizon(const ProtocolContext& ctx,
                               std::size_t node_index) {
  // A probe (sent after the source's ack timeout, <= r_0 + slack) reaches
  // F_i a fixed interval after the data did; the node then needs r_i for
  // the downstream response. Deeper nodes therefore hold state slightly
  // shorter — the position slope of Figure 3(c).
  return ctx.r0() + ctx.rtt(node_index) + 3 * ctx.timer_slack();
}

Bytes signed_content(std::size_t index, const net::PacketId& id) {
  WireWriter w(1 + id.size());
  w.u8(static_cast<std::uint8_t>(index));
  w.raw(ByteView(id.data(), id.size()));
  return std::move(w).take();
}

}  // namespace

Bytes sigack_report(const crypto::Key& node_seed, std::size_t index,
                    std::uint64_t seq, const net::PacketId& id) {
  const Bytes content = signed_content(index, id);
  const Bytes sig = crypto::wots_sign(node_seed, seq,
                                      ByteView(content.data(), content.size()));
  WireWriter w(1 + 8 + sig.size());
  w.u8(static_cast<std::uint8_t>(index));
  w.u64(seq);
  w.raw(ByteView(sig.data(), sig.size()));
  return std::move(w).take();
}

std::optional<std::size_t> sigack_verify(const ProtocolContext& ctx,
                                         ByteView report,
                                         const net::PacketId& id) {
  WireReader r(report);
  std::uint8_t index = 0;
  std::uint64_t seq = 0;
  Bytes sig;
  if (!r.u8(index) || !r.u64(seq) ||
      !r.raw(crypto::kWotsSignatureSize, sig) || !r.done()) {
    return std::nullopt;
  }
  if (index < 1 || index > ctx.d()) return std::nullopt;
  // Reconstruct the expected one-time public key for (node, seq) — the
  // simulation stand-in for looking it up in a pre-registered Merkle tree.
  const crypto::WotsPublicKey pk =
      crypto::wots_public_key(ctx.keys().node_key(index), seq);
  const Bytes content = signed_content(index, id);
  if (!crypto::wots_verify(pk, ByteView(content.data(), content.size()),
                           ByteView(sig.data(), sig.size()))) {
    return std::nullopt;
  }
  return index;
}

// ---------------------------------------------------------------- source

SigAckSource::SigAckSource(const ProtocolContext& ctx)
    : ctx_(ctx),
      score_(ctx.d(), /*traversals=*/1.0, /*probe_extra=*/2.0),
      pending_(nullptr),
      send_period_(static_cast<sim::SimDuration>(
          static_cast<double>(sim::kSecond) / ctx.params().send_rate_pps)) {
  score_.set_blame(ctx.params().blame);
}

void SigAckSource::start() {
  pending_.attach(node(), ctx_.r0() / 2);
  node().sim().after(send_period_, [this] { send_next(); });
}

void SigAckSource::send_next() {
  if (sent_ >= ctx_.params().total_packets) return;

  net::DataPacket pkt;
  pkt.seq = sent_;
  pkt.timestamp_ns = static_cast<std::uint64_t>(node().local_now());
  pkt.payload_size = ctx_.params().payload_size;
  const net::PacketId id = pkt.id(ctx_.crypto());

  pending_.purge(node().sim().now());
  Pending p;
  p.seq = sent_;
  pending_.put(id, p,
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

void SigAckSource::on_ack_timeout(const net::PacketId& id) {
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

void SigAckSource::on_probe_timeout(const net::PacketId& id) {
  Pending* p = pending_.find(id);
  if (p == nullptr) return;
  // Deepest contiguous prefix of verified signed reports.
  std::size_t k = 0;
  while (k < ctx_.d() && (p->ack_bits >> (k + 1)) & 1u) ++k;
  if (k >= ctx_.d()) {
    score_.add_clean();
    ++delivered_;
    ctx_.log_event(node(), obs::EventKind::kScoreClean, -1,
                   obs::event_id64(id.data()), score_.observations());
  } else {
    score_.blame(k);
    ctx_.log_event(node(), obs::EventKind::kScoreBlame,
                   static_cast<std::int32_t>(k), obs::event_id64(id.data()),
                   score_.observations(), score_.theta(k));
  }
  pending_.erase(id);
}

void SigAckSource::on_packet(const sim::PacketEnv& env) {
  if (net::peek_type(env.view()) != net::PacketType::kReportAck) return;
  const auto ack = net::ReportAck::decode(env.view());
  if (ack) handle_report(*ack);
}

void SigAckSource::handle_report(const net::ReportAck& ack) {
  ctx_.metrics().report_acks_received.add();
  Pending* p = pending_.find(ack.data_id);
  if (p == nullptr) return;

  ++verifications_;
  const auto signer = sigack_verify(ctx_, ByteView(ack.report.data(),
                                                   ack.report.size()),
                                    ack.data_id);
  if (!signer) return;
  // b = signing node index (the destination's per-packet ack is b = d).
  ctx_.log_event(node(), obs::EventKind::kAckRecv, -1,
                 obs::event_id64(ack.data_id.data()), *signer);

  if (*signer == ctx_.d() && !p->probed) {
    // The destination's per-packet signed ack: delivery confirmed.
    score_.add_clean();
    ++delivered_;
    ctx_.log_event(node(), obs::EventKind::kScoreClean, -1,
                   obs::event_id64(ack.data_id.data()),
                   score_.observations());
    pending_.erase(ack.data_id);
    return;
  }
  p->ack_bits |= 1u << *signer;
  // Probed rounds resolve at the probe timeout once all reports are in.
}

double SigAckSource::observed_e2e_rate() const {
  if (sent_ == 0) return 0.0;
  return 1.0 - static_cast<double>(delivered_) / static_cast<double>(sent_);
}

// ----------------------------------------------------------------- relay

void SigAckRelay::start() { pending_.attach(node(), ctx().r0() / 2); }

void SigAckRelay::on_packet(const sim::PacketEnv& env) {
  pending_.purge(node().sim().now());
  const auto type = net::peek_type(env.view());
  if (!type) return;

  switch (*type) {
    case net::PacketType::kData: {
      const auto pkt = net::DataPacket::decode(env.view());
      if (!pkt || !fresh(*pkt)) return;
      RState st;
      st.seq = pkt->seq;
      pending_.put(pkt->id(ctx().crypto()), st,
                   node().sim().now() + state_horizon(ctx(), node().index()));
      relay(env);
      break;
    }
    case net::PacketType::kProbe: {
      const auto probe = net::Probe::decode(env.view());
      if (!probe) return;
      RState* st = pending_.find(probe->data_id);
      relay(env);
      if (st == nullptr) return;
      net::ReportAck ack;
      ack.data_id = probe->data_id;
      ack.report = sigack_report(ctx().keys().node_key(node().index()),
                                 node().index(), st->seq, probe->data_id);
      relay(sim::PacketEnv{shared_wire(ack.encode()), ack.wire_size(),
                           sim::Direction::kToSource});
      pending_.erase(probe->data_id);
      break;
    }
    default:
      relay(env);  // signed acks are self-authenticating: forward blindly
      break;
  }
}

// ----------------------------------------------------------- destination

void SigAckDestination::start() { pending_.attach(node(), ctx_.r0() / 2); }

void SigAckDestination::on_packet(const sim::PacketEnv& env) {
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
    DState st;
    st.seq = pkt->seq;
    pending_.put(id, st, node().sim().now() + state_horizon(ctx_, ctx_.d()));
    // Per-packet signed ack.
    net::ReportAck ack;
    ack.data_id = id;
    ack.report = sigack_report(ctx_.keys().node_key(ctx_.d()), ctx_.d(),
                               pkt->seq, id);
    node().originate(sim::Direction::kToSource, shared_wire(ack.encode()),
                     ack.wire_size());
  } else if (*type == net::PacketType::kProbe) {
    const auto probe = net::Probe::decode(env.view());
    if (!probe) return;
    DState* st = pending_.find(probe->data_id);
    if (st == nullptr) return;
    net::ReportAck ack;
    ack.data_id = probe->data_id;
    ack.report = sigack_report(ctx_.keys().node_key(ctx_.d()), ctx_.d(),
                               st->seq, probe->data_id);
    node().originate(sim::Direction::kToSource, shared_wire(ack.encode()),
                     ack.wire_size());
    pending_.erase(probe->data_id);
  }
}

}  // namespace paai::protocols
