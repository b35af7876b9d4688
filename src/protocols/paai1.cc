#include "protocols/paai1.h"

#include <cstring>

#include "util/wire.h"

namespace paai::protocols {

namespace {

std::shared_ptr<const Bytes> shared_wire(Bytes b) {
  return std::make_shared<const Bytes>(std::move(b));
}

}  // namespace

Bytes paai1_local_report(std::size_t index, const net::PacketId& id) {
  WireWriter w(1 + id.size());
  w.u8(static_cast<std::uint8_t>(index));
  w.raw(ByteView(id.data(), id.size()));
  return std::move(w).take();
}

bool paai1_report_ok(std::uint8_t index, ByteView report,
                     const net::PacketId& id) {
  if (report.size() != 1 + id.size()) return false;
  return report[0] == index &&
         std::memcmp(report.data() + 1, id.data(), id.size()) == 0;
}

Bytes paai1_independent_report(const crypto::CryptoProvider& crypto,
                               const crypto::Key& key, std::size_t index,
                               const net::PacketId& id) {
  const Bytes content = paai1_local_report(index, id);
  const crypto::Mac mac =
      crypto.mac(key, ByteView(content.data(), content.size()));
  WireWriter w(1 + mac.size());
  w.u8(static_cast<std::uint8_t>(index));
  w.raw(ByteView(mac.data(), mac.size()));
  return std::move(w).take();
}

namespace {

crypto::Mac probe_auth_tag(const ProtocolContext& ctx, std::size_t index,
                           const net::Probe& probe) {
  WireWriter w(1 + probe.data_id.size() + 8);
  w.u8(static_cast<std::uint8_t>(index));
  w.raw(ByteView(probe.data_id.data(), probe.data_id.size()));
  w.u64(probe.challenge);
  const Bytes& buf = w.data();
  return ctx.crypto().mac(ctx.keys().node_key(index),
                          ByteView(buf.data(), buf.size()));
}

}  // namespace

Bytes build_probe_auth(const ProtocolContext& ctx, const net::Probe& probe) {
  Bytes chain;
  chain.reserve(ctx.d() * crypto::kMacSize);
  for (std::size_t i = 1; i <= ctx.d(); ++i) {
    const crypto::Mac tag = probe_auth_tag(ctx, i, probe);
    chain.insert(chain.end(), tag.begin(), tag.end());
  }
  return chain;
}

bool verify_probe_auth(const ProtocolContext& ctx, const net::Probe& probe,
                       std::size_t index) {
  if (index < 1 || index > ctx.d()) return false;
  if (probe.auth.size() != ctx.d() * crypto::kMacSize) return false;
  const crypto::Mac expected = probe_auth_tag(ctx, index, probe);
  return ct_equal(ByteView(expected.data(), expected.size()),
                  ByteView(probe.auth.data() + (index - 1) * crypto::kMacSize,
                           crypto::kMacSize));
}

// ---------------------------------------------------------------- source

// Every probed packet exposes a link to the data, probe, and onion legs —
// nominally 3 traversals, but a drop suppresses the same round's
// downstream legs (an onion that originated upstream of l_i never crosses
// it), leaving an effective exposure of ~2.6. Calibrated so that honest
// links estimate at their true natural rate.
Paai1Source::Paai1Source(const ProtocolContext& ctx)
    : ctx_(ctx),
      sampler_(ctx.crypto(), ctx.keys().source_sampling_key(),
               ctx.params().probe_probability),
      score_(ctx.d(), /*traversals=*/2.6),
      pending_(nullptr),
      send_period_(static_cast<sim::SimDuration>(
          static_cast<double>(sim::kSecond) / ctx.params().send_rate_pps)) {
  score_.set_blame(ctx.params().blame);
}

void Paai1Source::start() {
  pending_.attach(node(), ctx_.r0() / 2);
  node().sim().after(send_period_, [this] { send_next(); });
}

void Paai1Source::send_next() {
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

  // Phase 1 decision: sample m for probing with probability p, keyed so
  // no observer can predict the outcome.
  if (sampler_.sampled(ByteView(id.data(), id.size()))) {
    ctx_.log_event(node(), obs::EventKind::kSampleSelect, -1,
                   obs::event_id64(id.data()), pkt.seq);
    pending_.purge(node().sim().now());
    pending_.put(id, Pending{},
                 node().sim().now() + ctx_.probe_delay() + 2 * ctx_.r0() +
                     8 * ctx_.timer_slack());
    node().sim().after(ctx_.probe_delay(), [this, id] { send_probe(id); });
  }

  if (sent_ < ctx_.params().total_packets) {
    node().sim().after(send_period_, [this] { send_next(); });
  }
}

void Paai1Source::send_probe(const net::PacketId& id) {
  if (pending_.find(id) == nullptr) return;
  ++probed_;
  net::Probe probe;
  probe.data_id = id;
  if (ctx_.params().authenticated_probes) {
    probe.auth = build_probe_auth(ctx_, probe);
  }
  node().originate(sim::Direction::kToDest, shared_wire(probe.encode()),
                   probe.wire_size());
  ctx_.metrics().probes_sent.add();
  ctx_.log_event(node(), obs::EventKind::kProbeSend, -1,
                 obs::event_id64(id.data()));
  node().sim().after(ctx_.r0() + 2 * ctx_.timer_slack(),
                     [this, id] { on_resolution_timeout(id); });
}

void Paai1Source::on_resolution_timeout(const net::PacketId& id) {
  Pending* p = pending_.find(id);
  if (p == nullptr) return;  // a report resolved it
  if (ctx_.params().paai1_independent_acks) {
    resolve_independent(id, *p);
    return;
  }
  // No authenticated report at all: the drop is on the source's own
  // downstream link (footnote 8).
  ctx_.log_event(node(), obs::EventKind::kAckTimeout, -1,
                 obs::event_id64(id.data()));
  score_.blame(0);
  ctx_.log_event(node(), obs::EventKind::kScoreBlame, 0,
                 obs::event_id64(id.data()), score_.observations(),
                 score_.theta(0));
  pending_.erase(id);
}

void Paai1Source::resolve_independent(const net::PacketId& id,
                                      const Pending& pending) {
  // Deepest contiguous prefix of verified acks F_1..F_k; blame l_k. This
  // is exactly the rule that independent acks force on the source — and
  // exactly why they are framable (see header / bench_ablation).
  std::size_t k = 0;
  while (k < ctx_.d() && (pending.ack_bits >> (k + 1)) & 1u) ++k;
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

void Paai1Source::on_packet(const sim::PacketEnv& env) {
  if (net::peek_type(env.view()) != net::PacketType::kReportAck) return;
  if (const auto ack = net::ReportAck::decode(env.view())) {
    handle_report(*ack);
  }
}

void Paai1Source::handle_report(const net::ReportAck& ack) {
  ctx_.metrics().report_acks_received.add();
  if (ctx_.params().paai1_independent_acks) {
    handle_independent_report(ack);
    return;
  }
  if (pending_.find(ack.data_id) == nullptr) return;

  const net::PacketId id = ack.data_id;
  ctx_.log_event(node(), obs::EventKind::kAckRecv, -1,
                 obs::event_id64(id.data()), /*b=*/1);
  const auto result = net::onion_verify(
      ctx_.crypto(), ctx_.key_vector(), ctx_.d(),
      ByteView(ack.report.data(), ack.report.size()),
      [&id](std::uint8_t i, ByteView r) { return paai1_report_ok(i, r, id); });

  ctx_.log_event(node(), obs::EventKind::kOnionDecode, -1,
                 obs::event_id64(id.data()), result.valid_layers);
  if (result.valid_layers == 0) return;  // unauthenticated: ignore (see §4)
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

void Paai1Source::handle_independent_report(const net::ReportAck& ack) {
  Pending* p = pending_.find(ack.data_id);
  if (p == nullptr) return;
  if (ack.report.size() != 1 + crypto::kMacSize) return;
  const std::size_t index = ack.report[0];
  if (index < 1 || index > ctx_.d()) return;
  const Bytes expected = paai1_independent_report(
      ctx_.crypto(), ctx_.keys().node_key(index), index, ack.data_id);
  if (!ct_equal(ByteView(expected.data(), expected.size()),
                ByteView(ack.report.data(), ack.report.size()))) {
    return;
  }
  p->ack_bits |= 1u << index;
  // Resolution happens at the timeout, once all acks had time to arrive.
}

double Paai1Source::observed_e2e_rate() const {
  const std::uint64_t n = score_.observations();
  if (n == 0) return 0.0;
  return 1.0 - static_cast<double>(delivered_) / static_cast<double>(n);
}

// ----------------------------------------------------------------- relay

void Paai1Relay::start() { pending_.attach(node(), ctx().r0() / 2); }

void Paai1Relay::on_packet(const sim::PacketEnv& env) {
  pending_.purge(node().sim().now());
  const auto type = net::peek_type(env.view());
  if (!type) return;

  switch (*type) {
    case net::PacketType::kData: {
      const auto pkt = net::DataPacket::decode(env.view());
      if (!pkt || !fresh(*pkt)) return;
      pending_.put(pkt->id(ctx().crypto()), RState{},
                   node().sim().now() + ctx().unprobed_state_horizon());
      relay(env);
      break;
    }
    case net::PacketType::kProbe: {
      const auto probe = net::Probe::decode(env.view());
      if (!probe) return;
      if (ctx().params().authenticated_probes &&
          !verify_probe_auth(ctx(), *probe, node().index())) {
        return;  // bogus probe: reject before spending any resources
      }
      RState* st = pending_.find(probe->data_id);
      if (st == nullptr) {
        relay(env);  // stateless: pass along, contribute nothing
        return;
      }
      if (ctx().params().paai1_independent_acks) {
        // Ablation mode: answer immediately with a free-standing ack, no
        // onion nesting, no downstream wait.
        relay(env);
        net::ReportAck ack;
        ack.data_id = probe->data_id;
        ack.report = paai1_independent_report(
            ctx().crypto(), ctx().keys().node_key(node().index()),
            node().index(), probe->data_id);
        relay(sim::PacketEnv{shared_wire(ack.encode()), ack.wire_size(),
                             sim::Direction::kToSource});
        pending_.erase(probe->data_id);
        return;
      }
      st->probe_seen = true;
      const auto wait = ctx().rtt(node().index()) + ctx().timer_slack();
      pending_.extend(probe->data_id,
                      node().sim().now() + wait + 2 * ctx().timer_slack());
      relay(env);
      const net::PacketId id = probe->data_id;
      node().sim().after(wait, [this, id] { on_wait_timeout(id); });
      break;
    }
    case net::PacketType::kReportAck: {
      const auto ack = net::ReportAck::decode(env.view());
      if (!ack) return;
      if (ctx().params().paai1_independent_acks) {
        relay(env);  // free-standing acks are forwarded blindly
        return;
      }
      RState* st = pending_.find(ack->data_id);
      if (st == nullptr || !st->probe_seen || st->responded) return;
      st->responded = true;
      const Bytes report = paai1_local_report(node().index(), ack->data_id);
      net::ReportAck wrapped;
      wrapped.data_id = ack->data_id;
      wrapped.report = net::onion_wrap(
          ctx().crypto(), ctx().keys().node_key(node().index()),
          static_cast<std::uint8_t>(node().index()),
          ByteView(report.data(), report.size()),
          ByteView(ack->report.data(), ack->report.size()));
      relay(sim::PacketEnv{shared_wire(wrapped.encode()), wrapped.wire_size(),
                           sim::Direction::kToSource});
      pending_.erase(ack->data_id);
      break;
    }
    default:
      relay(env);
      break;
  }
}

void Paai1Relay::on_wait_timeout(const net::PacketId& id) {
  RState* st = pending_.find(id);
  if (st == nullptr || st->responded) return;
  st->responded = true;
  const Bytes report = paai1_local_report(node().index(), id);
  net::ReportAck ack;
  ack.data_id = id;
  ack.report = net::onion_originate(
      ctx().crypto(), ctx().keys().node_key(node().index()),
      static_cast<std::uint8_t>(node().index()),
      ByteView(report.data(), report.size()));
  relay(sim::PacketEnv{shared_wire(ack.encode()), ack.wire_size(),
                       sim::Direction::kToSource});
  pending_.erase(id);
}

// ----------------------------------------------------------- destination

void Paai1Destination::start() { pending_.attach(node(), ctx_.r0() / 2); }

void Paai1Destination::on_packet(const sim::PacketEnv& env) {
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
    pending_.put(pkt->id(ctx_.crypto()), DState{},
                 node().sim().now() + ctx_.unprobed_state_horizon());
  } else if (*type == net::PacketType::kProbe) {
    const auto probe = net::Probe::decode(env.view());
    if (!probe || pending_.find(probe->data_id) == nullptr) return;
    if (ctx_.params().authenticated_probes &&
        !verify_probe_auth(ctx_, *probe, ctx_.d())) {
      return;
    }
    net::ReportAck ack;
    ack.data_id = probe->data_id;
    if (ctx_.params().paai1_independent_acks) {
      ack.report = paai1_independent_report(
          ctx_.crypto(), ctx_.keys().node_key(ctx_.d()), ctx_.d(),
          probe->data_id);
    } else {
      const Bytes report = paai1_local_report(ctx_.d(), probe->data_id);
      ack.report = net::onion_originate(
          ctx_.crypto(), ctx_.keys().node_key(ctx_.d()),
          static_cast<std::uint8_t>(ctx_.d()),
          ByteView(report.data(), report.size()));
    }
    node().originate(sim::Direction::kToSource, shared_wire(ack.encode()),
                     ack.wire_size());
    pending_.erase(probe->data_id);
  }
}

}  // namespace paai::protocols
