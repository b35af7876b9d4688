#include "protocols/paai1.h"

#include <cstring>

#include "util/wire.h"

namespace paai::protocols {

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

void Paai1Source::after_send(const net::PacketId& id, std::uint64_t seq,
                             bool) {
  // Phase 1 decision: sample m for probing with probability p, keyed so
  // no observer can predict the outcome.
  if (!sampler_.sampled(ByteView(id.data(), id.size()))) return;
  record(obs::EventKind::kSampleSelect, id, seq);
  track(id, {},
        ctx_.probe_delay() + 2 * ctx_.r0() + 8 * ctx_.timer_slack());
  node().sim().after(ctx_.probe_delay(), [this, id] { send_probe_for(id); });
}

void Paai1Source::send_probe_for(const net::PacketId& id) {
  if (pending_.find(id) == nullptr) return;
  net::Probe probe;
  probe.data_id = id;
  if (ctx_.params().authenticated_probes) {
    probe.auth = build_probe_auth(ctx_, probe);
  }
  send_probe(id, sim::Wire::of(probe), probe.wire_size(),
             ctx_.r0() + 2 * ctx_.timer_slack());
}

void Paai1Source::on_probe_timeout(const net::PacketId& id) {
  const ProbeRound* p = pending_.find(id);
  if (p == nullptr) return;  // a report resolved it
  if (ctx_.params().paai1_independent_acks) {
    // Resolution happens here, once all acks had time to arrive.
    credit_prefix(id, p->ack_bits);
    return;
  }
  // No authenticated report at all: the drop is on the source's own
  // downstream link (footnote 8).
  record(obs::EventKind::kAckTimeout, id);
  credit_blame(id, 0);
  pending_.erase(id);
}

void Paai1Source::on_report(const net::ReportAck& ack) {
  if (ctx_.params().paai1_independent_acks) {
    on_independent_report(ack);
    return;
  }
  if (pending_.find(ack.data_id) == nullptr) return;
  const net::PacketId& id = ack.data_id;
  credit_onion(ack, [&id](std::uint8_t i, ByteView r) {
    return paai1_report_ok(i, r, id);
  });
}

void Paai1Source::on_independent_report(const net::ReportAck& ack) {
  ProbeRound* p = pending_.find(ack.data_id);
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
}

// ----------------------------------------------------------- destination

void Paai1Destination::start() { pending_.attach(node(), ctx_.r0() / 2); }

void Paai1Destination::on_packet(const sim::PacketEnv& env) {
  pending_.purge(node().sim().now());
  const auto type = net::peek_type(env.view());
  if (!type) return;

  if (*type == net::PacketType::kData) {
    const auto data = decode_fresh(ctx_, node(), env);
    if (!data) return;
    pending_.put(data->id, DState{},
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
      ack.report =
          onion_layer(ctx_, ctx_.d(), ByteView(report.data(), report.size()));
    }
    originate(node(), sim::Direction::kToSource, ack);
    pending_.erase(probe->data_id);
  }
}

}  // namespace paai::protocols
