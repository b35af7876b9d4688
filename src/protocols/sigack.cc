#include "protocols/sigack.h"

#include "protocols/paai1.h"
#include "util/wire.h"

namespace paai::protocols {

Bytes sigack_report(const crypto::Key& node_seed, std::size_t index,
                    std::uint64_t seq, const net::PacketId& id) {
  const Bytes content = paai1_local_report(index, id);
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
  ByteView sig;
  if (!r.u8(index) || !r.u64(seq) ||
      !r.view(crypto::kWotsSignatureSize, sig) || !r.done()) {
    return std::nullopt;
  }
  if (index < 1 || index > ctx.d()) return std::nullopt;
  // Reconstruct the expected one-time public key for (node, seq) — the
  // simulation stand-in for looking it up in a pre-registered Merkle tree.
  const crypto::WotsPublicKey pk =
      crypto::wots_public_key(ctx.keys().node_key(index), seq);
  const Bytes content = paai1_local_report(index, id);
  if (!crypto::wots_verify(pk, ByteView(content.data(), content.size()),
                           sig)) {
    return std::nullopt;
  }
  return index;
}

// ---------------------------------------------------------------- source

bool SigAckSource::before_send(const net::PacketId& id, std::uint64_t seq) {
  ProbeRound round;
  round.seq = seq;
  track(id, round, 3 * ctx_.r0() + 8 * ctx_.timer_slack());
  return true;
}

void SigAckSource::after_send(const net::PacketId& id, std::uint64_t, bool) {
  node().sim().after(ctx_.r0() + ctx_.timer_slack(), [this, id] {
    probe_missing_ack(id, ctx_.r0() + 2 * ctx_.timer_slack());
  });
}

void SigAckSource::on_probe_timeout(const net::PacketId& id) {
  const ProbeRound* p = pending_.find(id);
  if (p == nullptr) return;
  // Deepest contiguous prefix of verified signed reports.
  credit_prefix(id, p->ack_bits);
}

void SigAckSource::on_report(const net::ReportAck& ack) {
  ProbeRound* p = pending_.find(ack.data_id);
  if (p == nullptr) return;

  const auto signer = sigack_verify(ctx_, ByteView(ack.report.data(),
                                                   ack.report.size()),
                                    ack.data_id);
  if (!signer) return;
  // b = signing node index (the destination's per-packet ack is b = d).
  record(obs::EventKind::kAckRecv, ack.data_id, *signer);

  if (*signer == ctx_.d() && !p->probed) {
    // The destination's per-packet signed ack: delivery confirmed.
    credit_clean(ack.data_id);
    pending_.erase(ack.data_id);
    return;
  }
  p->ack_bits |= 1u << *signer;
  // Probed rounds resolve at the probe timeout once all reports are in.
}

// ----------------------------------------------------------------- relay

void SigAckRelay::start() { pending_.attach(node(), ctx().r0() / 2); }

void SigAckRelay::on_packet(const sim::PacketEnv& env) {
  pending_.purge(node().sim().now());
  const auto type = net::peek_type(env.view());
  if (!type) return;

  switch (*type) {
    case net::PacketType::kData: {
      const auto data = decode_fresh(ctx(), node(), env);
      if (!data) return;
      RState st;
      st.seq = data->packet.seq;
      pending_.put(data->id, st,
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
      relay(envelope(ack, sim::Direction::kToSource));
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
    const auto data = decode_fresh(ctx_, node(), env);
    if (!data) return;
    const net::PacketId id = data->id;
    DState st;
    st.seq = data->packet.seq;
    pending_.put(id, st, node().sim().now() + state_horizon(ctx_, ctx_.d()));
    // Per-packet signed ack.
    net::ReportAck ack;
    ack.data_id = id;
    ack.report = sigack_report(ctx_.keys().node_key(ctx_.d()), ctx_.d(),
                               st.seq, id);
    originate(node(), sim::Direction::kToSource, ack);
  } else if (*type == net::PacketType::kProbe) {
    const auto probe = net::Probe::decode(env.view());
    if (!probe) return;
    DState* st = pending_.find(probe->data_id);
    if (st == nullptr) return;
    net::ReportAck ack;
    ack.data_id = probe->data_id;
    ack.report = sigack_report(ctx_.keys().node_key(ctx_.d()), ctx_.d(),
                               st->seq, probe->data_id);
    originate(node(), sim::Direction::kToSource, ack);
    pending_.erase(probe->data_id);
  }
}

}  // namespace paai::protocols
