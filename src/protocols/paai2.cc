#include "protocols/paai2.h"

#include <cstring>

#include "util/wire.h"

namespace paai::protocols {

crypto::Mac paai2_report_tag(const crypto::CryptoProvider& crypto,
                             const crypto::Key& key, std::size_t index,
                             ByteView probe_bytes) {
  WireWriter w(1 + 2 + probe_bytes.size());
  w.u8(static_cast<std::uint8_t>(index));
  w.var_bytes(probe_bytes);
  const Bytes& buf = w.data();
  return crypto.mac(key, ByteView(buf.data(), buf.size()));
}

Bytes paai2_report_plaintext(const crypto::CryptoProvider& crypto,
                             const crypto::Key& key, std::size_t index,
                             ByteView probe_bytes,
                             const crypto::Mac* ad_tag) {
  const crypto::Mac tag = paai2_report_tag(crypto, key, index, probe_bytes);
  WireWriter w(kPaai2ReportSize);
  w.raw(ByteView(tag.data(), tag.size()));
  if (ad_tag != nullptr) {
    w.u8(1);
    w.raw(ByteView(ad_tag->data(), ad_tag->size()));
  } else {
    w.u8(0);  // bottom: the node never saw the destination's ack
    const crypto::Mac zero{};
    w.raw(ByteView(zero.data(), zero.size()));
  }
  return std::move(w).take();
}

std::uint64_t paai2_layer_nonce(const net::PacketId& id, std::size_t index) {
  std::uint64_t base;
  std::memcpy(&base, id.data(), sizeof(base));
  return base ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) + 1));
}

// ---------------------------------------------------------------- source

Paai2Source::Paai2Source(const ProtocolContext& ctx, bool sampled_mode)
    : SourceAgent(ctx, sampled_mode ? ProtocolKind::kCombination2
                                    : ProtocolKind::kPaai2),
      sampled_mode_(sampled_mode),
      monitor_sampler_(ctx.crypto(), ctx.keys().destination_key(),
                       ctx.params().probe_probability) {}

bool Paai2Source::before_send(const net::PacketId& id, std::uint64_t) {
  // Combination 2: only a K_d-keyed sampled fraction is monitored; for the
  // rest the packet goes out and the protocol stays silent.
  const bool monitored =
      !sampled_mode_ || monitor_sampler_.sampled(ByteView(id.data(), id.size()));
  if (monitored) track(id, {}, 3 * ctx_.r0() + 8 * ctx_.timer_slack());
  return monitored;
}

void Paai2Source::after_send(const net::PacketId& id, std::uint64_t seq,
                             bool monitored) {
  if (!monitored) return;
  // A monitored packet is a trial: plain PAAI-2's data-send counted it,
  // Combination 2's sample-select does.
  if (sampled_mode_) record(obs::EventKind::kSampleSelect, id, seq);
  node().sim().after(ctx_.r0() + ctx_.timer_slack(),
                     [this, id] { on_ack_timeout(id); });
}

void Paai2Source::on_ack_timeout(const net::PacketId& id) {
  Paai2Round* p = pending_.find(id);
  if (p == nullptr || p->probed) return;
  p->probed = true;
  record(obs::EventKind::kAckTimeout, id);

  // Fresh unpredictable challenge Z (PRF over id and a counter under the
  // source-private key).
  WireWriter zi(id.size() + 8);
  zi.raw(ByteView(id.data(), id.size()));
  zi.u64(challenge_counter_++);
  const std::uint64_t z = ctx_.crypto().prf(
      ctx_.keys().source_sampling_key(), ByteView(zi.data().data(),
                                                  zi.data().size()));

  net::Probe probe;
  probe.data_id = id;
  probe.challenge = z;
  p->probe_wire = sim::Wire::of(probe);

  // The source can evaluate every node's predicate itself: it knows which
  // node is selected even though no node (or observer) does.
  p->selected = crypto::selected_node(
      ctx_.crypto(), ctx_.key_vector(),
      p->probe_wire.view(), ctx_.d());

  send_probe(id, p->probe_wire, probe.wire_size(),
             ctx_.r0() + 2 * ctx_.timer_slack(), p->selected);
}

void Paai2Source::on_probe_timeout(const net::PacketId& id) {
  Paai2Round* p = pending_.find(id);
  if (p == nullptr) return;
  // Prefix evidence: no report survived, so the failure lies somewhere in
  // [l_0, l_{e-1}] (e = selected node) — no single link is named.
  record(obs::EventKind::kScoreBlame, id, p->selected);
  pending_.erase(id);
}

void Paai2Source::on_dest_ack(const net::DestAck& ack) {
  Paai2Round* p = pending_.find(ack.data_id);
  if (p == nullptr || p->probed || !dest_ack_ok(ack)) return;
  record(obs::EventKind::kAckRecv, ack.data_id, /*b=*/0);
  pending_.erase(ack.data_id);  // clean round: no probe, no scoring
}

void Paai2Source::on_report(const net::ReportAck& ack) {
  Paai2Round* p = pending_.find(ack.data_id);
  if (p == nullptr || !p->probed) return;
  if (ack.report.size() != kPaai2ReportSize) return;  // malformed: wait
  record(obs::EventKind::kAckRecv, ack.data_id, /*b=*/1);

  // Peel E_{K_1} .. E_{K_e}.
  Bytes cur = ack.report;
  for (std::size_t j = 1; j <= p->selected; ++j) {
    cur = ctx_.crypto().decrypt(ctx_.keys().node_key(j),
                                paai2_layer_nonce(ack.data_id, j),
                                ByteView(cur.data(), cur.size()));
  }

  // Scoring depends only on the authenticator part: a match proves the
  // selected node received the data packet and the probe, i.e. no drop in
  // [l_0, l_{e-1}]. (The a_d field rides alongside, unauthenticated; the
  // prefix score never reads it.)
  const crypto::Key& ke = ctx_.keys().node_key(p->selected);
  const crypto::Mac expected = paai2_report_tag(
      ctx_.crypto(), ke, p->selected,
      p->probe_wire.view());
  const bool match = ct_equal(ByteView(expected.data(), expected.size()),
                              ByteView(cur.data(), crypto::kMacSize));

  record(obs::EventKind::kOnionDecode, ack.data_id, p->selected, -1,
         match ? 1.0 : 0.0);
  record(match ? obs::EventKind::kScoreClean : obs::EventKind::kScoreBlame,
         ack.data_id, p->selected);
  pending_.erase(ack.data_id);
}

// ----------------------------------------------------------------- relay

void Paai2Relay::start() { pending_.attach(node(), ctx().r0() / 2); }

void Paai2Relay::on_packet(const sim::PacketEnv& env) {
  pending_.purge(node().sim().now());
  const auto type = net::peek_type(env.view());
  if (!type) return;

  switch (*type) {
    case net::PacketType::kData: {
      const auto data = decode_fresh(ctx(), node(), env);
      if (!data) return;
      pending_.put(data->id, RState{},
                   node().sim().now() + state_horizon(ctx(), node().index()));
      relay(env);
      break;
    }
    case net::PacketType::kDestAck: {
      const auto ack = net::DestAck::decode(env.view());
      if (!ack) return;
      RState* st = pending_.find(ack->data_id);
      if (st == nullptr) return;
      // Keep a copy of a_d (§6.2 phase 1) — it rides along in our report.
      // State is never released on ack sight (even in Combination 2, whose
      // §10 description suggests it): relays cannot authenticate a_d, so
      // corrupted acks could otherwise flush honest state and break
      // localization. See DESIGN.md §"findings".
      st->have_ad = true;
      st->ad_tag = ack->tag;
      relay(env);
      break;
    }
    case net::PacketType::kProbe: {
      const auto probe = net::Probe::decode(env.view());
      if (!probe) return;
      RState* st = pending_.find(probe->data_id);
      if (st == nullptr) {
        relay(env);  // stateless: pass along, contribute nothing
        return;
      }
      st->probe_seen = true;
      st->probe_wire = env.wire;
      st->sampled = crypto::selection_predicate(
          ctx().crypto(), ctx().keys().node_key(node().index()),
          env.view(),
          node().index(), ctx().d());
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
      RState* st = pending_.find(ack->data_id);
      if (st == nullptr || !st->probe_seen || st->responded) return;
      st->responded = true;
      if (st->sampled) {
        // Oblivious overwrite: a sampled node always substitutes its own
        // report for whatever arrived from downstream.
        send_own_report(ack->data_id, *st);
      } else {
        net::ReportAck out;
        out.data_id = ack->data_id;
        out.report = ctx().crypto().encrypt(
            ctx().keys().node_key(node().index()),
            paai2_layer_nonce(ack->data_id, node().index()),
            ByteView(ack->report.data(), ack->report.size()));
        relay(envelope(out, sim::Direction::kToSource));
      }
      pending_.erase(ack->data_id);
      break;
    }
    default:
      relay(env);
      break;
  }
}

void Paai2Relay::send_own_report(const net::PacketId& id, RState& st) {
  const crypto::Key& key = ctx().keys().node_key(node().index());
  const Bytes plaintext = paai2_report_plaintext(
      ctx().crypto(), key, node().index(),
      st.probe_wire.view(),
      st.have_ad ? &st.ad_tag : nullptr);
  net::ReportAck ack;
  ack.data_id = id;
  ack.report =
      ctx().crypto().encrypt(key, paai2_layer_nonce(id, node().index()),
                             ByteView(plaintext.data(), plaintext.size()));
  relay(envelope(ack, sim::Direction::kToSource));
}

void Paai2Relay::on_wait_timeout(const net::PacketId& id) {
  RState* st = pending_.find(id);
  if (st == nullptr || st->responded) return;
  st->responded = true;
  send_own_report(id, *st);
  pending_.erase(id);
}

// ----------------------------------------------------------- destination

Paai2Destination::Paai2Destination(const ProtocolContext& ctx,
                                   bool ack_only_sampled)
    : ctx_(ctx),
      ack_only_sampled_(ack_only_sampled),
      monitor_sampler_(ctx.crypto(), ctx.keys().destination_key(),
                       ctx.params().probe_probability),
      pending_(nullptr) {}

void Paai2Destination::start() { pending_.attach(node(), ctx_.r0() / 2); }

void Paai2Destination::on_packet(const sim::PacketEnv& env) {
  pending_.purge(node().sim().now());
  const auto type = net::peek_type(env.view());
  if (!type) return;

  if (*type == net::PacketType::kData) {
    const auto data = decode_fresh(ctx_, node(), env);
    if (!data) return;
    const net::PacketId id = data->id;
    if (ack_only_sampled_ &&
        !monitor_sampler_.sampled(ByteView(id.data(), id.size()))) {
      return;  // unmonitored packet: no ack, no state, no probe will come
    }
    pending_.put(id, DState{}, node().sim().now() + state_horizon(ctx_, ctx_.d()));
    net::DestAck ack;
    ack.data_id = id;
    ack.tag = dest_ack_tag(ctx_, id);
    originate(node(), sim::Direction::kToSource, ack);
  } else if (*type == net::PacketType::kProbe) {
    const auto probe = net::Probe::decode(env.view());
    if (!probe || pending_.find(probe->data_id) == nullptr) return;
    // T_d fires with probability 1: the destination is always sampled and
    // thus originates the innermost report for every probe it can answer.
    const crypto::Key& key = ctx_.keys().node_key(ctx_.d());
    const crypto::Mac ad = dest_ack_tag(ctx_, probe->data_id);
    const Bytes plaintext = paai2_report_plaintext(ctx_.crypto(), key,
                                                   ctx_.d(), env.view(), &ad);
    net::ReportAck ack;
    ack.data_id = probe->data_id;
    ack.report = ctx_.crypto().encrypt(
        key, paai2_layer_nonce(probe->data_id, ctx_.d()),
        ByteView(plaintext.data(), plaintext.size()));
    originate(node(), sim::Direction::kToSource, ack);
    pending_.erase(probe->data_id);
  }
}

}  // namespace paai::protocols
