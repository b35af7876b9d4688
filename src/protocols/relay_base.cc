#include "protocols/relay_base.h"

#include "protocols/agent.h"
#include "protocols/paai1.h"

namespace paai::protocols {

bool RelayBase::relay(const sim::PacketEnv& env) {
  if (strategy_ == nullptr || !strategy_->active()) {
    node().forward(env);
    return true;
  }

  const auto type = net::peek_type(env.view());
  adversary::Context actx;
  actx.type = type.value_or(net::PacketType::kData);
  actx.dir = env.dir;
  actx.node_index = node().index();
  actx.wire = env.view();
  actx.now = node().local_now();

  // Packet identifiers go only to strategies that ask. They come from
  // the wire buffer's H(m), like decode_fresh()'s; only a tampered copy is
  // hashed again.
  net::PacketId packet_id{};
  const bool want_ids = strategy_->wants_packet_ids();
  if (want_ids && actx.type == net::PacketType::kData) {
    if (const auto data = net::DataPacket::decode(env.view())) {
      packet_id = data_id(ctx_, env, *data);
      actx.packet_id = &packet_id;
    }
  }

  // A probe may reference a packet this node withheld earlier; give the
  // strategy its release/drop decision before the probe itself is handled.
  net::PacketId probe_id{};
  if (type == net::PacketType::kProbe) {
    if (const auto probe = net::Probe::decode(env.view())) {
      handle_withheld_release(env, probe->data_id);
      if (want_ids) {
        probe_id = probe->data_id;
        actx.probe_data_id = &probe_id;
      }
    }
  }

  switch (strategy_->on_packet(actx)) {
    case adversary::Action::kForward:
      node().forward(env);
      return true;
    case adversary::Action::kDrop:
      break;
    case adversary::Action::kCorrupt: {
      // Forward an altered copy: flip a bit in the last header byte. For
      // data packets this changes H(m); for reports it breaks a MAC — in
      // all cases the source ends up treating it as a drop (§5). The copy
      // is a new buffer, so it carries no H(m).
      const ByteView wire = env.view();
      Bytes tampered(wire.begin(), wire.end());
      if (!tampered.empty()) tampered.back() ^= 0x01;
      node().forward(sim::PacketEnv{sim::Wire(std::move(tampered)),
                                    env.wire_size, env.dir});
      return true;
    }
    case adversary::Action::kWithhold: {
      if (const auto data = net::DataPacket::decode(env.view())) {
        withheld_[data_id(ctx_, env, *data)] = env;
      }
      break;
    }
  }
  return false;
}

void RelayBase::handle_withheld_release(const sim::PacketEnv& probe_env,
                                        const net::PacketId& id) {
  auto it = withheld_.find(id);
  if (it == withheld_.end()) return;

  adversary::Context pctx;
  pctx.type = net::PacketType::kProbe;
  pctx.dir = probe_env.dir;
  pctx.node_index = node().index();
  pctx.wire = probe_env.view();

  if (strategy_->on_withheld_probe(pctx) == adversary::Action::kForward) {
    // Release the stale packet ahead of the probe. Its timestamp is
    // unchanged (altering it would change H(m)), so the next honest node
    // rejects it as expired.
    node().forward(it->second);
  }
  withheld_.erase(it);
}

OnionRelay::OnionRelay(const ProtocolContext& ctx, bool paai1)
    : RelayBase(ctx),
      paai1_(paai1),
      check_probe_auth_(paai1 && ctx.params().authenticated_probes),
      independent_acks_(paai1 && ctx.params().paai1_independent_acks),
      pending_(nullptr) {}

void OnionRelay::start() {
  horizon_ = paai1_ ? ctx().unprobed_state_horizon()
                    : state_horizon(ctx(), node().index());
  pending_.attach(node(), ctx().r0() / 2);
}

void OnionRelay::on_packet(const sim::PacketEnv& env) {
  pending_.purge(node().sim().now());
  const auto type = net::peek_type(env.view());
  if (!type) return;

  switch (*type) {
    case net::PacketType::kData: {
      const auto data = decode_fresh(ctx(), node(), env);
      if (!data) return;
      pending_.put(data->id, RState{}, node().sim().now() + horizon_);
      relay(env);
      break;
    }
    case net::PacketType::kDestAck: {
      if (!paai1_) {
        const auto ack = net::DestAck::decode(env.view());
        if (!ack || pending_.find(ack->data_id) == nullptr) return;
      }
      relay(env);
      break;
    }
    case net::PacketType::kProbe:
      on_probe(env);
      break;
    case net::PacketType::kReportAck:
      on_report(env);
      break;
    default:
      relay(env);
      break;
  }
}

void OnionRelay::on_probe(const sim::PacketEnv& env) {
  const auto probe = net::Probe::decode(env.view());
  if (!probe) return;
  if (check_probe_auth_ && !verify_probe_auth(ctx(), *probe, node().index())) {
    return;  // bogus probe: reject before spending any resources
  }
  const net::PacketId id = probe->data_id;
  RState* st = pending_.find(id);
  if (st == nullptr) {
    // Unknown identifier: a withheld-release decision may still be owed
    // to the strategy, but an honest node contributes nothing.
    relay(env);
    return;
  }
  if (independent_acks_) {
    // Ablation mode: answer immediately with a free-standing ack, no
    // onion nesting, no downstream wait.
    relay(env);
    net::ReportAck ack;
    ack.data_id = id;
    ack.report = paai1_independent_report(
        ctx().crypto(), ctx().keys().node_key(node().index()),
        node().index(), id);
    relay(envelope(ack, sim::Direction::kToSource));
    pending_.erase(id);
    return;
  }
  st->probe_seen = true;
  const auto wait = ctx().rtt(node().index()) + ctx().timer_slack();
  pending_.extend(id, node().sim().now() + wait + 2 * ctx().timer_slack());
  relay(env);
  node().sim().after(wait, [this, id] { on_wait_timeout(id); });
}

void OnionRelay::on_report(const sim::PacketEnv& env) {
  const auto ack = net::ReportAck::decode(env.view());
  if (!ack) return;
  if (independent_acks_) {
    relay(env);  // free-standing acks are forwarded blindly
    return;
  }
  RState* st = pending_.find(ack->data_id);
  if (st == nullptr || !st->probe_seen || st->responded) return;
  st->responded = true;
  const Bytes report = paai1_local_report(node().index(), ack->data_id);
  net::ReportAck wrapped;
  wrapped.data_id = ack->data_id;
  wrapped.report =
      onion_layer(ctx(), node().index(), ByteView(report.data(), report.size()),
                  ByteView(ack->report.data(), ack->report.size()));
  relay(envelope(wrapped, sim::Direction::kToSource));
  pending_.erase(ack->data_id);
}

void OnionRelay::on_wait_timeout(const net::PacketId& id) {
  RState* st = pending_.find(id);
  if (st == nullptr || st->responded) return;
  st->responded = true;
  const Bytes report = paai1_local_report(node().index(), id);
  net::ReportAck ack;
  ack.data_id = id;
  ack.report =
      onion_layer(ctx(), node().index(), ByteView(report.data(), report.size()));
  relay(envelope(ack, sim::Direction::kToSource));
  pending_.erase(id);
}

}  // namespace paai::protocols
