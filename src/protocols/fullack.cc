#include "protocols/fullack.h"

namespace paai::protocols {

// ---------------------------------------------------------------- source

FullAckSource::FullAckSource(const ProtocolContext& ctx, bool sampled_mode)
    : SourceAgent(ctx, sampled_mode ? ProtocolKind::kCombination1
                                    : ProtocolKind::kFullAck),
      sampled_mode_(sampled_mode),
      sampler_(ctx.crypto(), ctx.keys().destination_key(),
               ctx.params().probe_probability),
      // Combination 1 waits one timer slack longer for the onion than
      // full-ack does; unifying the two would change full-ack's verdicts
      // (docs/PROTOCOLS.md, Combinations).
      probe_wait_(ctx.r0() + (sampled_mode ? 2 : 1) * ctx.timer_slack()) {}

bool FullAckSource::before_send(const net::PacketId& id, std::uint64_t) {
  if (!sampled_mode_) track(id, {}, 3 * ctx_.r0() + 8 * ctx_.timer_slack());
  return !sampled_mode_;
}

void FullAckSource::after_send(const net::PacketId& id, std::uint64_t seq,
                               bool) {
  if (sampled_mode_) {
    // Only K_d-sampled packets are monitored; D acks those unprompted.
    if (!sampler_.sampled(ByteView(id.data(), id.size()))) return;
    record(obs::EventKind::kSampleSelect, id, seq);
    track(id, {}, 3 * ctx_.r0() + 8 * ctx_.timer_slack());
  }
  node().sim().after(ctx_.r0() + ctx_.timer_slack(),
                     [this, id] { probe_missing_ack(id, probe_wait_); });
}

void FullAckSource::on_probe_timeout(const net::PacketId& id) {
  if (pending_.find(id) == nullptr) return;  // resolved by a report
  // No report at all: the loss is on the source's own downstream link
  // (PAAI-1 footnote 8 reasoning applies here identically).
  credit_blame(id, 0);
  pending_.erase(id);
}

void FullAckSource::on_dest_ack(const net::DestAck& ack) {
  if (pending_.find(ack.data_id) == nullptr) return;
  if (!dest_ack_ok(ack)) return;  // forged/corrupted: the timeout probes
  // Delivery confirmed. A probe may already be in flight (late ack); the
  // outcome is clean either way.
  record(obs::EventKind::kAckRecv, ack.data_id, /*b=*/0);
  credit_clean(ack.data_id);
  pending_.erase(ack.data_id);
}

void FullAckSource::on_report(const net::ReportAck& ack) {
  const ProbeRound* p = pending_.find(ack.data_id);
  if (p == nullptr || !p->probed) return;
  const net::PacketId& id = ack.data_id;
  credit_onion(ack, [this, &id](std::uint8_t i, ByteView r) {
    return fullack_report_ok(ctx_, i, r, id);
  });
}

// ----------------------------------------------------------- destination

FullAckDestination::FullAckDestination(const ProtocolContext& ctx,
                                       bool ack_only_sampled)
    : ctx_(ctx),
      ack_only_sampled_(ack_only_sampled),
      sampler_(ctx.crypto(), ctx.keys().destination_key(),
               ctx.params().probe_probability),
      pending_(nullptr) {}

void FullAckDestination::start() { pending_.attach(node(), ctx_.r0() / 2); }

void FullAckDestination::on_packet(const sim::PacketEnv& env) {
  pending_.purge(node().sim().now());
  const auto type = net::peek_type(env.view());
  if (!type) return;

  if (*type == net::PacketType::kData) {
    const auto data = decode_fresh(ctx_, node(), env);
    if (!data) return;
    if (ack_only_sampled_ &&
        !sampler_.sampled(ByteView(data->id.data(), data->id.size()))) {
      return;
    }
    const auto horizon = ack_only_sampled_
                             ? 2 * ctx_.r0() + 4 * ctx_.timer_slack()
                             : state_horizon(ctx_, ctx_.d());
    pending_.put(data->id, DState{}, node().sim().now() + horizon);
    net::DestAck ack;
    ack.data_id = data->id;
    ack.tag = dest_ack_tag(ctx_, data->id);
    originate(node(), sim::Direction::kToSource, ack);
  } else if (*type == net::PacketType::kProbe) {
    const auto probe = net::Probe::decode(env.view());
    if (!probe || pending_.find(probe->data_id) == nullptr) return;
    const Bytes report = fullack_dest_report(ctx_, probe->data_id);
    net::ReportAck ack;
    ack.data_id = probe->data_id;
    ack.report =
        onion_layer(ctx_, ctx_.d(), ByteView(report.data(), report.size()));
    originate(node(), sim::Direction::kToSource, ack);
    pending_.erase(probe->data_id);
  }
}

}  // namespace paai::protocols
