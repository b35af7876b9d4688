#include "protocols/agent.h"

#include "protocols/paai1.h"
#include "util/wire.h"

namespace paai::protocols {

net::PacketId data_id(const ProtocolContext& ctx, const sim::PacketEnv& env,
                      const net::DataPacket& pkt) {
  const net::PacketId* id = env.wire.id();
  return id != nullptr ? *id : pkt.id(ctx.crypto());
}

std::optional<DecodedData> decode_fresh(const ProtocolContext& ctx,
                                        sim::Node& node,
                                        const sim::PacketEnv& env) {
  const auto pkt = net::DataPacket::decode(env.view());
  if (!pkt) return std::nullopt;
  const sim::SimDuration age =
      node.local_now() - static_cast<sim::SimTime>(pkt->timestamp_ns);
  if (age > ctx.freshness_window() || age < -ctx.freshness_window()) {
    return std::nullopt;
  }
  return DecodedData{*pkt, data_id(ctx, env, *pkt)};
}

crypto::Mac dest_ack_tag(const ProtocolContext& ctx, const net::PacketId& id) {
  return ctx.crypto().mac(ctx.keys().node_key(ctx.d()),
                          ByteView(id.data(), id.size()));
}

sim::SimDuration state_horizon(const ProtocolContext& ctx,
                               std::size_t node_index) {
  return ctx.r0() + ctx.rtt(node_index) + 3 * ctx.timer_slack();
}

Bytes fullack_dest_report(const ProtocolContext& ctx,
                          const net::PacketId& id) {
  WireWriter w(1 + id.size() + crypto::kMacSize);
  w.u8(static_cast<std::uint8_t>(ctx.d()));
  w.raw(ByteView(id.data(), id.size()));
  const crypto::Mac tag = dest_ack_tag(ctx, id);
  w.raw(ByteView(tag.data(), tag.size()));
  return std::move(w).take();
}

bool fullack_report_ok(const ProtocolContext& ctx, std::uint8_t index,
                       ByteView report, const net::PacketId& id) {
  if (index != ctx.d()) return paai1_report_ok(index, report, id);
  const std::size_t base = 1 + id.size();
  if (report.size() != base + crypto::kMacSize ||
      !paai1_report_ok(index, report.first(base), id)) {
    return false;
  }
  const crypto::Mac expected = dest_ack_tag(ctx, id);
  return ct_equal(ByteView(expected.data(), expected.size()),
                  report.subspan(base));
}

Bytes onion_layer(const ProtocolContext& ctx, std::size_t index,
                  ByteView report) {
  return net::onion_originate(ctx.crypto(), ctx.keys().node_key(index),
                              static_cast<std::uint8_t>(index), report);
}

Bytes onion_layer(const ProtocolContext& ctx, std::size_t index,
                  ByteView report, ByteView inner) {
  return net::onion_wrap(ctx.crypto(), ctx.keys().node_key(index),
                         static_cast<std::uint8_t>(index), report, inner);
}

}  // namespace paai::protocols
