#include "net/packet.h"

#include <cstring>
#include <utility>

namespace paai::net {

namespace {

void put_id(WireWriter& w, const PacketId& id) {
  w.raw(ByteView(id.data(), id.size()));
}

bool check_type(WireReader& r, PacketType expected) {
  std::uint8_t t = 0;
  return r.u8(t) && t == static_cast<std::uint8_t>(expected);
}

using DataHeader = std::array<std::uint8_t, DataPacket::kHeaderSize>;

DataHeader header_of(const DataPacket& p) {
  DataHeader h;
  h[0] = static_cast<std::uint8_t>(PacketType::kData);
  store_be(h.data() + 1, p.seq);
  store_be(h.data() + 9, p.timestamp_ns);
  store_be(h.data() + 17, p.payload_size);
  return h;
}

}  // namespace

Bytes DataPacket::encode(Bytes reuse) const {
  const DataHeader h = header_of(*this);
  reuse.assign(h.begin(), h.end());
  return reuse;
}

std::optional<DataPacket> DataPacket::decode(ByteView wire) {
  WireReader r(wire);
  if (!check_type(r, PacketType::kData)) return std::nullopt;
  DataPacket p;
  if (!r.u64(p.seq) || !r.u64(p.timestamp_ns) || !r.u16(p.payload_size)) {
    return std::nullopt;
  }
  return p;
}

PacketId DataPacket::id(const crypto::CryptoProvider& crypto) const {
  const DataHeader h = header_of(*this);
  return packet_id_of(crypto, ByteView(h.data(), h.size()));
}

Bytes DestAck::encode(Bytes reuse) const {
  WireWriter w(wire_size(), std::move(reuse));
  w.u8(static_cast<std::uint8_t>(PacketType::kDestAck));
  put_id(w, data_id);
  w.raw(ByteView(tag.data(), tag.size()));
  return std::move(w).take();
}

std::optional<DestAck> DestAck::decode(ByteView wire) {
  WireReader r(wire);
  if (!check_type(r, PacketType::kDestAck)) return std::nullopt;
  DestAck a;
  if (!r.fixed(a.data_id) || !r.fixed(a.tag)) return std::nullopt;
  return a;
}

Bytes Probe::encode(Bytes reuse) const {
  WireWriter w(wire_size(), std::move(reuse));
  w.u8(static_cast<std::uint8_t>(PacketType::kProbe));
  put_id(w, data_id);
  w.u64(challenge);
  w.var_bytes(ByteView(auth.data(), auth.size()));
  return std::move(w).take();
}

std::optional<Probe> Probe::decode(ByteView wire) {
  WireReader r(wire);
  if (!check_type(r, PacketType::kProbe)) return std::nullopt;
  Probe p;
  if (!r.fixed(p.data_id) || !r.u64(p.challenge) || !r.var_bytes(p.auth)) {
    return std::nullopt;
  }
  return p;
}

Bytes ReportAck::encode(Bytes reuse) const {
  WireWriter w(wire_size(), std::move(reuse));
  w.u8(static_cast<std::uint8_t>(PacketType::kReportAck));
  put_id(w, data_id);
  w.var_bytes(ByteView(report.data(), report.size()));
  return std::move(w).take();
}

std::optional<ReportAck> ReportAck::decode(ByteView wire) {
  WireReader r(wire);
  if (!check_type(r, PacketType::kReportAck)) return std::nullopt;
  ReportAck a;
  if (!r.fixed(a.data_id) || !r.var_bytes(a.report)) return std::nullopt;
  return a;
}

Bytes FlRequest::encode(Bytes reuse) const {
  WireWriter w(wire_size(), std::move(reuse));
  w.u8(static_cast<std::uint8_t>(PacketType::kFlRequest));
  w.u64(interval);
  return std::move(w).take();
}

std::optional<FlRequest> FlRequest::decode(ByteView wire) {
  WireReader r(wire);
  if (!check_type(r, PacketType::kFlRequest)) return std::nullopt;
  FlRequest q;
  if (!r.u64(q.interval)) return std::nullopt;
  return q;
}

Bytes FlReport::encode(Bytes reuse) const {
  WireWriter w(wire_size(), std::move(reuse));
  w.u8(static_cast<std::uint8_t>(PacketType::kFlReport));
  w.u64(interval);
  w.var_bytes(ByteView(report.data(), report.size()));
  return std::move(w).take();
}

std::optional<FlReport> FlReport::decode(ByteView wire) {
  WireReader r(wire);
  if (!check_type(r, PacketType::kFlReport)) return std::nullopt;
  FlReport p;
  if (!r.u64(p.interval) || !r.var_bytes(p.report)) return std::nullopt;
  return p;
}

std::optional<PacketType> peek_type(ByteView wire) {
  if (wire.empty()) return std::nullopt;
  const std::uint8_t t = wire[0];
  if (t < static_cast<std::uint8_t>(PacketType::kData) ||
      t > static_cast<std::uint8_t>(PacketType::kFlRequest)) {
    return std::nullopt;
  }
  return static_cast<PacketType>(t);
}

PacketId packet_id_of(const crypto::CryptoProvider& crypto, ByteView message) {
  const auto digest = crypto.hash(message);
  PacketId id;
  std::memcpy(id.data(), digest.data(), id.size());
  return id;
}

std::string id_prefix(const PacketId& id) {
  return to_hex(ByteView(id.data(), 3)) + "..";
}

}  // namespace paai::net
