// Wire formats for every packet the AAI protocols exchange.
//
// §3.3: for a data packet m, H(m) is the packet identifier; acks have the
// structure a_i = <H(m) || A_i^m>. We give each packet an explicit
// big-endian wire encoding (bounds-checked on decode) so that a node only
// ever acts on bytes it could actually have parsed off a link. Data
// payloads are represented by their *size* (the simulator does not need the
// application bytes), but all protocol-relevant fields are real.
//
// Every encode() writes into `reuse` (cleared, capacity kept) and returns
// it, so a caller handing in a recycled buffer allocates nothing.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "crypto/provider.h"
#include "util/bytes.h"
#include "util/wire.h"

namespace paai::net {

/// Truncated hash of the data packet header — the identifier H(m).
using PacketId = std::array<std::uint8_t, 16>;

enum class PacketType : std::uint8_t {
  kData = 1,          // m = <data || timestamp>
  kDestAck = 2,       // a_d = [H(m)]_{K_d} from the destination
  kProbe = 3,         // ack request c (PAAI-1: H(m); PAAI-2: <H(m) || Z>)
  kReportAck = 4,     // a_i = <H(m) || A_i> carrying an onion/encrypted report
  kFlReport = 5,      // statistical-FL interval report (onion of counters)
  kFlRequest = 6,     // statistical-FL end-of-interval report request
};

/// Header of a data packet m = <data || timestamp>. The identifier is the
/// hash of this header; `payload_size` stands in for the actual data bytes.
struct DataPacket {
  /// Encoded header: type tag, seq, timestamp, payload size.
  static constexpr std::size_t kHeaderSize = 1 + 8 + 8 + 2;

  std::uint64_t seq = 0;            // source-assigned sequence number
  std::uint64_t timestamp_ns = 0;   // send time (loose clock sync assumed)
  std::uint16_t payload_size = 0;   // simulated payload length in bytes

  Bytes encode(Bytes reuse = {}) const;
  static std::optional<DataPacket> decode(ByteView wire);

  /// H(m): truncated hash of the encoded header (built on the stack).
  PacketId id(const crypto::CryptoProvider& crypto) const;

  /// Total on-wire size including the simulated payload.
  std::size_t wire_size() const { return kHeaderSize + payload_size; }
};

/// Destination's per-packet ack in the full-ack scheme and PAAI-2 phase 1.
struct DestAck {
  PacketId data_id{};
  crypto::Mac tag{};  // [H(m)]_{K_d}

  Bytes encode(Bytes reuse = {}) const;
  static std::optional<DestAck> decode(ByteView wire);
  std::size_t wire_size() const { return 1 + data_id.size() + tag.size(); }
};

/// Probe (ack request). PAAI-1 probes carry only H(m); PAAI-2 probes add
/// the random challenge Z that drives the selection predicates. `auth` is
/// the optional footnote-7 MAC chain (one 8-byte tag per node, node i's at
/// offset (i-1)*8) that stops bogus probes from draining relay resources.
struct Probe {
  PacketId data_id{};
  std::uint64_t challenge = 0;  // Z; 0 (unused) in PAAI-1 / full-ack
  Bytes auth;                   // empty when probe authentication is off

  Bytes encode(Bytes reuse = {}) const;
  static std::optional<Probe> decode(ByteView wire);
  std::size_t wire_size() const {
    return 1 + data_id.size() + 8 + 2 + auth.size();
  }
};

/// Ack carrying a report: a_i = <H(m) || A_i>. `report` is either a
/// serialized onion report (full-ack, PAAI-1, statistical FL) or a
/// fixed-size layered ciphertext (PAAI-2).
struct ReportAck {
  PacketId data_id{};
  Bytes report;

  Bytes encode(Bytes reuse = {}) const;
  static std::optional<ReportAck> decode(ByteView wire);
  std::size_t wire_size() const { return 1 + data_id.size() + 2 + report.size(); }
};

/// Statistical-FL end-of-interval request, identified by interval number.
struct FlRequest {
  std::uint64_t interval = 0;

  Bytes encode(Bytes reuse = {}) const;
  static std::optional<FlRequest> decode(ByteView wire);
  std::size_t wire_size() const { return 1 + 8; }
};

/// Statistical-FL interval report (an onion report over per-node counters).
struct FlReport {
  std::uint64_t interval = 0;
  Bytes report;

  Bytes encode(Bytes reuse = {}) const;
  static std::optional<FlReport> decode(ByteView wire);
  std::size_t wire_size() const { return 1 + 8 + 2 + report.size(); }
};

/// Reads the type tag without consuming the buffer.
std::optional<PacketType> peek_type(ByteView wire);

/// Computes a PacketId from an arbitrary message (truncated hash).
PacketId packet_id_of(const crypto::CryptoProvider& crypto, ByteView message);

/// Renders an id prefix for diagnostics ("3fa9c1..").
std::string id_prefix(const PacketId& id);

}  // namespace paai::net
