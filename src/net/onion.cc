#include "net/onion.h"

#include "util/wire.h"

namespace paai::net {

namespace {

/// MAC input is index || report || inner bytes — the serialized equivalent
/// of [i || R_i || A_{i+1}]_{K_i}.
crypto::Mac layer_mac(const crypto::CryptoProvider& crypto,
                      const crypto::Key& key, std::uint8_t node_index,
                      ByteView report, ByteView inner) {
  WireWriter mi(1 + 2 + report.size() + inner.size());
  mi.u8(node_index);
  mi.var_bytes(report);
  mi.raw(inner);
  const Bytes& buf = mi.data();
  return crypto.mac(key, ByteView(buf.data(), buf.size()));
}

}  // namespace

Bytes onion_originate(const crypto::CryptoProvider& crypto,
                      const crypto::Key& key, std::uint8_t node_index,
                      ByteView local_report) {
  return onion_wrap(crypto, key, node_index, local_report, ByteView{});
}

Bytes onion_wrap(const crypto::CryptoProvider& crypto, const crypto::Key& key,
                 std::uint8_t node_index, ByteView local_report,
                 ByteView inner) {
  const crypto::Mac mac =
      layer_mac(crypto, key, node_index, local_report, inner);
  WireWriter w(onion_layer_overhead(local_report.size()) + inner.size());
  w.u8(node_index);
  w.var_bytes(local_report);
  w.raw(ByteView(mac.data(), mac.size()));
  w.raw(inner);
  return std::move(w).take();
}

OnionVerifyResult onion_verify(
    const crypto::CryptoProvider& crypto, const std::vector<crypto::Key>& keys,
    std::size_t path_length, ByteView serialized,
    const std::function<bool(std::uint8_t, ByteView)>& report_ok,
    std::uint8_t first_index) {
  OnionVerifyResult result;
  std::size_t offset = 0;
  std::uint8_t expected = first_index;

  while (offset < serialized.size()) {
    WireReader r(serialized.subspan(offset));
    std::uint8_t index = 0;
    ByteView report;
    ByteView mac;
    if (!r.u8(index) || !r.var_view(report) ||
        !r.view(crypto::kMacSize, mac)) {
      return result;  // truncated / malformed layer: stop at last valid
    }
    if (index != expected || index > path_length) return result;

    const std::size_t header_len = onion_layer_overhead(report.size());
    const ByteView inner = serialized.subspan(offset + header_len);
    const crypto::Mac computed =
        layer_mac(crypto, keys[index], index, report, inner);
    if (!ct_equal(ByteView(computed.data(), computed.size()), mac)) {
      return result;
    }
    if (report_ok && !report_ok(index, report)) return result;

    ++result.valid_layers;
    result.origin = index;
    offset += header_len;
    ++expected;
  }
  result.complete = result.valid_layers > 0;
  return result;
}

}  // namespace paai::net
