#include "crypto/keystore.h"

#include <cstring>
#include <stdexcept>

#include "crypto/hmac.h"
#include "util/wire.h"

namespace paai::crypto {

Key derive_key(const Key& master, ByteView label, std::uint32_t index) {
  std::array<std::uint8_t, kMaxKeyLabel + 4> input{};
  if (label.size() > kMaxKeyLabel) {
    throw std::invalid_argument("derive_key: label longer than 60 bytes");
  }
  if (!label.empty()) std::memcpy(input.data(), label.data(), label.size());
  store_be(input.data() + label.size(), index);
  const Digest32 d = hmac_sha256(ByteView(master.data(), master.size()),
                                 ByteView(input.data(), label.size() + 4));
  Key out;
  std::copy(d.begin(), d.end(), out.begin());
  return out;
}

KeyStore::KeyStore(const Key& master, std::size_t path_length)
    : d_(path_length) {
  if (path_length < 2) {
    throw std::invalid_argument("KeyStore: path length must be >= 2 hops");
  }
  node_keys_.resize(path_length + 1);
  const Bytes label = bytes_of("paai-node-key");
  for (std::size_t i = 1; i <= path_length; ++i) {
    node_keys_[i] =
        derive_key(master, ByteView(label.data(), label.size()),
                   static_cast<std::uint32_t>(i));
  }
  const Bytes flabel = bytes_of("paai-fl-sampling-key");
  fl_keys_.resize(path_length + 1);
  for (std::size_t i = 1; i <= path_length; ++i) {
    fl_keys_[i] = derive_key(master, ByteView(flabel.data(), flabel.size()),
                             static_cast<std::uint32_t>(i));
  }
  const Bytes slabel = bytes_of("paai-sampling-key");
  sampling_key_ =
      derive_key(master, ByteView(slabel.data(), slabel.size()), 0);
}

const Key& KeyStore::fl_sampling_key(std::size_t i) const {
  if (i < 1 || i > d_) {
    throw std::out_of_range("KeyStore::fl_sampling_key: index outside [1, d]");
  }
  return fl_keys_[i];
}

const Key& KeyStore::node_key(std::size_t i) const {
  if (i < 1 || i > d_) {
    throw std::out_of_range("KeyStore::node_key: index outside [1, d]");
  }
  return node_keys_[i];
}

Key test_master_key(std::uint64_t seed) {
  Key k{};
  for (int i = 0; i < 8; ++i) {
    k[i] = static_cast<std::uint8_t>(seed >> (56 - 8 * i));
    k[8 + i] = static_cast<std::uint8_t>(~seed >> (56 - 8 * i));
  }
  k[31] = 0x42;
  return k;
}

}  // namespace paai::crypto
