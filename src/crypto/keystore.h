// Key management for one monitored path.
//
// §3.2: "the source shares a pairwise symmetric key with each intermediate
// node on the path". We model that with a KeyStore: the source derives
// per-node keys K_1..K_d from a master secret (HKDF-style expansion via
// HMAC), and each node holds only its own K_i. The source additionally
// holds a private sampling key (PAAI-1's SS algorithm is keyed with "a
// secret key known only to S") and a probe key shared with the destination
// (used by the §10 combinations).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/provider.h"
#include "util/bytes.h"

namespace paai::crypto {

/// Longest label derive_key() takes: label || index is built on the stack.
constexpr std::size_t kMaxKeyLabel = 60;

/// Derives a subkey = HMAC(master, label || index as 4 big-endian bytes).
/// Deterministic, so the source and node F_i agree on K_i after a (not
/// modeled) key exchange. Throws std::invalid_argument on a label longer
/// than kMaxKeyLabel bytes.
Key derive_key(const Key& master, ByteView label, std::uint32_t index);

class KeyStore {
 public:
  /// d = path length in hops; nodes are F_0 = S .. F_d = D, so per-node
  /// keys exist for indices 1..d.
  KeyStore(const Key& master, std::size_t path_length);

  /// Pairwise key K_i shared between S and F_i, i in [1, d].
  const Key& node_key(std::size_t i) const;

  /// Sampling key known only to S (PAAI-1 secure sampling).
  const Key& source_sampling_key() const { return sampling_key_; }

  /// Statistical-FL per-node sampling key for F_i: shared between S and
  /// F_i only, so no node (compromised or not) can predict which packets
  /// another node counts. Derived independently of node_key(i).
  const Key& fl_sampling_key(std::size_t i) const;

  /// Key shared between S and D only (== node_key(d)); the §10 combinations
  /// key their probe function with it.
  const Key& destination_key() const { return node_key(d_); }

  std::size_t path_length() const { return d_; }

 private:
  std::size_t d_;
  std::vector<Key> node_keys_;  // index 0 unused
  std::vector<Key> fl_keys_;    // index 0 unused
  Key sampling_key_;
};

/// Test/simulation helper: a master key with a recognizable pattern.
Key test_master_key(std::uint64_t seed);

}  // namespace paai::crypto
