// Combination 1 (§10): every node acknowledges a selected fraction of
// *lost* data packets.
//
// PAAI-1's probe function is re-keyed with K_d (the key shared between S
// and D), so the destination can independently decide that a packet is
// sampled and ack it right away. The source then solicits the O(d) onion
// report only for a sampled packet whose destination ack went missing —
// cutting PAAI-1's communication overhead from O(pd) to O(p(1 + psi d))
// while keeping the same detection rate. The cost is storage: relays
// cannot evaluate the K_d-keyed sampler, so they must hold state for
// *every* packet across the destination-ack round trip (Table 1's
// r_0(0.5 + 2p) nu bound).
//
// Implementation: the full-ack agents in their Combination-1 modes — the
// source monitors (and the destination acks) only K_d-sampled packets;
// relays are full-ack relays unchanged (store every id, contribute onion
// layers on probes, and hold state for the full horizon even after the
// destination ack passes — see OnionRelay).
#pragma once

#include "protocols/fullack.h"

namespace paai::protocols {

class Comb1Source final : public FullAckSource {
 public:
  explicit Comb1Source(const ProtocolContext& ctx)
      : FullAckSource(ctx, /*sampled_mode=*/true) {}
};

using Comb1Relay = FullAckRelay;

class Comb1Destination final : public FullAckDestination {
 public:
  explicit Comb1Destination(const ProtocolContext& ctx)
      : FullAckDestination(ctx, /*ack_only_sampled=*/true) {}
};

}  // namespace paai::protocols
