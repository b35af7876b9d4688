// Combination 2 (§10): one *selected* node acknowledges a *selected
// fraction* of data packets — PAAI-2's oblivious selection applied only to
// a K_d-keyed sample of the traffic.
//
// The probe function is keyed with the key shared between S and D, so the
// destination independently knows which packets to ack. Communication
// drops below both PAAI-1 and PAAI-2 (O(p) per packet), at the price of a
// detection rate slower by the 1/p factor (Table 1).
//
// Implementation: the PAAI-2 source and destination in their Combination-2
// modes, and the PAAI-2 relay unchanged — the protocol machinery
// (challenges, predicates, layered re-encryption, prefix scoring) is
// identical. §10 lets a relay that sees a destination ack pass free its
// state early; ours do not, because relays cannot authenticate a_d and a
// corrupted ack would flush honest state (DESIGN.md §"findings").
#pragma once

#include "protocols/paai2.h"

namespace paai::protocols {

class Comb2Source final : public Paai2Source {
 public:
  explicit Comb2Source(const ProtocolContext& ctx)
      : Paai2Source(ctx, /*sampled_mode=*/true) {}
};

using Comb2Relay = Paai2Relay;

class Comb2Destination final : public Paai2Destination {
 public:
  explicit Comb2Destination(const ProtocolContext& ctx)
      : Paai2Destination(ctx, /*ack_only_sampled=*/true) {}
};

}  // namespace paai::protocols
