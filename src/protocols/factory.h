// Protocol installation: builds the per-node agents for one protocol on
// one PathNetwork and wires in adversary strategies.
//
// This is the main entry point of the library: given a path, keys, and a
// protocol choice, it attaches a source agent to F_0, relay agents to
// F_1..F_{d-1} (optionally compromised), and a destination agent to F_d,
// and returns the source's Scorer: packets sent, the per-link estimates,
// the identify phase's verdict at a threshold and the observed e2e rate.
#pragma once

#include <vector>

#include "adversary/strategy.h"
#include "protocols/context.h"
#include "protocols/score.h"
#include "sim/network.h"

namespace paai::protocols {

/// `strategies[i]` (if non-null) compromises node F_i; entries for indices
/// 0 and d are ignored — the paper assumes S and D honest. The vector may
/// be shorter than d+1. Strategy objects must outlive the network, and the
/// returned Scorer lives as long as the network.
const Scorer& install_protocol(
    ProtocolKind kind, const ProtocolContext& ctx, sim::PathNetwork& net,
    const std::vector<adversary::Strategy*>& strategies = {});

}  // namespace paai::protocols
