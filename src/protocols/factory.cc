#include "protocols/factory.h"

#include <memory>
#include <stdexcept>

#include "protocols/comb1.h"
#include "protocols/comb2.h"
#include "protocols/fullack.h"
#include "protocols/paai1.h"
#include "protocols/paai2.h"
#include "protocols/sigack.h"
#include "protocols/statfl.h"

namespace paai::protocols {

namespace {

adversary::Strategy* strategy_for(
    const std::vector<adversary::Strategy*>& strategies, std::size_t i) {
  return i < strategies.size() ? strategies[i] : nullptr;
}

template <typename Source, typename Relay, typename Dest>
const Scorer& install(const ProtocolContext& ctx, sim::PathNetwork& net,
                      const std::vector<adversary::Strategy*>& strategies) {
  auto source = std::make_unique<Source>(ctx);
  const Scorer& scorer = source->scorer();
  net.source().attach_agent(std::move(source));

  for (std::size_t i = 1; i < net.length(); ++i) {
    auto relay = std::make_unique<Relay>(ctx);
    relay->set_strategy(strategy_for(strategies, i));
    net.node(i).attach_agent(std::move(relay));
  }

  net.destination().attach_agent(std::make_unique<Dest>(ctx));
  return scorer;
}

}  // namespace

const Scorer& install_protocol(
    ProtocolKind kind, const ProtocolContext& ctx, sim::PathNetwork& net,
    const std::vector<adversary::Strategy*>& strategies) {
  if (net.length() != ctx.d()) {
    throw std::invalid_argument(
        "install_protocol: context and network disagree on path length");
  }
  switch (kind) {
    case ProtocolKind::kFullAck:
      return install<FullAckSource, FullAckRelay, FullAckDestination>(
          ctx, net, strategies);
    case ProtocolKind::kPaai1:
      return install<Paai1Source, Paai1Relay, Paai1Destination>(ctx, net,
                                                                strategies);
    case ProtocolKind::kPaai2:
      return install<Paai2Source, Paai2Relay, Paai2Destination>(ctx, net,
                                                                strategies);
    case ProtocolKind::kCombination1:
      return install<Comb1Source, Comb1Relay, Comb1Destination>(ctx, net,
                                                                strategies);
    case ProtocolKind::kCombination2:
      return install<Comb2Source, Comb2Relay, Comb2Destination>(ctx, net,
                                                                strategies);
    case ProtocolKind::kStatisticalFl:
      return install<StatFlSource, StatFlRelay, StatFlDestination>(
          ctx, net, strategies);
    case ProtocolKind::kSigAck:
      return install<SigAckSource, SigAckRelay, SigAckDestination>(
          ctx, net, strategies);
  }
  throw std::invalid_argument("install_protocol: unknown protocol kind");
}

}  // namespace paai::protocols
