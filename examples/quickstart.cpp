// Quickstart: monitor a 6-hop path with PAAI-1 and localize a packet
// dropper.
//
// This walks the full public API surface in ~80 lines:
//   1. build a simulated path (links with natural loss and latency);
//   2. derive per-node keys from a master secret;
//   3. install the PAAI-1 agents (source / relays / destination);
//   4. compromise one node with a dropping strategy;
//   5. run traffic and read the identification verdict off the source's
//      Scorer.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "adversary/strategy.h"
#include "crypto/keystore.h"
#include "crypto/provider.h"
#include "protocols/factory.h"
#include "sim/network.h"
#include "sim/simulator.h"

using namespace paai;

int main() {
  // 1. The forwarding path: S = F_0, relays F_1..F_5, D = F_6; every link
  //    drops ~1% naturally and adds 0-5 ms latency.
  sim::Simulator simulator;
  sim::PathConfig path;
  path.length = 6;
  path.natural_loss = 0.01;
  path.max_latency_ms = 5.0;
  path.seed = 2026;
  sim::PathNetwork network(simulator, path);

  // 2. Crypto: real SHA-256 / HMAC / ChaCha20, with pairwise keys
  //    K_1..K_d derived from a master secret the source holds.
  const auto crypto = crypto::make_real_crypto();
  const crypto::KeyStore keys(crypto::test_master_key(2026), path.length);

  // 3. Protocol parameters: PAAI-1 samples packets for probing with
  //    p = 1/d^2 and sends 100 data packets per second.
  protocols::ProtocolParams params;
  params.probe_probability = 1.0 / 36.0;
  params.send_rate_pps = 100.0;
  params.total_packets = 60000;
  const protocols::ProtocolContext ctx(*crypto, keys, network, params);

  // 4. Node F_4 is compromised: it drops a fifth of the data packets it
  //    should forward, while answering ack requests as if honest.
  adversary::TypeRates rates;
  rates.data = 0.2;
  const auto strategy = adversary::make_type_rate_dropper(rates, Rng(7));
  std::vector<adversary::Strategy*> compromised(path.length + 1, nullptr);
  compromised[4] = strategy.get();

  const protocols::Scorer& source = protocols::install_protocol(
      protocols::ProtocolKind::kPaai1, ctx, network, compromised);
  network.start_agents();

  // 5. Run and inspect. The decision threshold sits between the natural
  //    rate (0.01) and the per-link threshold alpha (0.03).
  std::printf("sending %llu packets through F_0 -> ... -> F_6 "
              "(F_4 drops 20%% of data)...\n",
              static_cast<unsigned long long>(params.total_packets));
  simulator.run();

  std::printf("\nsource observed a %.1f%% failure rate over %llu monitored "
              "rounds\n",
              source.observed_e2e_rate() * 100.0,
              static_cast<unsigned long long>(source.observations()));
  std::printf("per-link drop-rate estimates:\n");
  const auto thetas = source.thetas();
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    std::printf("  l_%zu (F_%zu -> F_%zu): %.4f\n", i, i, i + 1, thetas[i]);
  }

  const auto convicted = source.convicted(0.018);
  if (convicted.empty()) {
    std::printf("\nno link convicted — path looks healthy\n");
    return 1;
  }
  for (const std::size_t link : convicted) {
    std::printf("\n=> link l_%zu (between F_%zu and F_%zu) convicted as "
                "malicious — reroute around it\n",
                link, link, link + 1);
  }
  return 0;
}
