#include "runner/experiment.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "crypto/keystore.h"
#include "faults/injector.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "protocols/factory.h"
#include "sim/simulator.h"

namespace paai::runner {

namespace {

/// Bridges the live FaultInjector to the adversary observation channel.
/// The runner is the only layer that sees both sides, which keeps
/// paai_adversary free of any dependency on paai_faults.
class InjectorCover final : public adversary::FaultObservation {
 public:
  explicit InjectorCover(const faults::FaultInjector* injector)
      : injector_(injector) {}

  bool cover_active(sim::SimTime now) const override {
    return injector_ != nullptr && injector_->cover_active(now);
  }

 private:
  const faults::FaultInjector* injector_;
};

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  sim::Simulator simulator;

  // Provision the wait-timer cascade for the fault schedule: latency
  // retunes above the configured maximum and reordering delay widen the
  // RTT bounds (and nothing else — link construction and RNG streams are
  // untouched, so an empty plan leaves runs bit-identical).
  sim::PathConfig path_config = config.path;
  if (!config.faults.empty()) {
    path_config.extra_rtt_slack_ms +=
        std::max(0.0,
                 config.faults.max_latency_ms() - path_config.max_latency_ms) +
        config.faults.max_extra_delay_ms();
  }
  sim::PathNetwork net(simulator, path_config);

  // Forensic event log (optional, source-node attributed). Strictly
  // observational: never read back into the result.
  obs::EventLog* const events = path_config.events;
  if (events != nullptr) {
    events->append(0, obs::EventKind::kRunStart, /*ts_ns=*/0, /*link=*/-1,
                   config.params.total_packets, config.path.seed,
                   config.decision_threshold);
    // Stream self-description: everything src/stream needs to rebuild the
    // scoring state from the log alone (protocol, path length, blame-mode
    // code, threshold) — see stream::ScoreEngine.
    events->append(0, obs::EventKind::kRunConfig, /*ts_ns=*/0,
                   config.params.blame.encode32(),
                   static_cast<std::uint64_t>(config.protocol),
                   static_cast<std::uint64_t>(config.path.length),
                   config.decision_threshold);
  }

  const auto provider = crypto::make_crypto(config.crypto);
  const crypto::KeyStore keys(crypto::test_master_key(config.path.seed),
                              net.length());
  const protocols::ProtocolContext ctx(*provider, keys, net, config.params);

  // Link-level faults: compose the malicious rate with the natural loss.
  for (const auto& fault : config.link_faults) {
    if (fault.link < net.length()) {
      net.link(fault.link)
          .set_loss_rate(1.0 - (1.0 - config.path.natural_loss) *
                                   (1.0 - fault.extra_loss));
    }
  }

  // Scripted benign faults come after link_faults so a Gilbert-Elliott
  // clause replaces whatever loss rate (natural or composed) its link
  // currently has — and before the strategies, whose observation channel
  // may watch the injector's fault windows. (Neither strategy
  // construction nor the loss-rate pokes above schedule simulator events,
  // so this ordering leaves the event sequence — and thus every run
  // without adaptive adversaries — bit-identical.)
  std::optional<faults::FaultInjector> injector;
  if (!config.faults.empty()) {
    injector.emplace(simulator, net, config.faults);
  }
  const InjectorCover cover(injector ? &*injector : nullptr);

  // Build strategies; index them by node. Every strategy gets its own
  // forked Rng stream plus the public protocol parameters (§5: the
  // adversary knows them all) and the ambient fault-cover signal.
  adversary::Environment env;
  env.decision_threshold = config.decision_threshold;
  env.natural_loss = config.path.natural_loss;
  env.cover = injector ? &cover : nullptr;
  Rng adv_rng(config.path.seed ^ 0xadull << 48);
  std::vector<std::unique_ptr<adversary::Strategy>> owned;
  std::vector<adversary::Strategy*> by_node(net.length() + 1, nullptr);
  for (const auto& spec : config.adversaries) {
    owned.push_back(
        adversary::make_strategy(spec, env, adv_rng.fork(owned.size() + 1)));
    if (spec.node >= 1 && spec.node < net.length()) {
      by_node[spec.node] = owned.back().get();
    }
  }

  const protocols::Scorer& source =
      protocols::install_protocol(config.protocol, ctx, net, by_node);
  net.start_agents();

  const auto send_period = static_cast<sim::SimDuration>(
      static_cast<double>(sim::kSecond) / config.params.send_rate_pps);
  const sim::SimTime settle = 4 * net.path_rtt_bound();
  const sim::SimTime end_time =
      static_cast<sim::SimTime>(config.params.total_packets + 1) *
          send_period +
      settle;

  ExperimentResult result;

  // Conviction snapshots: packet N has settled ~3 RTTs after it was sent.
  for (const std::uint64_t n : config.checkpoints) {
    const sim::SimTime t =
        static_cast<sim::SimTime>(n) * send_period + 3 * net.path_rtt_bound();
    simulator.at(t, [&result, &simulator, &source, n, &config, events] {
      std::vector<std::size_t> convicted =
          source.convicted(config.decision_threshold);
      if (events != nullptr) {
        const auto thetas = source.thetas();
        for (const std::size_t link : convicted) {
          events->append(0, obs::EventKind::kConviction, simulator.now(),
                         static_cast<std::int32_t>(link), /*a=*/n,
                         source.observations(),
                         link < thetas.size() ? thetas[link] : 0.0);
        }
      }
      result.checkpoints.push_back(CheckpointResult{n, std::move(convicted)});
    });
  }

  // Storage sampling across all nodes.
  if (config.storage_sample_period > 0) {
    result.storage.resize(net.length() + 1);
    const auto period = config.storage_sample_period;
    // Recursive sampling event.
    struct Sampler {
      sim::Simulator& simulator;
      sim::PathNetwork& net;
      ExperimentResult& result;
      sim::SimDuration period;
      sim::SimTime end;

      void operator()() {
        const double t = sim::to_seconds(simulator.now());
        for (std::size_t i = 0; i <= net.length(); ++i) {
          result.storage[i].add(
              t, static_cast<double>(net.node(i).storage().current()));
        }
        if (simulator.now() + period <= end) {
          simulator.after(period, *this);
        }
      }
    };
    simulator.after(period,
                    Sampler{simulator, net, result, period, end_time});
  }

  // Live telemetry: a recursive sampler event ticks the sink with the
  // source's packet count as the unit axis and the simulated clock as the
  // virtual timestamp. The sampler is strictly observational — it reads
  // the source, never mutates anything, and the simulator's tie-break seq
  // means an extra event cannot reorder protocol events relative to each
  // other. Its own fire count is subtracted from events_processed below
  // so results stay bit-identical with telemetry on.
  std::uint64_t telemetry_fires = 0;
  if (config.telemetry != nullptr) {
    const sim::SimDuration telemetry_period =
        send_period *
        static_cast<sim::SimDuration>(
            std::max<std::uint64_t>(1, config.telemetry->every()));
    struct TelemetrySampler {
      sim::Simulator& simulator;
      obs::TelemetrySink& sink;
      const protocols::Scorer& source;
      std::uint64_t& fires;
      sim::SimDuration period;
      sim::SimTime end;
      std::uint64_t sampled = 0;  // packets sent at the previous sample

      void operator()() {
        ++fires;
        const std::uint64_t sent = source.packets_sent();
        sink.sample_now(sent - sampled,
                        static_cast<std::uint64_t>(simulator.now()));
        sampled = sent;
        if (simulator.now() + period <= end) {
          simulator.after(period, *this);
        }
      }
    };
    simulator.after(telemetry_period,
                    TelemetrySampler{simulator, *config.telemetry, source,
                                     telemetry_fires, telemetry_period,
                                     end_time});
  }

  // Adversary bypass ("w/ AAI").
  if (config.bypass_after_packets > 0) {
    const sim::SimTime t =
        static_cast<sim::SimTime>(config.bypass_after_packets) * send_period;
    simulator.at(t, [&owned, &net, &config] {
      for (auto& s : owned) s->set_active(false);
      for (const auto& fault : config.link_faults) {
        if (fault.link < net.length()) {
          net.link(fault.link).set_loss_rate(config.path.natural_loss);
        }
      }
    });
  }

  simulator.run_until(end_time);
  simulator.run();  // drain remaining settled timers
  if (injector) injector->finish();

  result.final_thetas = source.thetas();
  result.final_convicted = source.convicted(config.decision_threshold);
  result.observed_e2e_rate = source.observed_e2e_rate();
  result.observations = source.observations();
  result.packets_sent = source.packets_sent();
  result.overhead_bytes_ratio = net.counters().overhead_ratio();
  result.overhead_packets_ratio = net.counters().control_packets_per_data();
  result.data_link_crossings =
      net.counters().by_type(net::PacketType::kData).packets;
  if (result.packets_sent > 0) {
    const std::size_t last = net.length() - 1;
    result.ground_truth_delivery =
        static_cast<double>(net.counters().data_tx(last) -
                            net.counters().data_drops(last)) /
        static_cast<double>(result.packets_sent);
  }
  // Ground-truth per-link loss with the paper's attribution: a packet that
  // reaches F_i but never leaves it (relay-strategy drop, withhold, crash
  // blackhole) is charged to F_i's *downstream* link l_i — §8.1 tactic
  // (b), "the malicious drops will directly increase l_4's drop count".
  // Link-level counters alone cannot see relay drops (the packet is never
  // transmitted), so the rate is computed from the arrival/departure
  // balance of each hop instead. Duplication can push departures above
  // arrivals; the rate clamps at 0.
  result.true_link_loss.reserve(net.length());
  for (std::size_t i = 0; i < net.length(); ++i) {
    const std::uint64_t arrived =
        i == 0 ? result.packets_sent
                : net.counters().data_tx(i - 1) -
                      net.counters().data_drops(i - 1);
    const std::uint64_t departed =
        net.counters().data_tx(i) - net.counters().data_drops(i);
    result.true_link_loss.push_back(
        arrived > 0 && arrived > departed
            ? static_cast<double>(arrived - departed) /
                  static_cast<double>(arrived)
            : 0.0);
  }
  result.events_processed = simulator.events_processed() - telemetry_fires;

  if (events != nullptr) {
    // Final verdict: one conviction event per convicted link, then the
    // run-end marker that closes the forensic stream.
    for (const std::size_t link : result.final_convicted) {
      events->append(0, obs::EventKind::kConviction, simulator.now(),
                     static_cast<std::int32_t>(link), result.packets_sent,
                     result.observations,
                     link < result.final_thetas.size()
                         ? result.final_thetas[link]
                         : 0.0);
    }
    events->append(0, obs::EventKind::kRunEnd, simulator.now(), /*link=*/-1,
                   result.packets_sent, result.observations);
  }

  // Observability epilogue (no-ops while the registry is disabled; never
  // read back into the result). Gauge high-water across nodes gives the
  // worst per-node storage the run ever saw.
  std::uint64_t peak = 0;
  for (std::size_t i = 0; i <= net.length(); ++i) {
    peak = std::max(peak, net.node(i).storage().peak());
  }
  obs::MetricsRegistry::global()
      .gauge("sim.storage.peak_entries")
      .set(static_cast<std::int64_t>(peak));
  return result;
}

ExperimentConfig paper_config(protocols::ProtocolKind protocol,
                              std::uint64_t total_packets,
                              std::uint64_t seed) {
  ExperimentConfig config;
  config.protocol = protocol;
  config.path.length = 6;
  config.path.natural_loss = 0.01;
  config.path.min_latency_ms = 0.0;
  config.path.max_latency_ms = 5.0;
  config.path.seed = seed;
  config.params.total_packets = total_packets;
  config.params.send_rate_pps = 100.0;
  config.params.probe_probability = 1.0 / 36.0;
  // The paper's adversary: node F_4 drops at 0.02 in a way that charges
  // its downstream link, so l_4 exhibits ~alpha = 0.03 total.
  config.link_faults.push_back(LinkFault{4, 0.02});
  // Decision threshold between the honest estimate (~rho = 0.01) and the
  // estimator's view of an alpha-rate link. Because a monitored round's
  // blame goes to the *first* failing hop, a malicious link's estimate
  // reads ~15% below its true alpha = 0.03, so the empirical midpoint sits
  // slightly under the analytic (rho + alpha)/2.
  config.decision_threshold = 0.018;
  return config;
}

}  // namespace paai::runner
