#include "mesh/runner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/parallel_for.h"
#include "exec/shard_plan.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "util/rng.h"
#include "util/stats.h"

namespace paai::mesh {

namespace {

/// Composes two independent per-traversal drop probabilities.
double compose(double a, double b) { return 1.0 - (1.0 - a) * (1.0 - b); }

void check_index(std::size_t index, std::size_t bound, const char* what) {
  if (index >= bound) {
    throw std::invalid_argument(std::string("run_mesh: ") + what + " index " +
                                std::to_string(index) +
                                " out of range (bound " +
                                std::to_string(bound) + ")");
  }
}

/// Every mesh index a run reads — path links, compromised nodes, planted
/// link faults and the benign plan's links and nodes — checked up front,
/// so both engines reject the same out-of-range specs before any work.
void validate_indices(const MeshConfig& config) {
  const std::size_t num_links = config.topo.num_links();
  const std::size_t num_nodes = config.topo.num_nodes();
  if (num_links == 0) {
    throw std::invalid_argument("run_mesh: topology has no links");
  }
  for (std::size_t i = 0; i < config.paths.size(); ++i) {
    const std::uint32_t* pl = config.paths.links(i);
    const std::size_t len = config.paths.length(i);
    if (len == 0) {
      throw std::invalid_argument("run_mesh: path " + std::to_string(i) +
                                  " has no links");
    }
    for (std::size_t j = 0; j < len; ++j) {
      check_index(pl[j], num_links, "path link");
    }
  }
  for (const adversary::Spec& spec : config.adversaries.specs) {
    check_index(spec.node, num_nodes, "adversary node");
  }
  for (const MeshLinkFault& fault : config.link_faults) {
    check_index(fault.link, num_links, "link fault");
  }
  const faults::FaultPlan& plan = config.faults;
  for (const auto& ge : plan.gilbert) {
    check_index(ge.link, num_links, "ge fault link");
  }
  for (const auto& retune : plan.retunes) {
    check_index(retune.link, num_links, "retune link");
  }
  for (const auto& outage : plan.outages) {
    check_index(outage.node, num_nodes, "outage node");
  }
  for (const auto& reorder : plan.reorders) {
    check_index(reorder.link, num_links, "reorder link");
  }
  for (const auto& dup : plan.duplicates) {
    check_index(dup.link, num_links, "dup link");
  }
}

/// Ground truth: every outgoing link of a compromised node plus every
/// directly planted link fault. Control-plane-only adversaries (ack,
/// originfilter) still mark their links — an unconvicted one shows up as
/// missed_malicious, which is the honest report (no data evidence exists
/// against it).
std::vector<char> malicious_links(const MeshConfig& config) {
  std::vector<char> malicious(config.topo.num_links(), 0);
  for (const adversary::Spec& spec : config.adversaries.specs) {
    for (const std::uint32_t l : config.topo.out_links(
             static_cast<std::uint32_t>(spec.node))) {
      malicious[l] = 1;
    }
  }
  for (const MeshLinkFault& fault : config.link_faults) {
    malicious[fault.link] = 1;
  }
  return malicious;
}

/// The verdict tail both engines share: one LinkVerdict row per link
/// from the merged store, the convicted / ground-truth lists, the
/// false and missed counts, and the detection-units percentiles.
/// `first_convicted(l, row)` supplies the row's first-conviction units
/// (0 = never) — the only per-engine difference.
template <typename FirstConvicted>
void assemble_verdicts(const MeshConfig& config, const GlobalScoreStore& store,
                       const std::vector<char>& malicious,
                       FirstConvicted first_convicted, MeshResult& result) {
  const std::size_t num_links = config.topo.num_links();
  result.links.resize(num_links);
  std::vector<double> detection;
  for (std::size_t l = 0; l < num_links; ++l) {
    MeshResult::LinkVerdict& row = result.links[l];
    row.units = store.units(l);
    row.blames = store.blames(l);
    row.paths = store.paths(l);
    row.solo_convictions = store.solo_convictions(l);
    row.theta = store.theta(l);
    row.convicted =
        store.convicts(l, config.decision_threshold, config.blame);
    row.malicious = malicious[l] != 0;
    row.witnesses = store.witnesses(l);
    row.first_convicted_units = first_convicted(l, row);
    if (row.convicted) result.convicted.push_back(l);
    if (row.malicious) result.malicious_links.push_back(l);
    if (row.convicted && !row.malicious) ++result.false_accusations;
    if (!row.convicted && row.malicious) ++result.missed_malicious;
    if (row.convicted && row.malicious && row.first_convicted_units > 0) {
      detection.push_back(static_cast<double>(row.first_convicted_units));
    }
  }
  if (!detection.empty()) {
    result.detection_units_p50 = quantile(detection, 0.5);
    result.detection_units_p90 = quantile(detection, 0.9);
    result.detection_units_p99 = quantile(detection, 0.99);
  }
}

// ---------------------------------------------------------------------
// Stat engine
// ---------------------------------------------------------------------

/// Per-round, per-link drop-rate tables the stat engine samples from.
/// benign excludes the adversary (the clean-baseline rate). The total
/// rate composes the adversary on top; each distinct total rate is
/// stored once in `rates`, and `rate_id` names it per (round, link) — the
/// key a tile's BinomialCache draws on. Layout: round-major,
/// `round * L + l`.
struct StatTables {
  std::vector<double> benign;
  std::vector<double> rates;
  std::vector<std::uint32_t> rate_id;
};

StatTables build_stat_tables(const MeshConfig& config, std::size_t rounds) {
  const Topology& topo = config.topo;
  const std::size_t num_links = topo.num_links();
  const double horizon = config.duration_s > 0.0 ? config.duration_s : 600.0;
  const double round_s = horizon / static_cast<double>(rounds);

  // Gilbert–Elliott stationary loss replaces the natural coin on its
  // link (same rule as the packet simulator: the GE chain IS the link's
  // loss process).
  std::vector<double> base(num_links, config.natural_loss);
  double worst_pi_bad = 0.0;
  for (const faults::GilbertElliottFault& ge : config.faults.gilbert) {
    const double denom = ge.params.good_to_bad + ge.params.bad_to_good;
    const double pi_bad = denom > 0.0 ? ge.params.good_to_bad / denom : 0.0;
    base[ge.link] = ge.params.loss_good * (1.0 - pi_bad) +
                    ge.params.loss_bad * pi_bad;
    worst_pi_bad = std::max(worst_pi_bad, pi_bad);
  }
  // Long-run fraction of time benign fault cover is active — what a
  // fault-colluding adversary's duty cycle keys off.
  double outage_fraction = 0.0;
  for (const faults::NodeOutage& outage : config.faults.outages) {
    outage_fraction += std::max(0.0, outage.duration_seconds) / horizon;
  }
  const double cover = std::min(1.0, worst_pi_bad + outage_fraction);

  // Adversary extra rate per link: every outgoing link of a compromised
  // node drops at the spec's time-averaged rate; direct link faults
  // compose in.
  std::vector<double> extra(num_links, 0.0);
  for (const adversary::Spec& spec : config.adversaries.specs) {
    const double rate =
        spec.mean_drop_rate(cover, config.decision_threshold);
    for (const std::uint32_t l :
         topo.out_links(static_cast<std::uint32_t>(spec.node))) {
      extra[l] = compose(extra[l], rate);
    }
  }
  for (const MeshLinkFault& fault : config.link_faults) {
    extra[fault.link] = compose(extra[fault.link], fault.extra_loss);
  }

  StatTables tables;
  tables.benign.resize(rounds * num_links);
  tables.rate_id.resize(rounds * num_links);
  // Keyed by bit pattern, so the id of a rate is exact.
  std::unordered_map<std::uint64_t, std::uint32_t> id_of_rate;
  for (std::size_t r = 0; r < rounds; ++r) {
    const double t_mid = (static_cast<double>(r) + 0.5) * round_s;
    const double round_begin = static_cast<double>(r) * round_s;
    const double round_end = round_begin + round_s;
    for (std::size_t l = 0; l < num_links; ++l) {
      double benign = base[l];
      // Latest retune whose schedule point has passed the round midpoint
      // wins (clauses are a piecewise schedule; the midpoint is the
      // round's representative instant).
      double latest_at = -1.0;
      for (const faults::LinkRetune& retune : config.faults.retunes) {
        if (retune.link != l || !retune.loss.has_value()) continue;
        if (retune.at_seconds <= t_mid && retune.at_seconds > latest_at) {
          latest_at = retune.at_seconds;
          benign = *retune.loss;
        }
      }
      // Outages blackhole the crashed node's outgoing links for the
      // fraction of the round the outage window overlaps.
      const std::uint32_t from = topo.link(l).from;
      for (const faults::NodeOutage& outage : config.faults.outages) {
        if (outage.node != from) continue;
        const double begin = std::max(round_begin, outage.at_seconds);
        const double end = std::min(
            round_end, outage.at_seconds + outage.duration_seconds);
        if (end > begin) {
          const double fraction = (end - begin) / round_s;
          benign = benign + fraction * (1.0 - benign);
        }
      }
      tables.benign[r * num_links + l] = benign;
      const double total = compose(benign, extra[l]);
      const auto [it, fresh] = id_of_rate.try_emplace(
          std::bit_cast<std::uint64_t>(total),
          static_cast<std::uint32_t>(tables.rates.size()));
      if (fresh) tables.rates.push_back(total);
      tables.rate_id[r * num_links + l] = it->second;
    }
  }
  return tables;
}

MeshResult run_stat(const MeshConfig& config) {
  const std::size_t num_links = config.topo.num_links();
  const std::size_t num_paths = config.paths.size();
  const std::size_t rounds = std::max<std::size_t>(1, config.rounds);
  const StatTables tables = build_stat_tables(config, rounds);
  const std::vector<char> malicious = malicious_links(config);

  // Every path sends the same per-round unit slices, so the cumulative
  // per-path unit count at each checkpoint is a shared schedule.
  std::vector<std::uint64_t> slice(rounds, 0);
  std::vector<std::uint64_t> cum_units(rounds, 0);
  for (std::size_t r = 0; r < rounds; ++r) {
    slice[r] = config.units_per_path / rounds +
               (r < config.units_per_path % rounds ? 1 : 0);
    cum_units[r] = (r == 0 ? 0 : cum_units[r - 1]) + slice[r];
  }
  const double units_per_path =
      std::max<double>(1.0, static_cast<double>(config.units_per_path));

  // One tile = one contiguous block of the path range. The tile count is
  // a pure function of the path count (never of jobs), and the fold below
  // runs strictly in tile order, so the result is bit-identical for any
  // worker count.
  const exec::ShardPlan plan(config.seed0 + 1, num_paths);
  const auto ranges = plan.partition(exec::fixed_tile_count(num_paths));

  struct TileResult {
    ScoreShard shard;
    double damage = 0.0;
    double baseline = 0.0;
    TileResult(std::size_t links, std::size_t rounds)
        : shard(links, rounds) {}
  };

  GlobalScoreStore store(num_links, rounds);
  double total_damage = 0.0;
  double baseline_sum = 0.0;
  exec::OrderedReducer<TileResult> reducer(
      ranges.size(), [&](std::size_t ti, TileResult&& tile) {
        store.absorb(tile.shard);
        total_damage += tile.damage;
        baseline_sum += tile.baseline;
        // Telemetry on the serialized fold: committed units make a
        // monotone axis regardless of worker interleaving.
        if (config.telemetry != nullptr) {
          config.telemetry->tick((ranges[ti].second - ranges[ti].first) *
                                 config.units_per_path);
        }
      });

  MeshResult result;
  result.exec = exec::parallel_for_each(
      ranges.size(),
      [&](std::size_t ti) {
        const obs::ScopedPhase phase(obs::Phase::kMeshStat);
        TileResult tile(num_links, rounds);
        BinomialCache sampler(tables.rates);
        std::vector<std::uint64_t> path_units(config.paths.max_length(), 0);
        std::vector<std::uint64_t> path_blames(config.paths.max_length(), 0);
        for (std::size_t i = ranges[ti].first; i < ranges[ti].second; ++i) {
          const std::uint32_t* pl = config.paths.links(i);
          const std::size_t len = config.paths.length(i);
          std::fill(path_units.begin(), path_units.begin() + len, 0);
          std::fill(path_blames.begin(), path_blames.begin() + len, 0);

          Rng base(plan.seed(i));
          std::uint64_t delivered = 0;
          double baseline_units = 0.0;
          for (std::size_t r = 0; r < rounds; ++r) {
            Rng rng = base.fork(r + 1);
            std::uint64_t reached = slice[r];
            double clean = 1.0;
            for (std::size_t j = 0; j < len; ++j) {
              const std::size_t l = pl[j];
              const std::uint64_t drops = sampler.draw(
                  rng, reached, tables.rate_id[r * num_links + l]);
              tile.shard.add_window(l, r, slice[r], drops);
              path_units[j] += slice[r];
              path_blames[j] += drops;
              reached -= drops;
              clean *= 1.0 - tables.benign[r * num_links + l];
            }
            delivered += reached;
            baseline_units += clean * static_cast<double>(slice[r]);
          }

          const double baseline_path = baseline_units / units_per_path;
          const double delivered_path =
              static_cast<double>(delivered) / units_per_path;
          tile.damage += std::max(0.0, baseline_path - delivered_path);
          tile.baseline += baseline_path;
          for (std::size_t j = 0; j < len; ++j) {
            const bool solo = protocols::clears_margin(
                evidence(path_units[j], path_blames[j]),
                config.decision_threshold);
            tile.shard.add(pl[j], path_units[j], path_blames[j],
                           static_cast<std::uint32_t>(i), solo);
          }
        }
        reducer.commit(ti, std::move(tile));
      },
      config.jobs);

  result.paths = num_paths;
  result.total_units =
      static_cast<std::uint64_t>(num_paths) * config.units_per_path;
  result.total_damage = total_damage;
  result.baseline_delivery =
      num_paths > 0 ? baseline_sum / static_cast<double>(num_paths) : 0.0;
  result.store_bytes = store.memory_bytes();
  result.shard_bytes = ScoreShard::bytes_for(num_links, rounds);

  // The first round prefix whose aggregated evidence convicts under the
  // configured blame rule, in cumulative per-path units — the
  // detection-latency axis.
  assemble_verdicts(
      config, store, malicious,
      [&](std::size_t l, const MeshResult::LinkVerdict&) -> std::uint64_t {
        const std::size_t prefix = store.first_convicting_prefix(
            l, config.decision_threshold, config.blame);
        return prefix == 0 ? 0 : cum_units[prefix - 1];
      },
      result);
  return result;
}

// ---------------------------------------------------------------------
// Packet engine
// ---------------------------------------------------------------------

/// Appends a path-local copy of every clause whose mesh index
/// (`clause.*index`) is `mesh_id`, re-indexed to `local_id` — how the
/// packet engine maps mesh-level plans onto one path's hops.
template <typename Clause>
void project(const std::vector<Clause>& clauses, std::size_t Clause::*index,
             std::size_t mesh_id, std::size_t local_id,
             std::vector<Clause>& out) {
  for (const Clause& clause : clauses) {
    if (clause.*index != mesh_id) continue;
    out.push_back(clause);
    out.back().*index = local_id;
  }
}

MeshResult run_packet(const MeshConfig& config) {
  const Topology& topo = config.topo;
  const std::size_t num_links = topo.num_links();
  const std::size_t num_paths = config.paths.size();
  const std::vector<char> malicious = malicious_links(config);

  MeshResult result;

  // Clean baselines, one per distinct route length: the template at that
  // length with the malicious state stripped (benign FaultPlan
  // intentionally kept, matching a deployment measuring its own fault
  // floor), seeded seed0. Each path's damage is scored against its own
  // length's baseline; baseline_delivery is their per-path mean, weighted
  // so that a single length reproduces its baseline exactly.
  std::map<std::size_t, std::size_t> paths_of_length;
  for (std::size_t i = 0; i < num_paths; ++i) {
    ++paths_of_length[config.paths.length(i)];
  }
  std::map<std::size_t, double> baseline_of_length;
  for (const auto& [len, count] : paths_of_length) {
    runner::ExperimentConfig clean = config.packet_base;
    clean.path.length = len;
    clean.link_faults.clear();
    clean.adversaries.clear();
    clean.path.seed = config.seed0;
    const double baseline = runner::run_experiment(clean).ground_truth_delivery;
    baseline_of_length[len] = baseline;
    result.baseline_delivery += static_cast<double>(count) /
                                static_cast<double>(num_paths) * baseline;
  }

  struct PathEvidence {
    MeshPathOutcome outcome;
    std::uint64_t units = 0;
    std::vector<std::uint64_t> blames;  // per hop
    std::vector<char> solo;             // per hop
  };

  GlobalScoreStore store(num_links);
  ScoreShard shard(num_links);
  std::uint64_t total_units = 0;
  result.path_outcomes.reserve(num_paths);
  exec::OrderedReducer<PathEvidence> reducer(
      num_paths, [&](std::size_t i, PathEvidence&& ev) {
        // Damage accumulates strictly in path order.
        result.total_damage +=
            std::max(0.0, baseline_of_length.at(config.paths.length(i)) -
                              ev.outcome.ground_truth_delivery);
        const std::uint32_t* pl = config.paths.links(i);
        for (std::size_t j = 0; j < ev.blames.size(); ++j) {
          shard.add(pl[j], ev.units, ev.blames[j],
                    static_cast<std::uint32_t>(i), ev.solo[j] != 0);
          // Single checkpoint at the full horizon: all window evidence
          // lands in round 0 so the blame rules degenerate gracefully.
          shard.add_window(pl[j], 0, ev.units, ev.blames[j]);
        }
        total_units += ev.units;
        result.path_outcomes.push_back(std::move(ev.outcome));
        if (config.telemetry != nullptr) config.telemetry->tick(ev.units);
      });

  const exec::ShardPlan plan(config.seed0 + 1, num_paths);
  result.exec = exec::parallel_for_each(
      num_paths,
      [&](std::size_t i) {
        const std::uint32_t* pl = config.paths.links(i);
        const std::size_t len = config.paths.length(i);

        // Project the mesh-level plans onto this path's local indices:
        // hop j's link is path-local link j, its upstream node is
        // path-local node j.
        runner::ExperimentConfig cfg = config.packet_base;
        cfg.path.seed = plan.seed(i);
        cfg.path.length = len;
        cfg.link_faults.clear();
        cfg.adversaries.clear();
        cfg.faults = faults::FaultPlan{};
        const faults::FaultPlan& mesh_faults = config.faults;
        for (std::size_t j = 0; j < len; ++j) {
          const std::uint32_t l = pl[j];
          for (const MeshLinkFault& fault : config.link_faults) {
            if (fault.link == l) {
              cfg.link_faults.push_back({j, fault.extra_loss});
            }
          }
          // The path source (j == 0) is the monitor itself and cannot be
          // the adversary; a compromised destination has no on-path
          // outgoing link and never maps.
          if (j >= 1) {
            const std::uint32_t from = topo.link(l).from;
            project(config.adversaries.specs, &adversary::Spec::node, from, j,
                    cfg.adversaries);
            project(mesh_faults.outages, &faults::NodeOutage::node, from, j,
                    cfg.faults.outages);
          }
          project(mesh_faults.gilbert, &faults::GilbertElliottFault::link, l,
                  j, cfg.faults.gilbert);
          project(mesh_faults.retunes, &faults::LinkRetune::link, l, j,
                  cfg.faults.retunes);
          project(mesh_faults.reorders, &faults::ReorderFault::link, l, j,
                  cfg.faults.reorders);
          project(mesh_faults.duplicates, &faults::DuplicateFault::link, l, j,
                  cfg.faults.duplicates);
        }

        const obs::ScopedPhase phase(obs::Phase::kMeshPacket);
        const runner::ExperimentResult run = runner::run_experiment(cfg);

        PathEvidence ev;
        ev.units = run.observations;
        ev.blames.resize(len, 0);
        ev.solo.resize(len, 0);
        // Rate-preserving evidence projection: the experiment's final
        // per-link theta estimate (whatever protocol produced it) becomes
        // blames/units evidence at the same rate.
        const std::size_t hops = std::min(len, run.final_thetas.size());
        for (std::size_t j = 0; j < hops; ++j) {
          const double theta =
              std::clamp(run.final_thetas[j], 0.0, 1.0);
          const auto blames = static_cast<std::uint64_t>(
              std::llround(static_cast<double>(run.observations) * theta));
          ev.blames[j] = std::min(blames, run.observations);
        }
        for (const std::size_t c : run.final_convicted) {
          if (c < len) ev.solo[c] = 1;
        }

        MeshPathOutcome& outcome = ev.outcome;
        outcome.ground_truth_delivery = run.ground_truth_delivery;
        outcome.observed_e2e_rate = run.observed_e2e_rate;
        outcome.convicted = run.final_convicted;
        for (std::size_t j = 0; j < len; ++j) {
          if (malicious[pl[j]]) outcome.malicious.push_back(j);
        }
        outcome.all_malicious_convicted = true;
        for (const std::size_t link : outcome.malicious) {
          if (std::find(outcome.convicted.begin(), outcome.convicted.end(),
                        link) == outcome.convicted.end()) {
            outcome.all_malicious_convicted = false;
          }
        }
        for (const std::size_t link : outcome.convicted) {
          if (std::find(outcome.malicious.begin(), outcome.malicious.end(),
                        link) == outcome.malicious.end()) {
            outcome.any_honest_convicted = true;
          }
        }
        reducer.commit(i, std::move(ev));
      },
      config.jobs);

  store.absorb(shard);
  result.paths = num_paths;
  result.total_units = total_units;
  result.store_bytes = store.memory_bytes();
  result.shard_bytes = ScoreShard::bytes_for(num_links);

  // Single checkpoint at the full horizon: a convicted link's mean
  // per-path evidence is the finest detection-latency statement
  // available.
  assemble_verdicts(
      config, store, malicious,
      [](std::size_t, const MeshResult::LinkVerdict& row) -> std::uint64_t {
        return row.convicted && row.paths > 0 ? row.units / row.paths : 0;
      },
      result);
  return result;
}

}  // namespace

MeshResult run_mesh(const MeshConfig& config) {
  validate_indices(config);
  return config.engine == MeshEngine::kStat ? run_stat(config)
                                            : run_packet(config);
}

}  // namespace paai::mesh
