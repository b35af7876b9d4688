// MeshRunner: many monitored paths over one shared topology, convicted
// from the cross-path union of evidence (Corollary 2).
//
// Two engines, one result contract:
//
//   kStat   — the scale engine. Each path is a statistical protocol
//             instance of the full-ack evidence model: every monitored
//             unit crosses the path's links in order and is either
//             delivered or blamed on the first dropping link, so a
//             path's (units, blames) evidence is a chain of Binomial
//             draws — O(path length) RNG work per path per round instead
//             of a discrete-event simulation. This is what makes 1M
//             simultaneous paths on one machine tractable while keeping
//             the estimator identical in expectation to
//             protocols::ScoreTable with t = 1.
//   kPacket — the fidelity engine. Each path runs the full
//             run_experiment() discrete-event simulation (all seven
//             protocols, adaptive adversaries, fault injection) and its
//             per-link theta estimates are projected into rate-preserving
//             (units, blames) evidence. On linear@P it is a Corollary 2
//             fleet: P link-disjoint paths, path p's hop j at mesh link
//             p*H + j.
//
// Both engines fan out over the src/exec pool and are bit-identical for
// any --jobs value: the path range is cut into exec::fixed_tile_count
// tiles (a pure function of the path count, never of jobs), every path's
// randomness comes from its own ShardPlan seed, per-tile evidence shards
// are u64 sums merged in tile order, and the floating-point damage
// partials are folded strictly in tile order by an OrderedReducer.
//
// Time axis: the stat engine splits each path's units into `rounds`
// checkpoint rounds (all paths advance together, as they would in wall
// time). Evidence decomposes additively over rounds, so one parallel
// pass computes per-round deltas and the driver replays the cumulative
// sums afterwards to find each link's first conviction point — the
// detection-units percentiles — without any cross-round barrier.
//
// Adversary/fault mapping (stat engine): a node spec drops on every
// outgoing link of its node at Spec::mean_drop_rate(); benign FaultPlan
// clauses index mesh links/nodes — a ge clause replaces the link's
// natural coin with the chain's stationary loss, set clauses follow
// their schedule across rounds (the nominal horizon is duration_s),
// outages blackhole the node's outgoing links for the overlapping round
// fraction, reorder/dup clauses drop nothing and are ignored. The packet
// engine maps both plans onto each path's local indices and keeps full
// behavioural semantics. See docs/MESH.md.
#pragma once

#include <cstdint>
#include <vector>

#include "adversary/spec.h"
#include "exec/telemetry.h"
#include "faults/plan.h"
#include "mesh/score_store.h"
#include "mesh/topology.h"
#include "runner/experiment.h"

namespace paai::mesh {

enum class MeshEngine { kStat, kPacket };

/// Link-level malicious extra drop rate on a topology link (the mesh
/// analog of runner::LinkFault).
struct MeshLinkFault {
  std::size_t link = 0;
  double extra_loss = 0.02;
};

struct MeshConfig {
  Topology topo = Topology::linear(1, 6);
  PathSet paths;
  MeshEngine engine = MeshEngine::kStat;

  /// Monitored units (data packets) each path sends over the horizon.
  std::uint64_t units_per_path = 1000;
  /// Stat engine: checkpoint rounds the horizon is split into (>= 1).
  std::size_t rounds = 8;
  /// Stat engine: nominal wall-clock horizon the FaultPlan schedule maps
  /// onto (the chain benches' 60k packets at 100 pps = 600 s).
  double duration_s = 600.0;

  double natural_loss = 0.01;
  double decision_threshold = 0.02;

  /// Conviction rule applied to the merged cross-path evidence
  /// (protocols::BlameSpec — margin|persistent:K|windowed:W|hybrid:K,W).
  /// The mesh's windows are the checkpoint rounds, so the spec's W is
  /// ignored here; hybrid's streak K counts consecutive hot rounds. The
  /// default (margin) reproduces the historical convicts() verdict
  /// bit-identically.
  protocols::BlameSpec blame;

  /// Compromised nodes (mesh node ids); each drops on all its outgoing
  /// links. Ground truth marks those links malicious.
  adversary::AdversaryPlan adversaries;
  /// Direct link-level faults (mesh link ids); also ground-truth
  /// malicious.
  std::vector<MeshLinkFault> link_faults;
  /// Benign scripted faults (mesh link/node ids); never ground-truth
  /// malicious — the no-false-accusation bar applies under them.
  faults::FaultPlan faults;

  std::uint64_t seed0 = 9000;
  /// Worker threads: 0 = hardware concurrency, 1 = serial; results are
  /// bit-identical for any value.
  std::size_t jobs = 1;

  // --- Packet engine only -------------------------------------------
  /// Template experiment (protocol, rates, params). Per path, its length
  /// becomes the path's hop count, its seed the path's ShardPlan seed,
  /// and its link faults, adversaries and benign faults the mesh plans
  /// projected onto the path's hops. The clean baselines run the
  /// template at each distinct route length, seeded seed0, minus link
  /// faults and adversaries.
  runner::ExperimentConfig packet_base{};
  /// Optional live telemetry sink (obs/telemetry.h), ticked from each
  /// engine's serialized reducer with the units each fold commits. Purely
  /// observational — verdicts are bit-identical with it attached.
  obs::TelemetrySink* telemetry = nullptr;
};

/// Per-path outcome, packet engine only (the stat engine keeps no
/// O(paths) result state).
struct MeshPathOutcome {
  double ground_truth_delivery = 0.0;
  double observed_e2e_rate = 0.0;
  std::vector<std::size_t> convicted;  // path-local link positions
  std::vector<std::size_t> malicious;  // path-local, ground truth
  bool all_malicious_convicted = false;
  bool any_honest_convicted = false;
};

struct MeshResult {
  /// Per-link verdict row — everything O(links).
  struct LinkVerdict {
    std::uint64_t units = 0;
    std::uint64_t blames = 0;
    std::uint64_t paths = 0;
    std::uint64_t solo_convictions = 0;
    double theta = 0.0;
    bool convicted = false;
    bool malicious = false;  // ground truth
    /// Cumulative per-path units at the first checkpoint round that
    /// convicted the link (0 = never). The packet engine has a single
    /// checkpoint at the full horizon, so there it is the link's mean
    /// per-path units when convicted.
    std::uint64_t first_convicted_units = 0;
    /// Bounded conviction provenance: smallest contributing path ids.
    std::vector<std::uint32_t> witnesses;
  };

  std::vector<LinkVerdict> links;
  std::vector<std::size_t> convicted;        // link ids
  std::vector<std::size_t> malicious_links;  // ground truth link ids
  std::size_t false_accusations = 0;         // convicted honest links
  std::size_t missed_malicious = 0;          // unconvicted malicious links

  std::size_t paths = 0;
  std::uint64_t total_units = 0;

  /// Sum over paths of max(0, clean-baseline delivery - delivery), in
  /// paths' worth of traffic (the Corollary 2 damage axis). Packet
  /// engine: each path against the baseline of its own route length.
  double total_damage = 0.0;
  /// Per-path mean of the clean baseline delivery.
  double baseline_delivery = 0.0;

  /// Detection-units percentiles over malicious links that were
  /// convicted (units-per-path scale; 0 when none).
  double detection_units_p50 = 0.0;
  double detection_units_p90 = 0.0;
  double detection_units_p99 = 0.0;

  /// Score-store memory: the aggregated store plus one in-flight shard
  /// per worker — the O(links) quantity the bench reports.
  std::size_t store_bytes = 0;
  std::size_t shard_bytes = 0;

  /// Packet engine only (empty for stat): per-path outcomes in path
  /// order.
  std::vector<MeshPathOutcome> path_outcomes;

  exec::ExecTelemetry exec;
};

MeshResult run_mesh(const MeshConfig& config);

}  // namespace paai::mesh
