// Mesh topology: the network graph the fleet of monitored paths routes
// over.
//
// The paper fixes one d-hop path; Corollary 2 reasons about an adversary
// whose z compromised links are spread across a *network* of many paths.
// A Topology is that network: directed links between nodes, generated in
// ISP-style shapes, plus a deterministic path-enumeration API that routes
// many source-destination pairs over shared intermediate nodes — the
// substrate the mesh runner aggregates cross-path evidence on.
//
// Generators (spec grammar shares util/specgrammar with --faults and
// --adversary, so "fattree@8" parses exactly like "ge@2:pb=0.3"):
//
//   linear@C:hops=H    C link-disjoint chains of H links each — a
//                      Corollary 2 fleet; chain c's hop j is link c*H + j
//   grid@R:cols=C      R x C lattice, right/down edges; staircase routes
//                      from the left column to the right column share
//                      interior nodes
//   fattree@K          canonical K-ary fat-tree (K pods, (K/2)^2 cores,
//                      K/2 aggregation + K/2 edge switches per pod, links
//                      in both directions); edge switches are the
//                      terminals, routes hash onto an (agg, core) pair
//   chains@N:degree=D,seed=S
//                      ROCKETFUEL-like random mesh: N nodes on a ring
//                      (guaranteeing strong connectivity) plus D seeded
//                      random extra out-links per node; routes follow
//                      BFS shortest paths toward a bounded set of
//                      deterministic gateway targets; S is an integer
//                      in [0, 2^53] (default 1)
//
// Everything here is a pure function of the spec (and its embedded seed):
// the same spec always yields the same node/link numbering and
// enumerate_paths(count, seed) always yields the same PathSet, on any
// machine, for any --jobs value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace paai::mesh {

/// One directed link. The link id (its index in the topology) is the key
/// the GlobalScoreStore aggregates evidence under.
struct MeshLink {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
};

/// A set of routed paths in compressed-sparse-row form: offsets_[i] ..
/// offsets_[i+1] indexes the flat link-id array. Memory is O(total hops),
/// intentionally separate from the O(links) score state — the store's
/// memory bound is the design constraint, the path list is the workload
/// description.
class PathSet {
 public:
  std::size_t size() const { return offsets_.size() - 1; }
  std::size_t length(std::size_t path) const {
    return static_cast<std::size_t>(offsets_[path + 1] - offsets_[path]);
  }
  const std::uint32_t* links(std::size_t path) const {
    return links_.data() + offsets_[path];
  }
  std::uint64_t total_hops() const { return offsets_.back(); }
  std::size_t max_length() const { return max_length_; }

  void append(const std::vector<std::uint32_t>& link_ids);

 private:
  std::vector<std::uint64_t> offsets_{0};
  std::vector<std::uint32_t> links_;
  std::size_t max_length_ = 0;
};

class Topology {
 public:
  enum class Kind { kLinear, kGrid, kFatTree, kChains };

  static Topology linear(std::size_t chains, std::size_t hops);
  static Topology grid(std::size_t rows, std::size_t cols);
  static Topology fat_tree(std::size_t k);
  static Topology chains(std::size_t nodes, std::size_t degree,
                         std::uint64_t seed);

  /// Parses a single-clause topology spec ("fattree@8",
  /// "grid@16:cols=16", "linear@4:hops=6", "chains@64:degree=3,seed=7").
  /// Throws std::invalid_argument with a pointed message on anything
  /// malformed — same failure contract as FaultPlan/AdversaryPlan.
  static Topology parse(std::string_view spec);

  /// Canonical spec rendering; parse(to_string()) reproduces the topology.
  std::string to_string() const;

  Kind kind() const { return kind_; }
  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_links() const { return links_.size(); }
  const MeshLink& link(std::size_t id) const { return links_[id]; }

  /// Out-link ids of a node, in insertion (deterministic) order.
  const std::vector<std::uint32_t>& out_links(std::uint32_t node) const {
    return out_links_[node];
  }

  std::optional<std::uint32_t> find_link(std::uint32_t from,
                                         std::uint32_t to) const;

  /// Routes `count` source-destination pairs deterministically from
  /// `seed`. Pairs cycle the generator's terminal sets; shared
  /// intermediate nodes are the point — on every non-linear shape many
  /// paths cross the same aggregation/core/lattice nodes.
  PathSet enumerate_paths(std::size_t count, std::uint64_t seed) const;

 private:
  Topology() = default;
  std::uint32_t add_node();
  std::uint32_t add_link(std::uint32_t from, std::uint32_t to);

  Kind kind_ = Kind::kLinear;
  std::size_t num_nodes_ = 0;
  std::vector<MeshLink> links_;
  std::vector<std::vector<std::uint32_t>> out_links_;

  // Generator parameters (for to_string and routing).
  std::size_t p_chains_ = 0, p_hops_ = 0;      // linear
  std::size_t p_rows_ = 0, p_cols_ = 0;        // grid
  std::size_t p_k_ = 0;                        // fat-tree
  std::size_t p_nodes_ = 0, p_degree_ = 0;     // chains
  std::uint64_t p_seed_ = 0;                   // chains

  // Fat-tree node-numbering helpers.
  std::uint32_t core_id(std::size_t a, std::size_t c) const;
  std::uint32_t agg_id(std::size_t pod, std::size_t a) const;
  std::uint32_t edge_id(std::size_t pod, std::size_t e) const;
};

}  // namespace paai::mesh
