#include "mesh/topology.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "util/rng.h"
#include "util/specgrammar.h"

namespace paai::mesh {

namespace {

const std::string kPrefix = "Topology";

[[noreturn]] void bad(const std::string& message) {
  util::spec_error(kPrefix, message);
}

/// SplitMix-style route hash: deterministic, seed-separated choice stream
/// for staircase columns / fat-tree (agg, core) selection.
std::uint64_t route_hash(std::uint64_t seed, std::uint64_t a,
                         std::uint64_t b) {
  SplitMix64 sm(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                (b * 0xbf58476d1ce4e5b9ULL));
  return sm.next();
}

}  // namespace

void PathSet::append(const std::vector<std::uint32_t>& link_ids) {
  links_.insert(links_.end(), link_ids.begin(), link_ids.end());
  offsets_.push_back(links_.size());
  max_length_ = std::max(max_length_, link_ids.size());
}

std::uint32_t Topology::add_node() {
  out_links_.emplace_back();
  return static_cast<std::uint32_t>(num_nodes_++);
}

std::uint32_t Topology::add_link(std::uint32_t from, std::uint32_t to) {
  const auto id = static_cast<std::uint32_t>(links_.size());
  links_.push_back(MeshLink{from, to});
  out_links_[from].push_back(id);
  return id;
}

std::optional<std::uint32_t> Topology::find_link(std::uint32_t from,
                                                 std::uint32_t to) const {
  if (from >= num_nodes_) return std::nullopt;
  for (const std::uint32_t id : out_links_[from]) {
    if (links_[id].to == to) return id;
  }
  return std::nullopt;
}

Topology Topology::linear(std::size_t chains, std::size_t hops) {
  if (chains == 0 || hops < 2) {
    bad("linear needs chains >= 1 and hops >= 2");
  }
  Topology t;
  t.kind_ = Kind::kLinear;
  t.p_chains_ = chains;
  t.p_hops_ = hops;
  for (std::size_t c = 0; c < chains; ++c) {
    std::uint32_t prev = t.add_node();
    for (std::size_t j = 0; j < hops; ++j) {
      const std::uint32_t next = t.add_node();
      t.add_link(prev, next);
      prev = next;
    }
  }
  return t;
}

Topology Topology::grid(std::size_t rows, std::size_t cols) {
  if (rows == 0 || cols < 3) bad("grid needs rows >= 1 and cols >= 3");
  Topology t;
  t.kind_ = Kind::kGrid;
  t.p_rows_ = rows;
  t.p_cols_ = cols;
  for (std::size_t i = 0; i < rows * cols; ++i) t.add_node();
  const auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<std::uint32_t>(r * cols + c);
  };
  // Right edges first (row-major), then down edges — fixed numbering.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c + 1 < cols; ++c) {
      t.add_link(id(r, c), id(r, c + 1));
    }
  }
  for (std::size_t r = 0; r + 1 < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      t.add_link(id(r, c), id(r + 1, c));
    }
  }
  return t;
}

std::uint32_t Topology::core_id(std::size_t a, std::size_t c) const {
  return static_cast<std::uint32_t>(a * (p_k_ / 2) + c);
}

std::uint32_t Topology::agg_id(std::size_t pod, std::size_t a) const {
  const std::size_t cores = (p_k_ / 2) * (p_k_ / 2);
  return static_cast<std::uint32_t>(cores + pod * p_k_ + a);
}

std::uint32_t Topology::edge_id(std::size_t pod, std::size_t e) const {
  const std::size_t cores = (p_k_ / 2) * (p_k_ / 2);
  return static_cast<std::uint32_t>(cores + pod * p_k_ + p_k_ / 2 + e);
}

Topology Topology::fat_tree(std::size_t k) {
  if (k < 2 || k % 2 != 0) bad("fattree needs an even k >= 2");
  Topology t;
  t.kind_ = Kind::kFatTree;
  t.p_k_ = k;
  const std::size_t half = k / 2;
  // Numbering: (k/2)^2 cores, then per pod k/2 aggs followed by k/2
  // edges. Allocate all nodes up front so the helpers above are valid.
  const std::size_t total = half * half + k * k;
  for (std::size_t i = 0; i < total; ++i) t.add_node();
  for (std::size_t pod = 0; pod < k; ++pod) {
    // Edge <-> agg, full bipartite within the pod, both directions.
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t a = 0; a < half; ++a) {
        t.add_link(t.edge_id(pod, e), t.agg_id(pod, a));
        t.add_link(t.agg_id(pod, a), t.edge_id(pod, e));
      }
    }
    // Agg a <-> its k/2 cores [a*(k/2), (a+1)*(k/2)).
    for (std::size_t a = 0; a < half; ++a) {
      for (std::size_t c = 0; c < half; ++c) {
        t.add_link(t.agg_id(pod, a), t.core_id(a, c));
        t.add_link(t.core_id(a, c), t.agg_id(pod, a));
      }
    }
  }
  return t;
}

Topology Topology::chains(std::size_t nodes, std::size_t degree,
                          std::uint64_t seed) {
  if (nodes < 4 || nodes > 65536) bad("chains needs 4 <= nodes <= 65536");
  if (degree == 0 || degree >= nodes) {
    bad("chains needs 1 <= degree < nodes");
  }
  Topology t;
  t.kind_ = Kind::kChains;
  t.p_nodes_ = nodes;
  t.p_degree_ = degree;
  t.p_seed_ = seed;
  for (std::size_t i = 0; i < nodes; ++i) t.add_node();
  // Ring backbone guarantees strong connectivity; extra seeded links make
  // it a mesh. Link numbering: ring first, then per-node extras.
  for (std::size_t i = 0; i < nodes; ++i) {
    t.add_link(static_cast<std::uint32_t>(i),
               static_cast<std::uint32_t>((i + 1) % nodes));
  }
  Rng rng(seed ^ 0x70704f4c4f475943ULL);
  for (std::size_t i = 0; i < nodes; ++i) {
    std::size_t added = 0;
    // Bounded rejection: skip self-links and duplicates deterministically.
    for (std::size_t attempt = 0; added < degree && attempt < degree * 16;
         ++attempt) {
      const auto target =
          static_cast<std::uint32_t>(rng.next_below(nodes));
      if (target == i) continue;
      if (t.find_link(static_cast<std::uint32_t>(i), target)) continue;
      t.add_link(static_cast<std::uint32_t>(i), target);
      ++added;
    }
  }
  return t;
}

Topology Topology::parse(std::string_view spec) {
  const auto clauses = util::parse_compact_clauses(spec, kPrefix);
  if (clauses.size() != 1) {
    bad("expected exactly one topology clause, got " +
        std::to_string(clauses.size()));
  }
  const util::SpecClause& c = clauses[0];
  const auto count_key = [&](std::string_view key, std::size_t dflt,
                             std::size_t lo, std::size_t hi) {
    const auto v = c.get(key);
    if (!v) return dflt;
    if (!(*v >= static_cast<double>(lo)) ||
        !(*v <= static_cast<double>(hi)) ||
        *v != static_cast<double>(static_cast<std::size_t>(*v))) {
      bad(std::string(key) + " must be an integer in [" +
          std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    return static_cast<std::size_t>(*v);
  };
  if (c.kind == "linear") {
    c.check_keys({"hops"}, kPrefix);
    return linear(c.index, count_key("hops", 6, 2, 64));
  }
  if (c.kind == "grid") {
    c.check_keys({"cols"}, kPrefix);
    return grid(c.index, count_key("cols", c.index, 3, 4096));
  }
  if (c.kind == "fattree") {
    c.check_keys({}, kPrefix);
    return fat_tree(c.index);
  }
  if (c.kind == "chains") {
    c.check_keys({"degree", "seed"}, kPrefix);
    // A seed is any integer a spec number holds exactly.
    return chains(c.index, count_key("degree", 3, 1, 64),
                  count_key("seed", 1, 0, std::size_t{1} << 53));
  }
  bad("unknown topology kind '" + c.kind +
      "' (expected linear | grid | fattree | chains)");
}

std::string Topology::to_string() const {
  switch (kind_) {
    case Kind::kLinear:
      return "linear@" + std::to_string(p_chains_) +
             ":hops=" + std::to_string(p_hops_);
    case Kind::kGrid:
      return "grid@" + std::to_string(p_rows_) +
             ":cols=" + std::to_string(p_cols_);
    case Kind::kFatTree:
      return "fattree@" + std::to_string(p_k_);
    case Kind::kChains:
      return "chains@" + std::to_string(p_nodes_) +
             ":degree=" + std::to_string(p_degree_) +
             ",seed=" + std::to_string(p_seed_);
  }
  return {};
}

PathSet Topology::enumerate_paths(std::size_t count,
                                  std::uint64_t seed) const {
  PathSet out;
  std::vector<std::uint32_t> route;

  switch (kind_) {
    case Kind::kLinear: {
      // Path i rides chain (i % chains) end to end: the link-disjoint
      // fleet shape (a chain carrying several paths still shares every
      // node between them).
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t chain = i % p_chains_;
        route.clear();
        for (std::size_t j = 0; j < p_hops_; ++j) {
          route.push_back(static_cast<std::uint32_t>(chain * p_hops_ + j));
        }
        out.append(route);
      }
      return out;
    }

    case Kind::kGrid: {
      // Left-column row r0 to right-column row r1 >= r0; the descent
      // column for each row step is a route_hash choice, so many paths
      // funnel through shared interior nodes.
      const std::size_t right_base = p_rows_ * (p_cols_ - 1);
      const auto right_link = [&](std::size_t r, std::size_t c) {
        return static_cast<std::uint32_t>(r * (p_cols_ - 1) + c);
      };
      const auto down_link = [&](std::size_t r, std::size_t c) {
        return static_cast<std::uint32_t>(right_base + r * p_cols_ + c);
      };
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t h = route_hash(seed, i, 0);
        const std::size_t r0 = h % p_rows_;
        const std::size_t r1 = r0 + (h >> 20) % (p_rows_ - r0);
        route.clear();
        std::size_t r = r0, c = 0;
        std::size_t drops_left = r1 - r0;
        while (c + 1 < p_cols_) {
          // Descend when the remaining columns are exactly enough, or
          // when the hash says so (spreads descents over the lattice).
          const std::size_t cols_left = p_cols_ - 1 - c;
          if (drops_left > 0 &&
              route_hash(seed, i, 1000 + c) % cols_left < drops_left) {
            route.push_back(down_link(r, c));
            ++r;
            --drops_left;
            continue;
          }
          route.push_back(right_link(r, c));
          ++c;
        }
        while (drops_left > 0) {
          route.push_back(down_link(r, p_cols_ - 1));
          ++r;
          --drops_left;
        }
        out.append(route);
      }
      return out;
    }

    case Kind::kFatTree: {
      const std::size_t half = p_k_ / 2;
      const std::size_t edges = p_k_ * half;  // edge switches overall
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t h = route_hash(seed, i, 0);
        const std::size_t src = h % edges;
        std::size_t dst = (h >> 16) % edges;
        if (dst == src) dst = (dst + 1) % edges;
        const std::size_t sp = src / half, se = src % half;
        const std::size_t dp = dst / half, de = dst % half;
        const std::size_t a = (h >> 32) % half;
        route.clear();
        if (sp == dp) {
          // Intra-pod: edge -> agg -> edge (2 links).
          route.push_back(*find_link(edge_id(sp, se), agg_id(sp, a)));
          route.push_back(*find_link(agg_id(sp, a), edge_id(dp, de)));
        } else {
          // Inter-pod: edge -> agg -> core -> agg' -> edge' (4 links).
          const std::size_t cc = (h >> 48) % half;
          route.push_back(*find_link(edge_id(sp, se), agg_id(sp, a)));
          route.push_back(*find_link(agg_id(sp, a), core_id(a, cc)));
          route.push_back(*find_link(core_id(a, cc), agg_id(dp, a)));
          route.push_back(*find_link(agg_id(dp, a), edge_id(dp, de)));
        }
        out.append(route);
      }
      return out;
    }

    case Kind::kChains: {
      // Deterministic gateway targets (bounded so the per-target BFS
      // next-hop tables stay small); sources cycle all nodes. Routes are
      // BFS-shortest toward the target, ties broken by link id.
      const std::size_t gateways = std::min<std::size_t>(p_nodes_, 64);
      Rng pick(seed ^ 0x47415445ULL);
      std::vector<std::uint32_t> targets;
      for (std::size_t g = 0; g < gateways; ++g) {
        targets.push_back(
            static_cast<std::uint32_t>(pick.next_below(p_nodes_)));
      }
      // next_link[t][n] = the out-link node n takes toward target t.
      std::vector<std::vector<std::uint32_t>> next_link(
          targets.size(),
          std::vector<std::uint32_t>(p_nodes_, UINT32_MAX));
      // Reverse adjacency once.
      std::vector<std::vector<std::uint32_t>> in_links(p_nodes_);
      for (std::uint32_t id = 0;
           id < static_cast<std::uint32_t>(links_.size()); ++id) {
        in_links[links_[id].to].push_back(id);
      }
      for (std::size_t ti = 0; ti < targets.size(); ++ti) {
        std::deque<std::uint32_t> frontier{targets[ti]};
        std::vector<bool> seen(p_nodes_, false);
        seen[targets[ti]] = true;
        while (!frontier.empty()) {
          const std::uint32_t node = frontier.front();
          frontier.pop_front();
          for (const std::uint32_t id : in_links[node]) {
            const std::uint32_t pred = links_[id].from;
            if (seen[pred]) continue;
            seen[pred] = true;
            next_link[ti][pred] = id;
            frontier.push_back(pred);
          }
        }
      }
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t h = route_hash(seed, i, 2);
        const std::size_t ti = h % targets.size();
        std::uint32_t node =
            static_cast<std::uint32_t>((h >> 24) % p_nodes_);
        if (node == targets[ti]) node = (node + 1) % p_nodes_;
        route.clear();
        while (node != targets[ti]) {
          const std::uint32_t id = next_link[ti][node];
          route.push_back(id);
          node = links_[id].to;
        }
        out.append(route);
      }
      return out;
    }
  }
  return out;
}

}  // namespace paai::mesh
