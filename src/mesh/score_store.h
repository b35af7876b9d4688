// GlobalScoreStore: cross-path, per-link evidence aggregation (Corollary
// 2) with memory provably O(links) — never O(paths).
//
// Every monitored path contributes (units, blames) evidence for each link
// it crosses; the store keys that evidence by *topology link id* and
// convicts from the union: a node sitting on a thousand paths is judged
// on the sum of all thousand score tables' worth of observations, which
// is exactly the aggregation Corollary 2 says defeats a spread-out
// adversary budget. This is the FAIR / SDNsec bounded-state design
// constraint (per-AS / per-switch accountability with O(links) state):
//
//   per link:  units (u64) + blames (u64) + paths (u64) + solo (u64) +
//              kWitnessCap witness path ids (u32 each) +
//              rounds x (units, blames) window counters (u64 each)
//
// and nothing else, regardless of how many paths are monitored. The
// per-path witness sample is the *bounded* provenance: the kWitnessCap
// smallest contributing path ids (smallest = deterministic under any
// merge order), enough to answer "which paths convicted this link" in
// the audit trail without an O(paths) side table.
//
// Windows: the mesh's time axis is the checkpoint-round schedule (all
// paths advance together), so a "window" here IS a round — the chain
// detectors' unit-count windows (protocols::WindowLedger) specialize to
// the round grid. Evidence deltas are keyed by round index, making the
// window counters u64 sums like everything else: a shard absorbed in any
// order lands each delta in the same round cell, so the merged window
// state commutes exactly. The multi-level conviction rules
// (protocols::BlameSpec) evaluate post-merge over the round grid through
// the chain detectors' own protocols::convicts(), on a LinkEvidence
// record the store fills per link and round prefix; the spec's W
// parameter is ignored in the mesh (the round schedule fixes the window
// width — documented in docs/DETECTORS.md).
//
// Sharding/determinism contract: workers accumulate into private
// ScoreShard instances (one per in-flight tile of the path range) and the
// driver absorbs them in tile order. All evidence counters are u64 sums —
// associative and commutative exactly — and the witness merge keeps the
// smallest ids, so the merged store is bit-identical for ANY worker count
// and ANY completion order; the tile fold order only matters for the
// floating-point damage partials the runner carries alongside.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "protocols/window.h"

namespace paai::mesh {

inline constexpr std::size_t kWitnessCap = 4;
inline constexpr std::uint32_t kNoWitness = 0xffffffffu;

/// The mesh's evidence record on a raw (units, blames) pair, the same as
/// protocols::ScoreTable's on the mesh's t = 1 evidence: the blame
/// proportion as the estimate, its protocols::proportion_sd() as the sd,
/// the blame count as the persistence tally, and no windows;
/// protocols::kNoEvidence when units == 0. More cross-path evidence ->
/// smaller sd -> Corollary 2's union conviction, while honest links keep
/// the no-false-accusation bar at any path count. The store's records
/// and the runner's single-path solo counterfactual both start here.
protocols::LinkEvidence evidence(std::uint64_t units, std::uint64_t blames);

/// One worker's private slice of evidence: same struct-of-arrays shape as
/// the global store, no synchronization, merged via
/// GlobalScoreStore::absorb.
class ScoreShard {
 public:
  explicit ScoreShard(std::size_t num_links, std::size_t rounds = 1);

  /// Folds one path's evidence for one link: `units` monitored units of
  /// which `blames` were blamed on the link. `path` feeds the bounded
  /// witness sample (only when it contributed blame); `solo` marks that
  /// the path's own evidence alone would convict the link (the
  /// single-path counterfactual the cross-path acceptance scenario needs
  /// to be zero).
  void add(std::size_t link, std::uint64_t units, std::uint64_t blames,
           std::uint32_t path, bool solo);

  /// Folds one path's evidence delta for one link *within one checkpoint
  /// round* (the mesh's window). Keyed by round index so deltas from any
  /// shard land in the same cell — u64 sums that commute under any
  /// absorb order. Callers that add windows must cover the totals they
  /// pass to add(): summing a link's window cells over all rounds yields
  /// its cumulative (units, blames).
  void add_window(std::size_t link, std::size_t round, std::uint64_t units,
                  std::uint64_t blames);

  std::size_t num_links() const { return units_.size(); }
  std::size_t rounds() const { return rounds_; }

  /// Heap bytes one shard pins while in flight.
  static std::size_t bytes_for(std::size_t num_links, std::size_t rounds = 1);

 private:
  friend class GlobalScoreStore;
  std::size_t rounds_;
  std::vector<std::uint64_t> units_;
  std::vector<std::uint64_t> blames_;
  std::vector<std::uint64_t> paths_;
  std::vector<std::uint64_t> solo_;
  std::vector<std::uint32_t> witness_;   // num_links x kWitnessCap, sorted
  std::vector<std::uint64_t> win_units_;   // link-major, l * rounds + r
  std::vector<std::uint64_t> win_blames_;  // link-major, l * rounds + r
};

class GlobalScoreStore {
 public:
  explicit GlobalScoreStore(std::size_t num_links, std::size_t rounds = 1);

  /// Merges a shard in (u64 sums + smallest-K witness merge). Shard link
  /// and round counts must match; throws std::invalid_argument otherwise.
  void absorb(const ScoreShard& shard);

  std::size_t num_links() const { return units_.size(); }
  std::size_t rounds() const { return rounds_; }
  std::uint64_t units(std::size_t link) const { return units_[link]; }
  std::uint64_t blames(std::size_t link) const { return blames_[link]; }
  std::uint64_t paths(std::size_t link) const { return paths_[link]; }
  std::uint64_t solo_convictions(std::size_t link) const {
    return solo_[link];
  }

  /// Per-round window cells (u64 sums over absorbed shards), link-major
  /// like the shard's, so a link's round scan reads adjacent cells.
  std::uint64_t round_units(std::size_t link, std::size_t round) const {
    return win_units_[link * rounds_ + round];
  }
  std::uint64_t round_blames(std::size_t link, std::size_t round) const {
    return win_blames_[link * rounds_ + round];
  }

  /// Witness path ids for a link (ascending, at most kWitnessCap).
  std::vector<std::uint32_t> witnesses(std::size_t link) const;

  /// Aggregate per-traversal drop-rate estimate: blames/units (the mesh
  /// evidence model is one traversal per monitored unit, so the
  /// ScoreTable inversion 1-(1-b)^(1/t) degenerates to b itself).
  double theta(std::size_t link) const;

  /// The link's evidence record over the first `rounds_prefix`
  /// checkpoint rounds (default: all) — the checkpoint-scan axis:
  /// evidence() on the prefix's summed window cells, plus the
  /// flagrant-round count and longest hot-round streak (the chain
  /// ledger's bars; an empty round breaks a streak). Rounds are the
  /// mesh's windows. With a full prefix the estimate, sd and tally are
  /// evidence(units(), blames())'s whenever every add() was mirrored by
  /// add_window() calls covering the same totals.
  protocols::LinkEvidence evidence(
      std::size_t link, std::size_t rounds_prefix = ~std::size_t{0}) const;

  /// protocols::convicts() on evidence(link, rounds_prefix); the spec's
  /// W is ignored.
  bool convicts(std::size_t link, double threshold,
                const protocols::BlameSpec& blame,
                std::size_t rounds_prefix = ~std::size_t{0}) const {
    return protocols::convicts(blame, threshold,
                               evidence(link, rounds_prefix));
  }

  /// The smallest round prefix (1..rounds()) on which convicts() holds,
  /// or 0 if none does — the runner's detection-latency axis, in one
  /// pass over the link's rounds.
  std::size_t first_convicting_prefix(std::size_t link, double threshold,
                                      const protocols::BlameSpec& blame) const;

  /// Heap bytes of the aggregated store itself (the O(links) quantity the
  /// bench reports as memory per link).
  std::size_t memory_bytes() const;

 private:
  std::size_t rounds_;
  std::vector<std::uint64_t> units_;
  std::vector<std::uint64_t> blames_;
  std::vector<std::uint64_t> paths_;
  std::vector<std::uint64_t> solo_;
  std::vector<std::uint32_t> witness_;
  std::vector<std::uint64_t> win_units_;
  std::vector<std::uint64_t> win_blames_;
};

}  // namespace paai::mesh
