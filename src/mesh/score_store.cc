#include "mesh/score_store.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace paai::mesh {

namespace {

/// Inserts `path` into a sorted kWitnessCap window (ascending, kNoWitness
/// padded), keeping the smallest ids. Duplicate ids are kept out so a
/// path absorbed via several shards (impossible today — tiles partition
/// the path range — but cheap to guarantee) counts once.
void witness_insert(std::uint32_t* window, std::uint32_t path) {
  for (std::size_t i = 0; i < kWitnessCap; ++i) {
    if (window[i] == path) return;
    if (path < window[i]) {
      std::swap(path, window[i]);
    }
  }
}

/// The round-prefix accumulator behind GlobalScoreStore::evidence():
/// running (units, blames) sums, the flagrant-round count and the hot
/// streak, one add() per round in order.
struct RoundScan {
  std::uint64_t units = 0, blames = 0, flagrant = 0, streak = 0, longest = 0;

  void add(std::uint64_t ru, std::uint64_t rb) {
    units += ru;
    blames += rb;
    const double theta_r =
        ru == 0 ? 0.0 : static_cast<double>(rb) / static_cast<double>(ru);
    if (theta_r > protocols::kWindowFlagrantTheta) ++flagrant;
    streak = theta_r > protocols::kWindowHighTheta ? streak + 1 : 0;
    longest = std::max(longest, streak);
  }

  protocols::LinkEvidence record() const {
    protocols::LinkEvidence ev = evidence(units, blames);
    ev.flagrant = flagrant;
    ev.max_streak = longest;
    return ev;
  }
};

}  // namespace

ScoreShard::ScoreShard(std::size_t num_links, std::size_t rounds)
    : rounds_(rounds == 0 ? 1 : rounds),
      units_(num_links, 0),
      blames_(num_links, 0),
      paths_(num_links, 0),
      solo_(num_links, 0),
      witness_(num_links * kWitnessCap, kNoWitness),
      win_units_(num_links * rounds_, 0),
      win_blames_(num_links * rounds_, 0) {
  if (num_links == 0) {
    throw std::invalid_argument("ScoreShard: need at least one link");
  }
}

void ScoreShard::add(std::size_t link, std::uint64_t units,
                     std::uint64_t blames, std::uint32_t path, bool solo) {
  units_[link] += units;
  blames_[link] += blames;
  paths_[link] += 1;
  solo_[link] += solo ? 1 : 0;
  if (blames > 0) {
    witness_insert(witness_.data() + link * kWitnessCap, path);
  }
}

void ScoreShard::add_window(std::size_t link, std::size_t round,
                            std::uint64_t units, std::uint64_t blames) {
  win_units_[round * num_links() + link] += units;
  win_blames_[round * num_links() + link] += blames;
}

std::size_t ScoreShard::bytes_for(std::size_t num_links, std::size_t rounds) {
  return num_links * (4 * sizeof(std::uint64_t) +
                      kWitnessCap * sizeof(std::uint32_t)) +
         num_links * (rounds == 0 ? 1 : rounds) * 2 * sizeof(std::uint64_t);
}

GlobalScoreStore::GlobalScoreStore(std::size_t num_links, std::size_t rounds)
    : rounds_(rounds == 0 ? 1 : rounds),
      units_(num_links, 0),
      blames_(num_links, 0),
      paths_(num_links, 0),
      solo_(num_links, 0),
      witness_(num_links * kWitnessCap, kNoWitness),
      win_units_(num_links * rounds_, 0),
      win_blames_(num_links * rounds_, 0) {
  if (num_links == 0) {
    throw std::invalid_argument("GlobalScoreStore: need at least one link");
  }
}

void GlobalScoreStore::absorb(const ScoreShard& shard) {
  if (shard.num_links() != num_links()) {
    throw std::invalid_argument("GlobalScoreStore::absorb: link mismatch");
  }
  if (shard.rounds() != rounds_) {
    throw std::invalid_argument("GlobalScoreStore::absorb: round mismatch");
  }
  for (std::size_t l = 0; l < units_.size(); ++l) {
    units_[l] += shard.units_[l];
    blames_[l] += shard.blames_[l];
    paths_[l] += shard.paths_[l];
    solo_[l] += shard.solo_[l];
    const std::uint32_t* in = shard.witness_.data() + l * kWitnessCap;
    std::uint32_t* out = witness_.data() + l * kWitnessCap;
    for (std::size_t i = 0; i < kWitnessCap && in[i] != kNoWitness; ++i) {
      witness_insert(out, in[i]);
    }
  }
  for (std::size_t k = 0; k < win_units_.size(); ++k) {
    win_units_[k] += shard.win_units_[k];
    win_blames_[k] += shard.win_blames_[k];
  }
}

std::vector<std::uint32_t> GlobalScoreStore::witnesses(
    std::size_t link) const {
  std::vector<std::uint32_t> out;
  const std::uint32_t* w = witness_.data() + link * kWitnessCap;
  for (std::size_t i = 0; i < kWitnessCap && w[i] != kNoWitness; ++i) {
    out.push_back(w[i]);
  }
  return out;
}

double GlobalScoreStore::theta(std::size_t link) const {
  if (units_[link] == 0) return 0.0;
  return static_cast<double>(blames_[link]) /
         static_cast<double>(units_[link]);
}

protocols::LinkEvidence evidence(std::uint64_t units, std::uint64_t blames) {
  if (units == 0) return protocols::kNoEvidence;
  // The chain rule's per-link blame tally maps onto the aggregated blame
  // count: K independent blame observations above the raw threshold
  // convict without waiting out the sd margin.
  return {static_cast<double>(blames) / static_cast<double>(units),
          protocols::proportion_sd(units, blames),
          static_cast<double>(blames), 0, 0};
}

protocols::LinkEvidence GlobalScoreStore::evidence(
    std::size_t link, std::size_t rounds_prefix) const {
  RoundScan scan;
  for (std::size_t r = 0; r < std::min(rounds_prefix, rounds_); ++r) {
    scan.add(round_units(link, r), round_blames(link, r));
  }
  return scan.record();
}

std::size_t GlobalScoreStore::first_convicting_prefix(
    std::size_t link, double threshold,
    const protocols::BlameSpec& blame) const {
  RoundScan scan;
  for (std::size_t r = 0; r < rounds_; ++r) {
    scan.add(round_units(link, r), round_blames(link, r));
    if (protocols::convicts(blame, threshold, scan.record())) return r + 1;
  }
  return 0;
}

std::size_t GlobalScoreStore::memory_bytes() const {
  return units_.capacity() * sizeof(std::uint64_t) +
         blames_.capacity() * sizeof(std::uint64_t) +
         paths_.capacity() * sizeof(std::uint64_t) +
         solo_.capacity() * sizeof(std::uint64_t) +
         witness_.capacity() * sizeof(std::uint32_t) +
         win_units_.capacity() * sizeof(std::uint64_t) +
         win_blames_.capacity() * sizeof(std::uint64_t);
}

}  // namespace paai::mesh
