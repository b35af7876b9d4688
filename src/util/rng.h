// Deterministic pseudo-random number generation for simulation.
//
// We intentionally do not use std::mt19937 for the hot simulation paths:
// xoshiro256** is ~4x faster, has a tiny state, and supports cheap
// independent streams via SplitMix64 seeding — important because every
// Monte-Carlo run and every link gets its own stream so results are
// reproducible regardless of event interleaving.
//
// NOTE: this RNG models *benign channel randomness* only. All
// adversary-visible randomness (sampling decisions, selection predicates,
// challenges) comes from the keyed PRFs in src/crypto.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace paai {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state and
/// to derive independent per-component seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 by Blackman & Vigna (public domain algorithm),
/// reimplemented here.
class Rng {
 public:
  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with success probability `p` (clamped to [0,1]).
  bool bernoulli(double p);

  /// Uniform integer in [0, bound) using Lemire's rejection method.
  /// bound must be nonzero.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Binomial(n, p) draw. Exact CDF-inversion walk (BinomialWalk) while
  /// the expected count is small (the regime the mesh stat engine lives
  /// in: per-path, per-round drop counts with n*p well under a few
  /// hundred); switches to a clamped continuity-corrected normal
  /// approximation when both tails exceed kBinomialExactLimit, where
  /// inversion would underflow and cost O(n*p) anyway. Consumes exactly
  /// one next_double() either way (none when n == 0 or p is outside
  /// (0, 1)), so a draw is a pure function of (state, n, p) — the
  /// determinism contract everything in src/exec relies on. Each exact
  /// draw pays a pow() and one division per walk step; BinomialCache
  /// returns the same draw from a table when (n, p) repeat.
  static constexpr double kBinomialExactLimit = 400.0;
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Derives an independent child stream; children with distinct tags are
  /// statistically independent of the parent and each other.
  Rng fork(std::uint64_t tag);

 private:
  friend class BinomialCache;

  /// binomial() around a given exact walk: the n == 0 and p outside
  /// (0, 1) cases, the fold onto the smaller tail q, the one
  /// next_double() u and the normal approximation are all here, and
  /// `exact_walk(q, u)` returns the walk's stopping index. Defined and
  /// instantiated in rng.cc only.
  template <class ExactWalk>
  std::uint64_t binomial_by(std::uint64_t n, double p, ExactWalk&& exact_walk);

  std::uint64_t s_[4];
};

/// The exact inversion walk's state after k steps over Binomial(n, q):
/// pmf = P(X = k), cdf = P(X <= k). The one copy of the walk arithmetic —
/// Rng::binomial and BinomialCache both step it, so a cached CDF entry
/// is the walk's own value, bit for bit.
struct BinomialWalk {
  BinomialWalk() = default;
  /// k = 0: pmf(0) = (1-q)^n.
  BinomialWalk(std::uint64_t n, double q);

  /// pmf(k+1) = pmf(k) * (n-k)/(k+1) * q/(1-q). Requires k < n.
  void step(std::uint64_t n) {
    pmf *= ratio * static_cast<double>(n - k) / static_cast<double>(k + 1);
    cdf += pmf;
    ++k;
  }

  double ratio = 0.0;
  double pmf = 0.0;
  double cdf = 0.0;
  std::uint64_t k = 0;
};

/// Binomial(n, rates[id]) draws equal to Rng::binomial(n, rates[id]) bit
/// for bit, from the same Rng state and consuming the same randomness,
/// with the exact walk's pow() and its early steps served from a table.
/// The table is direct-mapped on (id, n) with kSlots slots; a slot holds
/// the first kPrefix CDF entries of its (n, q) walk — filled lazily, as
/// far as draws have walked — plus the walk state at the last filled
/// entry, where a draw that passes them resumes. A draw is a branch-free
/// count of the entries <= u (the CDF is monotone, so that count is the
/// walk's stopping index; unfilled entries and entries past n hold +inf).
/// A miss resets the slot and runs the plain walk, storing each entry it
/// passes. Memory is bounded however many (id, n) keys a run has: the
/// table is the object itself, kSlots x sizeof(Slot) bytes (45 056 on
/// LP64), so a cache on a worker's stack touches no heap. A cache is not
/// thread-safe; give each worker (the mesh: each tile) its own.
class BinomialCache {
 public:
  static constexpr int kSlotBits = 8;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static constexpr std::size_t kPrefix = 16;

  /// `rates` must outlive the cache; draw() ids index it.
  explicit BinomialCache(std::span<const double> rates);

  std::uint64_t draw(Rng& rng, std::uint64_t n, std::uint32_t id);

 private:
  struct Slot {
    double cdf[kPrefix];   // entry k = P(X <= k); +inf unfilled or k >= n
    BinomialWalk resume;   // the walk at entry `resume.k`, the last filled
    std::uint64_t n = 0;   // key; 0 = empty (n == 0 never reaches a slot)
    std::uint32_t id = 0;  // key
  };

  std::span<const double> rates_;
  std::array<Slot, kSlots> slots_{};
};

}  // namespace paai
