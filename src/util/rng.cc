#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

namespace paai {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

namespace {

/// The normal-approximation draw for mean = n*q > kBinomialExactLimit.
std::uint64_t binomial_normal(std::uint64_t n, double q, double u) {
  // Continuity-corrected; at mean > 400 the relative error is far below
  // the one-standard-error conviction margins the evidence feeds.
  const double mean = static_cast<double>(n) * q;
  const double sd = std::sqrt(mean * (1.0 - q));
  // Probit by bisection on the normal CDF (40 halvings of [-8, 8] ~
  // 1e-11 absolute) — branch-free in distribution terms and needs no
  // erf-inverse.
  double lo = -8.0, hi = 8.0;
  for (int i = 0; i < 40; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double cdf = 0.5 * std::erfc(-mid / std::sqrt(2.0));
    (cdf < u ? lo : hi) = mid;
  }
  const double z = 0.5 * (lo + hi);
  const double draw = std::floor(mean + sd * z + 0.5);
  const double clamped = std::min(std::max(draw, 0.0), static_cast<double>(n));
  return static_cast<std::uint64_t>(clamped);
}

}  // namespace

template <class ExactWalk>
std::uint64_t Rng::binomial_by(std::uint64_t n, double p,
                               ExactWalk&& exact_walk) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  // Work on the smaller tail so the inversion walk stays O(min(np, nq)).
  const bool flipped = p > 0.5;
  const double q = flipped ? 1.0 - p : p;
  const double mean = static_cast<double>(n) * q;
  const double u = next_double();
  const std::uint64_t k = mean <= kBinomialExactLimit
                              ? exact_walk(q, u)
                              : binomial_normal(n, q, u);
  return flipped ? n - k : k;
}

BinomialWalk::BinomialWalk(std::uint64_t n, double q)
    : ratio(q / (1.0 - q)),
      pmf(std::pow(1.0 - q, static_cast<double>(n))),
      cdf(pmf) {}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  return binomial_by(n, p, [n](double q, double u) {
    // CDF inversion. (1-q)^n stays above DBL_MIN while mean <= 400, so
    // the walk cannot underflow into an infinite loop; the k == n guard
    // bounds it regardless.
    BinomialWalk walk(n, q);
    while (u >= walk.cdf && walk.k < n) walk.step(n);
    return walk.k;
  });
}

BinomialCache::BinomialCache(std::span<const double> rates)
    : rates_(rates) {}

std::uint64_t BinomialCache::draw(Rng& rng, std::uint64_t n,
                                  std::uint32_t id) {
  return rng.binomial_by(n, rates_[id], [&](double q, double u) {
    // One id's consecutive n take consecutive slots, from a golden-ratio
    // offset per id (Fibonacci hashing: the top kSlotBits of id *
    // 2^64/phi), so a few ids' runs of n stay apart.
    const std::uint64_t offset =
        (id * 0x9e3779b97f4a7c15ULL) >> (64 - kSlotBits);
    Slot& slot = slots_[(n + offset) & (kSlots - 1)];
    if (slot.n != n || slot.id != id) {
      std::fill(std::begin(slot.cdf), std::end(slot.cdf),
                std::numeric_limits<double>::infinity());
      slot.resume = BinomialWalk(n, q);
      slot.cdf[0] = slot.resume.cdf;  // n >= 1: entry 0 is a real one
      slot.n = n;
      slot.id = id;
    }
    // Entries <= u, two lanes per compare (a GCC/Clang vector
    // extension): a true lane is -1, so the lane sums are minus the count.
    using V2d = double __attribute__((vector_size(16)));
    using V2i = long long __attribute__((vector_size(16)));
    const V2d uu = {u, u};
    V2i even = {0, 0}, odd = {0, 0};
    for (std::size_t j = 0; j < kPrefix; j += 4) {
      V2d lo, hi;
      std::memcpy(&lo, slot.cdf + j, sizeof lo);
      std::memcpy(&hi, slot.cdf + j + 2, sizeof hi);
      even += lo <= uu;
      odd += hi <= uu;
    }
    even += odd;
    const auto below = static_cast<std::uint64_t>(-(even[0] + even[1]));
    // u < cdf[below], a filled entry: the walk stops there.
    if (below <= slot.resume.k) return below;
    // u passes every filled entry: resume the walk at the last one,
    // filling the prefix as it goes.
    BinomialWalk walk = slot.resume;
    while (u >= walk.cdf && walk.k < n) {
      walk.step(n);
      if (walk.k < kPrefix && walk.k < n) {
        slot.cdf[walk.k] = walk.cdf;
        slot.resume = walk;
      }
    }
    return walk.k;
  });
}

Rng Rng::fork(std::uint64_t tag) {
  SplitMix64 sm(next_u64() ^ (tag * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL));
  return Rng(sm.next());
}

}  // namespace paai
