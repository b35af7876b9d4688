#include "util/timeseries.h"

#include <algorithm>
#include <cmath>

namespace paai {

double TimeSeries::at(double t, double fallback) const {
  if (points_.empty() || t < points_.front().t) return fallback;
  // Binary search for the last point with point.t <= t.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](double lhs, const SeriesPoint& p) { return lhs < p.t; });
  return std::prev(it)->value;
}

SeriesGrid::SeriesGrid(double x_max, std::size_t bins) {
  xs_.reserve(bins);
  for (std::size_t i = 0; i < bins; ++i) {
    xs_.push_back(x_max * static_cast<double>(i + 1) /
                  static_cast<double>(bins));
  }
  stats_.resize(bins);
}

SeriesGrid SeriesGrid::logspace(double x_min, double x_max, std::size_t bins) {
  SeriesGrid g;
  g.xs_.reserve(bins);
  const double l0 = std::log(x_min);
  const double l1 = std::log(x_max);
  for (std::size_t i = 0; i < bins; ++i) {
    const double f = bins == 1 ? 1.0
                               : static_cast<double>(i) /
                                     static_cast<double>(bins - 1);
    g.xs_.push_back(std::exp(l0 + (l1 - l0) * f));
  }
  g.stats_.resize(bins);
  return g;
}

void SeriesGrid::accumulate(const TimeSeries& run) {
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    stats_[i].add(run.at(xs_[i]));
  }
}

}  // namespace paai
