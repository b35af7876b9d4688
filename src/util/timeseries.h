// Time-series accumulation for the storage-overhead figures (Fig. 3) and
// FP/FN convergence curves (Fig. 2).
//
// A TimeSeries records raw (t, value) observations from one simulation run.
// A SeriesGrid resamples many runs onto a common grid of x positions and
// keeps per-bin RunningStats so Monte-Carlo averages and spreads can be
// reported per grid point.
#pragma once

#include <cstddef>
#include <vector>

#include "util/stats.h"

namespace paai {

struct SeriesPoint {
  double t = 0.0;
  double value = 0.0;
};

class TimeSeries {
 public:
  void add(double t, double value) { points_.push_back({t, value}); }
  const std::vector<SeriesPoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }

  /// Value at time t using step ("sample & hold") interpolation; points must
  /// have been added in nondecreasing t order. Returns fallback before the
  /// first point.
  double at(double t, double fallback = 0.0) const;

 private:
  std::vector<SeriesPoint> points_;
};

class SeriesGrid {
 public:
  /// Uniform grid of `bins` points covering [0, x_max].
  SeriesGrid(double x_max, std::size_t bins);

  /// Log-spaced grid covering [x_min, x_max] (both > 0).
  static SeriesGrid logspace(double x_min, double x_max, std::size_t bins);

  /// Folds one run's series into the grid with step interpolation.
  void accumulate(const TimeSeries& run);

  std::size_t size() const { return xs_.size(); }
  double x(std::size_t i) const { return xs_[i]; }
  const RunningStat& stat(std::size_t i) const { return stats_[i]; }

 private:
  SeriesGrid() = default;

  std::vector<double> xs_;
  std::vector<RunningStat> stats_;
};

}  // namespace paai
