// Monte-Carlo driver: repeats an Experiment across seeds and aggregates
//   * FP/FN rates per checkpoint (the Fig. 2 curves): at checkpoint N,
//     FP = fraction of runs convicting at least one honest link,
//     FN = fraction of runs missing at least one truly malicious link;
//   * the detection point: the first checkpoint where both rates fall
//     below the allowed sigma (the "converged condition" of §7);
//   * per-run detection packets (first checkpoint whose conviction set is
//     exactly right and stays right), averaged over runs;
//   * storage statistics per node resampled onto a common time grid.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exec/telemetry.h"
#include "obs/events.h"
#include "runner/experiment.h"
#include "util/stats.h"
#include "util/timeseries.h"

namespace paai::runner {

struct MonteCarloConfig {
  ExperimentConfig base;
  std::size_t runs = 100;
  std::uint64_t seed0 = 1000;
  /// Ground truth for FP/FN accounting (link indices).
  std::vector<std::size_t> malicious_links{4};
  double sigma = 0.03;

  /// When set, aggregate each node's storage series onto a grid of this
  /// many bins over [0, horizon_seconds].
  std::size_t storage_bins = 0;
  double storage_horizon_seconds = 0.0;

  /// Worker threads for the run fan-out: 0 = hardware concurrency, 1 =
  /// serial. Results are bit-identical for any value (seeds are fixed up
  /// front and reduction happens strictly in run order).
  std::size_t jobs = 1;

  /// Optional forensic event log. Attached to run 0 ONLY: a single run's
  /// stream is causally coherent (one path, one clock) where an
  /// interleaving of seeds would not be, and single-writer means the
  /// stream is bit-identical for any jobs value. Purely observational.
  obs::EventLog* events = nullptr;

  /// Optional live telemetry sink, ticked one unit per completed run
  /// from the serialized reducer (so a multi-threaded fan-out still
  /// produces a monotone sample stream). Purely observational.
  obs::TelemetrySink* telemetry = nullptr;
};

struct CurvePoint {
  std::uint64_t packets = 0;
  double fp = 0.0;
  double fn = 0.0;
};

struct MonteCarloResult {
  std::vector<CurvePoint> curve;

  /// First checkpoint with fp <= sigma && fn <= sigma (nullopt if never).
  std::optional<std::uint64_t> detection_packets;

  /// Mean over runs of the first checkpoint from which the conviction set
  /// is exactly the malicious set and never regresses.
  RunningStat per_run_detection_packets;

  /// The same per-run detection points as raw samples, in run order
  /// (runs that never stabilize contribute no sample), plus the
  /// convergence-timeline percentiles over them (0 when no run detected).
  std::vector<double> detection_samples;
  double detection_p50 = 0.0;
  double detection_p90 = 0.0;
  double detection_p99 = 0.0;

  RunningStat final_e2e_rate;
  RunningStat overhead_bytes_ratio;
  RunningStat overhead_packets_ratio;
  std::vector<RunningStat> final_thetas;  // per link

  /// Ground-truth per-link data loss rate over runs. Together with
  /// final_thetas this measures what an adaptive adversary *achieved*
  /// (real damage on its downstream link) vs what the scorer *saw* — the
  /// two axes of the stealth frontier (bench_robustness).
  std::vector<RunningStat> true_link_loss;  // per link

  /// storage_grids[i]: node F_i's aggregated storage series (empty when
  /// storage aggregation is off).
  std::vector<SeriesGrid> storage_grids;

  std::uint64_t total_events = 0;
  std::size_t runs = 0;

  /// Where the wall-clock went: per-run wall time, queue wait, pool
  /// utilization (see exec/telemetry.h). Populated on every call,
  /// including jobs=1.
  exec::ExecTelemetry exec;
};

MonteCarloResult run_monte_carlo(const MonteCarloConfig& config);

/// Log-spaced checkpoint grid from `lo` to `hi` (inclusive-ish), deduped.
std::vector<std::uint64_t> log_checkpoints(std::uint64_t lo, std::uint64_t hi,
                                           std::size_t count);

}  // namespace paai::runner
