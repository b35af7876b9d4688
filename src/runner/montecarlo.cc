#include "runner/montecarlo.h"

#include <algorithm>
#include <cmath>

#include "exec/parallel_for.h"
#include "exec/shard_plan.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace paai::runner {

std::vector<std::uint64_t> log_checkpoints(std::uint64_t lo, std::uint64_t hi,
                                           std::size_t count) {
  std::vector<std::uint64_t> out;
  if (lo == 0) lo = 1;
  if (hi < lo) hi = lo;
  const double l0 = std::log(static_cast<double>(lo));
  const double l1 = std::log(static_cast<double>(hi));
  for (std::size_t i = 0; i < count; ++i) {
    const double f =
        count == 1 ? 1.0
                   : static_cast<double>(i) / static_cast<double>(count - 1);
    out.push_back(static_cast<std::uint64_t>(
        std::llround(std::exp(l0 + (l1 - l0) * f))));
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

/// Classifies one run's checkpoint conviction sets against ground truth.
struct RunOutcome {
  std::vector<bool> fp;  // per checkpoint
  std::vector<bool> fn;
};

RunOutcome classify(const ExperimentResult& result,
                    const std::vector<std::size_t>& malicious) {
  RunOutcome out;
  out.fp.reserve(result.checkpoints.size());
  out.fn.reserve(result.checkpoints.size());
  for (const auto& cp : result.checkpoints) {
    bool any_fp = false;
    for (const std::size_t link : cp.convicted) {
      if (std::find(malicious.begin(), malicious.end(), link) ==
          malicious.end()) {
        any_fp = true;
        break;
      }
    }
    bool any_fn = false;
    for (const std::size_t link : malicious) {
      if (std::find(cp.convicted.begin(), cp.convicted.end(), link) ==
          cp.convicted.end()) {
        any_fn = true;
        break;
      }
    }
    out.fp.push_back(any_fp);
    out.fn.push_back(any_fn);
  }
  return out;
}

}  // namespace

MonteCarloResult run_monte_carlo(const MonteCarloConfig& config) {
  MonteCarloResult result;
  result.runs = config.runs;

  const std::size_t num_cps = config.base.checkpoints.size();
  std::vector<std::uint64_t> fp_count(num_cps, 0);
  std::vector<std::uint64_t> fn_count(num_cps, 0);

  const std::size_t d = config.base.path.length;
  result.final_thetas.resize(d);
  result.true_link_loss.resize(d);
  if (config.storage_bins > 0) {
    for (std::size_t i = 0; i <= d; ++i) {
      result.storage_grids.emplace_back(config.storage_horizon_seconds,
                                        config.storage_bins);
    }
  }

  // Fan the runs out across the pool. Seeds are fixed up front by the
  // ShardPlan, and per-run results are folded into the aggregate strictly
  // in run order by the OrderedReducer, so the aggregate is bit-identical
  // to the serial loop for any jobs value.
  const exec::ShardPlan plan(config.seed0, config.runs);

  // Driver-level observability. The handle resolves to a no-op while the
  // registry is disabled; it is never read back into the result, so the
  // aggregate stays bit-identical for any jobs value.
  const obs::Counter obs_runs =
      obs::MetricsRegistry::global().counter("runner.runs");

  auto fold = [&](std::size_t, ExperimentResult&& run) {
    result.total_events += run.events_processed;

    const RunOutcome outcome = classify(run, config.malicious_links);
    for (std::size_t i = 0; i < num_cps && i < outcome.fp.size(); ++i) {
      if (outcome.fp[i]) ++fp_count[i];
      if (outcome.fn[i]) ++fn_count[i];
    }

    // Per-run detection point: the first checkpoint that is correct and
    // stays correct through the end of the run.
    std::size_t first_stable = outcome.fp.size();
    for (std::size_t i = outcome.fp.size(); i-- > 0;) {
      if (outcome.fp[i] || outcome.fn[i]) break;
      first_stable = i;
    }
    if (first_stable < run.checkpoints.size()) {
      const double packets =
          static_cast<double>(run.checkpoints[first_stable].packets);
      result.per_run_detection_packets.add(packets);
      result.detection_samples.push_back(packets);
    }

    result.final_e2e_rate.add(run.observed_e2e_rate);
    result.overhead_bytes_ratio.add(run.overhead_bytes_ratio);
    result.overhead_packets_ratio.add(run.overhead_packets_ratio);
    for (std::size_t i = 0; i < d && i < run.final_thetas.size(); ++i) {
      result.final_thetas[i].add(run.final_thetas[i]);
    }
    for (std::size_t i = 0; i < d && i < run.true_link_loss.size(); ++i) {
      result.true_link_loss[i].add(run.true_link_loss[i]);
    }
    if (!result.storage_grids.empty()) {
      for (std::size_t i = 0; i <= d && i < run.storage.size(); ++i) {
        result.storage_grids[i].accumulate(run.storage[i]);
      }
    }
    // One telemetry unit per completed run, from the serialized fold, so
    // a multi-threaded fan-out still produces a monotone sample stream.
    if (config.telemetry != nullptr) config.telemetry->tick(1);
  };
  exec::OrderedReducer<ExperimentResult> reducer(config.runs, fold);

  result.exec = exec::parallel_for_each(
      config.runs,
      [&](std::size_t r) {
        ExperimentConfig cfg = config.base;
        cfg.path.seed = plan.seed(r);
        // Forensics attach to run 0 only: single writer, and the stream
        // is bit-identical for any jobs value.
        cfg.path.events = (r == 0) ? config.events : nullptr;
        obs_runs.add();
        reducer.commit(r, run_experiment(cfg));
      },
      config.jobs);

  const double n = static_cast<double>(config.runs);
  for (std::size_t i = 0; i < num_cps; ++i) {
    CurvePoint pt;
    pt.packets = config.base.checkpoints[i];
    pt.fp = static_cast<double>(fp_count[i]) / n;
    pt.fn = static_cast<double>(fn_count[i]) / n;
    result.curve.push_back(pt);
    if (!result.detection_packets && pt.fp <= config.sigma &&
        pt.fn <= config.sigma) {
      result.detection_packets = pt.packets;
    }
  }
  // Convergence timeline: percentile packets-to-detection over the runs
  // that stabilized on the exact malicious set.
  result.detection_p50 = quantile(result.detection_samples, 0.50);
  result.detection_p90 = quantile(result.detection_samples, 0.90);
  result.detection_p99 = quantile(result.detection_samples, 0.99);
  return result;
}

}  // namespace paai::runner
