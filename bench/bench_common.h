// Shared helpers for the bench binaries that regenerate the paper's tables
// and figures. Every bench binary and every `paai` command reads these
// shared flags through BenchArgs. Each value flag takes either form,
// "--name=value" or "--name value":
//   --csv               emit CSV instead of aligned columns
//   --runs N            Monte-Carlo runs (0 = the bench's default); the
//                       paper used 10000 — defaults here are sized for a
//                       single core, and the curves are already stable
//   --scale PCT         integer percent of the default packet budgets
//                       (default 100 = paper scale)
//   --jobs N            worker threads for the Monte-Carlo fan-out;
//                       default 0 = hardware concurrency. Results are
//                       bit-identical for any value.
//   --metrics-out FILE  write a machine-readable "paai.bench.v1" JSON
//                       document (paper metrics + wall time + exec
//                       telemetry + src/obs counters; see
//                       docs/OBSERVABILITY.md) and enable the global
//                       metrics registry for the process
//   --trace-out FILE    write a Chrome trace_event JSON (load in
//                       chrome://tracing or https://ui.perfetto.dev):
//                       the event log of run 0 of the first Monte-Carlo
//                       call, one instant per event
//   --telemetry-out FILE  stream live "paai.telemetry.v3" JSONL samples
//                       (obs/telemetry.h); enables the metrics registry
//                       (phase timers included) for the process
//   --telemetry-every N sampling cadence in bench work units (default
//                       10000)
//   --faults SPEC       scripted benign fault plan (see docs/FAULTS.md)
//                       applied to every run
//   --adversary SPEC    declarative adversary plan (see
//                       docs/ADVERSARIES.md); repeatable, every
//                       occurrence merges into one plan, and a node named
//                       twice (within or across flags) is an error. A
//                       bench replaces its built-in adversary with it.
// Knobs come from argv only. Malformed values are a hard error (exit 2)
// with a diagnostic naming the flag, never a silent default: counts
// through count_flag (util/csv.h), --faults/--adversary through their
// plan's parse().
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "adversary/spec.h"
#include "faults/plan.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "runner/montecarlo.h"
#include "util/csv.h"

namespace paai::bench {

struct BenchArgs {
  /// The shared flags: parse() reads exactly these, and `paai` accepts
  /// them besides its own (through shared_flag).
  static constexpr std::string_view kFlags[] = {
      "--csv", "--runs", "--scale", "--jobs", "--metrics-out", "--trace-out",
      "--telemetry-out", "--telemetry-every", "--faults", "--adversary"};

  /// True when an argv token ("--name" or "--name=value") names one.
  static bool shared_flag(std::string_view arg) {
    const std::string_view name = arg.substr(0, arg.find('='));
    return std::find(std::begin(kFlags), std::end(kFlags), name) !=
           std::end(kFlags);
  }

  bool csv = false;
  std::uint64_t runs = 0;  // 0 = per-bench default
  double scale = 1.0;
  std::size_t jobs = 0;    // 0 = hardware concurrency
  std::optional<std::string> metrics_out;
  std::optional<std::string> trace_out;
  std::optional<std::string> telemetry_out;
  std::uint64_t telemetry_every = 0;  // 0 = the 10000-unit default
  faults::FaultPlan faults{};
  adversary::AdversaryPlan adversaries{};

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    args.csv = has_flag(argc, argv, "--csv");
    args.runs = count_flag(argc, argv, "--runs", 0);
    args.scale =
        static_cast<double>(count_flag(argc, argv, "--scale", 100)) / 100.0;
    args.jobs = count_flag(argc, argv, "--jobs", 0);
    args.metrics_out = flag_str(argc, argv, "--metrics-out");
    args.trace_out = flag_str(argc, argv, "--trace-out");
    args.telemetry_out = flag_str(argc, argv, "--telemetry-out");
    args.telemetry_every = count_flag(argc, argv, "--telemetry-every", 0);
    const char* flag = "--faults";
    try {
      if (const auto spec = flag_str(argc, argv, flag)) {
        args.faults = faults::FaultPlan::parse(*spec);
      }
      flag = "--adversary";
      for (const std::string& spec : flag_all(argc, argv, flag)) {
        for (const auto& clause : adversary::AdversaryPlan::parse(spec).specs) {
          args.adversaries.add(clause);
        }
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s: %s\n", flag, e.what());
      std::exit(2);
    }
    return args;
  }

  std::size_t runs_or(std::size_t dflt) const {
    return runs > 0 ? runs : dflt;
  }

  /// Applies --adversary to an experiment config: replaces the bench's
  /// built-in adversary (strategy specs AND composed link faults) with the
  /// user's plan. Returns true when a plan was applied; callers tracking
  /// ground truth must then retarget the malicious set (node N charges its
  /// downstream link l_N).
  bool apply_adversaries(runner::ExperimentConfig& cfg) const {
    if (adversaries.empty()) return false;
    cfg.adversaries.assign(adversaries.specs.begin(),
                           adversaries.specs.end());
    cfg.link_faults.clear();
    return true;
  }

  /// Monte-Carlo variant: also retargets malicious_links to the plan's
  /// compromised nodes.
  bool apply_adversaries(runner::MonteCarloConfig& mc) const {
    if (!apply_adversaries(mc.base)) return false;
    mc.malicious_links.clear();
    for (const auto& spec : adversaries.specs) {
      mc.malicious_links.push_back(spec.node);
    }
    return true;
  }

  std::uint64_t scaled(std::uint64_t packets) const {
    return static_cast<std::uint64_t>(static_cast<double>(packets) * scale);
  }
};

/// RAII wrapper every bench main() starts with: parses the shared flags,
/// enables the global metrics registry (counters, gauges and phases) when
/// --metrics-out/--telemetry-out is given, and writes the JSON documents
/// on destruction. With no such flag the registry stays disabled and the
/// session costs nothing.
class BenchSession {
 public:
  BenchSession(std::string name, int argc, char** argv)
      : args(BenchArgs::parse(argc, argv)),
        report_(name),
        start_(std::chrono::steady_clock::now()) {
    if (args.metrics_out || args.telemetry_out) {
      auto& reg = obs::MetricsRegistry::global();
      reg.reset();
      reg.set_enabled(true);
    }
    if (args.telemetry_out) {
      telemetry_ = std::make_unique<obs::TelemetrySink>(
          *args.telemetry_out,
          args.telemetry_every > 0 ? args.telemetry_every : 10000);
      if (!telemetry_->ok()) {
        std::fprintf(stderr, "error: cannot write telemetry to %s\n",
                     args.telemetry_out->c_str());
        telemetry_.reset();
      }
    }
    report_.set_arg("runs", static_cast<long long>(args.runs));
    report_.set_arg("scale_percent",
                    static_cast<long long>(args.scale * 100.0 + 0.5));
    report_.set_arg("jobs", static_cast<long long>(args.jobs));
  }

  BenchSession(const BenchSession&) = delete;
  BenchSession& operator=(const BenchSession&) = delete;

  ~BenchSession() {
    if (telemetry_ != nullptr) telemetry_->final_sample();
    if (args.metrics_out) {
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count();
      report_.set_wall_seconds(wall);
      std::ofstream os(*args.metrics_out);
      if (!os) {
        std::fprintf(stderr, "error: cannot write metrics to %s\n",
                     args.metrics_out->c_str());
      } else {
        report_.write(os, obs::MetricsRegistry::global().snapshot());
      }
    }
    if (args.trace_out) {
      std::ofstream os(*args.trace_out);
      if (!os) {
        std::fprintf(stderr, "error: cannot write trace to %s\n",
                     args.trace_out->c_str());
      } else {
        take_events();  // a session that drove no run writes an empty one
        events_->write_chrome_trace(os);
      }
    }
  }

  /// The event log --trace-out renders on exit. The first call makes it
  /// and every later call returns nullptr, so the timeline is one
  /// coherent run: benches pass it to MonteCarloConfig::events, which
  /// attaches it to run 0. nullptr without --trace-out unless `want`
  /// (paai run/curve's --events-out writes the same log).
  obs::EventLog* take_events(std::size_t per_node_capacity = 1 << 14,
                             bool want = false) {
    if (events_ != nullptr || !(want || args.trace_out)) return nullptr;
    events_ = std::make_unique<obs::EventLog>(per_node_capacity);
    return events_.get();
  }

  /// nullptr unless --telemetry-out was given; pass to
  /// MonteCarloConfig/MeshConfig/ServeConfig telemetry.
  obs::TelemetrySink* telemetry() { return telemetry_.get(); }

  void metric(std::string name, double value) {
    report_.set_metric(std::move(name), value);
  }
  void info(std::string name, std::string value) {
    report_.set_info(std::move(name), std::move(value));
  }
  void arg(std::string name, long long value) {
    report_.set_arg(std::move(name), value);
  }

  /// Prints the stderr exec summary AND records it in the report (the
  /// last recorded section wins in the document).
  void exec(const exec::ExecTelemetry& t);

  BenchArgs args;

 private:
  obs::BenchReport report_;
  std::unique_ptr<obs::EventLog> events_;
  std::unique_ptr<obs::TelemetrySink> telemetry_;
  std::chrono::steady_clock::time_point start_;
};

/// One-line execution summary for stderr: resolved jobs, wall time, mean
/// per-run time, pool utilization.
inline void print_exec_summary(const exec::ExecTelemetry& t) {
  std::fprintf(stderr,
               "[exec] jobs=%zu wall=%.2fs runs=%zu mean_run=%.0fms "
               "mean_queue_wait=%.0fms utilization=%.0f%%\n",
               t.jobs, t.wall_seconds, t.task_seconds.count(),
               t.task_seconds.mean() * 1e3,
               t.queue_wait_seconds.mean() * 1e3, t.utilization() * 100.0);
}

inline void BenchSession::exec(const exec::ExecTelemetry& t) {
  print_exec_summary(t);
  report_.set_exec(t.jobs, t.wall_seconds, t.task_seconds.count(),
                   t.task_seconds.mean(), t.queue_wait_seconds.mean(),
                   t.utilization());
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("== %s ==\n(reproduces %s; see EXPERIMENTS.md for the "
              "paper-vs-measured record)\n\n",
              title, paper_ref);
}

/// Measured detection point of a protocol: runs Monte-Carlo over a
/// log-spaced checkpoint grid at the session's --jobs, with its
/// --adversary plan; returns the MC result.
inline runner::MonteCarloResult detection_curve(
    protocols::ProtocolKind kind, std::uint64_t packets, std::size_t runs,
    std::size_t grid_points, std::uint64_t first_checkpoint,
    BenchSession& session) {
  runner::MonteCarloConfig mc;
  mc.base = runner::paper_config(kind, packets, 0);
  mc.base.checkpoints =
      runner::log_checkpoints(first_checkpoint, packets, grid_points);
  mc.runs = runs;
  mc.seed0 = 1000;
  mc.malicious_links = {4};
  mc.sigma = 0.03;
  mc.jobs = session.args.jobs;
  mc.events = session.take_events();
  mc.telemetry = session.telemetry();
  session.args.apply_adversaries(mc);
  return runner::run_monte_carlo(mc);
}

}  // namespace paai::bench
