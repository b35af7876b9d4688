// Machine-readable bench result documents (the BENCH_*.json trajectory).
//
// Every bench binary assembles one BenchReport and writes it via
// --metrics-out FILE. The document layout ("paai.bench.v1") is stable so
// PRs can diff metric values across commits:
//
//   {
//     "schema": "paai.bench.v1",
//     "bench": "<binary name>",
//     "created_unix": <seconds>,
//     "provenance": { "git_commit", "build_type", "compiler",
//                     "sanitizer" },
//     "args":    { "<flag>": <number|string>, ... },   // resolved knobs
//     "info":    { "<key>": "<string>", ... },         // free-form labels
//     "results": { "<metric>": <number>, ... },        // paper metrics
//     "wall_seconds": <number>,
//     "exec": { "jobs", "wall_seconds", "tasks", "task_mean_seconds",
//               "queue_wait_mean_seconds", "utilization" } | null,
//     "observability": {
//       "counters":   { "<name>": <uint>, ... },
//       "gauges":     { "<name>": {"value": <int>, "high": <int>}, ... }
//     }
//   }
//
// Non-finite result values are emitted as null (never NaN / Inf), and all
// strings pass through the strict escaper in obs/json.h, so the document
// always survives a strict parser — tests/obs_test.cc enforces the
// round-trip. See docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace paai::obs {

inline constexpr const char* kBenchSchema = "paai.bench.v1";

/// Configure-time build provenance (git commit, build type, compiler,
/// sanitizer), baked in by src/obs/CMakeLists.txt.
struct BuildInfo {
  std::string git_commit;
  std::string build_type;
  std::string compiler;
  std::string sanitizer;
};

BuildInfo build_info();

class BenchReport {
 public:
  explicit BenchReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Resolved run knobs ("runs", "jobs", ...), echoed under "args".
  void set_arg(std::string name, long long value);
  void set_arg(std::string name, std::string value);

  /// A paper metric value, emitted under "results".
  void set_metric(std::string name, double value);

  /// A free-form label ("protocol": "PAAI-1"), emitted under "info".
  void set_info(std::string name, std::string value);

  /// Execution-engine telemetry of the dominant parallel section.
  void set_exec(std::size_t jobs, double wall_seconds, std::size_t tasks,
                double task_mean_seconds, double queue_wait_mean_seconds,
                double utilization);

  void set_wall_seconds(double s) { wall_seconds_ = s; }

  /// Writes the complete document. `metrics` is typically
  /// MetricsRegistry::global().snapshot().
  void write(std::ostream& os, const MetricsSnapshot& metrics) const;

 private:
  struct Scalar {
    bool is_number = false;
    double number = 0.0;
    std::string text;
  };

  std::string bench_name_;
  std::vector<std::pair<std::string, Scalar>> args_;
  std::vector<std::pair<std::string, double>> results_;
  std::vector<std::pair<std::string, std::string>> info_;
  double wall_seconds_ = 0.0;

  struct ExecInfo {
    std::size_t jobs = 0;
    double wall_seconds = 0.0;
    std::size_t tasks = 0;
    double task_mean_seconds = 0.0;
    double queue_wait_mean_seconds = 0.0;
    double utilization = 0.0;
  };
  std::optional<ExecInfo> exec_;
};

}  // namespace paai::obs
