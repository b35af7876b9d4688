#include "obs/report.h"

#include <ctime>

#include "obs/json.h"

#ifndef PAAI_GIT_COMMIT
#define PAAI_GIT_COMMIT "unknown"
#endif
#ifndef PAAI_BUILD_TYPE
#define PAAI_BUILD_TYPE "unknown"
#endif
#ifndef PAAI_COMPILER
#define PAAI_COMPILER "unknown"
#endif
#ifndef PAAI_SANITIZE_NAME
#define PAAI_SANITIZE_NAME ""
#endif

namespace paai::obs {

BuildInfo build_info() {
  BuildInfo info;
  info.git_commit = PAAI_GIT_COMMIT;
  info.build_type = PAAI_BUILD_TYPE;
  info.compiler = PAAI_COMPILER;
  info.sanitizer = PAAI_SANITIZE_NAME;
  return info;
}

void BenchReport::set_arg(std::string name, long long value) {
  Scalar s;
  s.is_number = true;
  s.number = static_cast<double>(value);
  args_.emplace_back(std::move(name), std::move(s));
}

void BenchReport::set_arg(std::string name, std::string value) {
  Scalar s;
  s.text = std::move(value);
  args_.emplace_back(std::move(name), std::move(s));
}

void BenchReport::set_metric(std::string name, double value) {
  results_.emplace_back(std::move(name), value);
}

void BenchReport::set_info(std::string name, std::string value) {
  info_.emplace_back(std::move(name), std::move(value));
}

void BenchReport::set_exec(std::size_t jobs, double wall_seconds,
                           std::size_t tasks, double task_mean_seconds,
                           double queue_wait_mean_seconds,
                           double utilization) {
  ExecInfo e;
  e.jobs = jobs;
  e.wall_seconds = wall_seconds;
  e.tasks = tasks;
  e.task_mean_seconds = task_mean_seconds;
  e.queue_wait_mean_seconds = queue_wait_mean_seconds;
  e.utilization = utilization;
  exec_ = e;
}

void BenchReport::write(std::ostream& os,
                        const MetricsSnapshot& metrics) const {
  const BuildInfo build = build_info();
  JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kBenchSchema);
  w.key("bench").value(bench_name_);
  w.key("created_unix")
      .value(static_cast<std::int64_t>(std::time(nullptr)));

  w.key("provenance").begin_object();
  w.key("git_commit").value(build.git_commit);
  w.key("build_type").value(build.build_type);
  w.key("compiler").value(build.compiler);
  w.key("sanitizer").value(build.sanitizer);
  w.end_object();

  w.key("args").begin_object();
  for (const auto& [name, scalar] : args_) {
    w.key(name);
    if (scalar.is_number) {
      w.value(scalar.number);
    } else {
      w.value(scalar.text);
    }
  }
  w.end_object();

  w.key("info").begin_object();
  for (const auto& [name, value] : info_) w.key(name).value(value);
  w.end_object();

  w.key("results").begin_object();
  for (const auto& [name, value] : results_) w.key(name).value(value);
  w.end_object();

  w.key("wall_seconds").value(wall_seconds_);

  w.key("exec");
  if (exec_) {
    w.begin_object();
    w.key("jobs").value(static_cast<std::uint64_t>(exec_->jobs));
    w.key("wall_seconds").value(exec_->wall_seconds);
    w.key("tasks").value(static_cast<std::uint64_t>(exec_->tasks));
    w.key("task_mean_seconds").value(exec_->task_mean_seconds);
    w.key("queue_wait_mean_seconds").value(exec_->queue_wait_mean_seconds);
    w.key("utilization").value(exec_->utilization);
    w.end_object();
  } else {
    w.null();
  }

  w.key("observability").begin_object();
  w.key("counters").begin_object();
  for (const auto& c : metrics.counters) w.key(c.name).value(c.value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& g : metrics.gauges) {
    w.key(g.name).begin_object();
    w.key("value").value(g.value);
    w.key("high").value(g.high);
    w.end_object();
  }
  w.end_object();
  w.end_object();

  w.end_object();
  os << '\n';
}

}  // namespace paai::obs
