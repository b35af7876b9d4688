#include "stream/service.h"

#include <chrono>
#include <exception>
#include <fstream>
#include <ostream>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "stream/state.h"

namespace paai::stream {

namespace {

bool write_snapshot(const ScoreEngine& engine, const std::string& path,
                    std::string* error) {
  // Write-then-rename would be stronger, but the repo's tooling reads
  // snapshots only after the writer exits; a plain truncate-write keeps
  // the service dependency-free. The trailing newline makes the file a
  // valid JSONL single-document too.
  const obs::ScopedPhase phase(obs::Phase::kSnapshot);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    *error = "cannot open state file '" + path + "' for writing";
    return false;
  }
  write_state(out, engine);
  out << '\n';
  out.flush();
  if (!out) {
    *error = "short write to state file '" + path + "'";
    return false;
  }
  return true;
}

void announce_conviction(std::ostream& log, const ScoreEngine& engine,
                         std::size_t link) {
  const std::vector<double> thetas = engine.thetas();
  obs::JsonWriter w(log);
  obs::JsonFieldWriter fields(w);
  w.begin_object();
  w.key("kind").value("conviction");
  w.key("link").value(static_cast<std::int64_t>(link));
  fields.field("theta", link < thetas.size() ? thetas[link] : 0.0);
  fields.field("observations", engine.observations());
  fields.field("packets_sent", engine.packets_sent());
  fields.field("events", engine.events_seen());
  w.end_object();
  log << '\n';
  log.flush();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ServeReport serve_stream(ScoreEngine& engine, std::istream& in,
                         std::ostream& log, const ServeConfig& config,
                         const volatile std::sig_atomic_t* stop) {
  ServeReport report;
  obs::EventReader reader(in);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Counter snapshots_counter = registry.counter("stream.snapshots");
  obs::Counter parse_errors_counter =
      registry.counter("stream.serve.parse_errors");
  obs::Counter bytes_read_counter = registry.counter("stream.serve.bytes_read");
  obs::Gauge backlog_gauge = registry.gauge("stream.serve.backlog_bytes");
  std::uint64_t next_snapshot =
      config.snapshot_every > 0 ? config.snapshot_every : 0;

  // Chained stall timers: one clock read per boundary, each interval
  // charged to the phase that ran in it, so parse + apply cover the loop.
  // Snapshot writes and telemetry samples charge their own kSnapshot
  // scopes, so the chain restarts after them. The clock is read only when
  // someone can observe the result; the counters themselves are cheap.
  const bool timing = config.telemetry != nullptr || registry.enabled();
  std::uint64_t mark = timing ? now_ns() : 0;
  const auto lap = [&](obs::Phase phase, std::uint64_t& stall) {
    if (!timing) return;
    const std::uint64_t now = now_ns();
    stall += now - mark;
    obs::add_phase(phase, now - mark);
    mark = now;
  };
  const auto restart = [&] {
    if (timing) mark = now_ns();
  };
  std::uint64_t prev_bytes = 0;

  const auto probe_backlog = [&] {
    if (!config.backlog_bytes) return;
    const std::int64_t backlog = config.backlog_bytes();
    report.final_backlog_bytes = backlog;
    if (backlog > report.peak_backlog_bytes) {
      report.peak_backlog_bytes = backlog;
    }
    backlog_gauge.set(backlog);
  };

  const auto wall_start = std::chrono::steady_clock::now();
  obs::Event event;
  std::string error;
  for (;;) {
    if (stop != nullptr && *stop != 0) {
      report.interrupted = true;
      break;
    }
    const obs::EventReader::Status status = reader.next(&event, &error);
    {
      const std::uint64_t bytes = reader.bytes();
      if (bytes > prev_bytes) {
        bytes_read_counter.add(bytes - prev_bytes);
        prev_bytes = bytes;
      }
    }
    lap(obs::Phase::kStreamParse, report.parse_stall_ns);
    if (status == obs::EventReader::Status::kEof) break;
    if (status == obs::EventReader::Status::kError) {
      ++report.parse_errors;
      parse_errors_counter.add();
      if (config.fail_fast) {
        report.failed = true;
        report.error = error;
        break;
      }
      continue;
    }

    ++report.events;
    const std::uint64_t applied_before = engine.events_applied();
    engine.set_stream_line(reader.line());
    try {
      engine.apply(event);
    } catch (const std::exception& e) {
      report.failed = true;
      report.error = "line " + std::to_string(reader.line()) + ": " + e.what();
      break;
    }
    const bool applied = engine.events_applied() != applied_before;
    if (applied) {
      ++report.applied;

      // The backlog probe can stat the filesystem, so sample it at a
      // coarse cadence plus at every telemetry tick boundary.
      if ((report.applied & 0xff) == 0) probe_backlog();

      for (const std::size_t link : engine.take_new_convictions()) {
        report.new_convictions.push_back(link);
        if (config.announce) announce_conviction(log, engine, link);
      }
    }
    lap(obs::Phase::kStreamApply, report.apply_stall_ns);
    if (!applied) continue;

    if (config.telemetry != nullptr &&
        config.telemetry->tick(1, static_cast<std::uint64_t>(event.ts_ns))) {
      restart();
    }

    if (next_snapshot != 0 && report.applied >= next_snapshot) {
      next_snapshot += config.snapshot_every;
      if (!config.state_out.empty()) {
        std::string snap_error;
        if (!write_snapshot(engine, config.state_out, &snap_error)) {
          report.failed = true;
          report.error = snap_error;
          break;
        }
        ++report.snapshots;
        snapshots_counter.add();
        restart();
      }
    }
  }

  report.lines = reader.line();
  probe_backlog();
  // Exit snapshot on every path — a drained serve must be resumable.
  if (!config.state_out.empty() && engine.configured()) {
    std::string snap_error;
    if (write_snapshot(engine, config.state_out, &snap_error)) {
      ++report.snapshots;
      snapshots_counter.add();
    } else if (!report.failed) {
      report.failed = true;
      report.error = snap_error;
    }
  }
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (config.telemetry != nullptr) {
    config.telemetry->sample_now(0, static_cast<std::uint64_t>(event.ts_ns));
  }
  return report;
}

}  // namespace paai::stream
