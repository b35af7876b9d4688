#include "obs/telemetry.h"

#include <cmath>

#include "obs/json.h"

namespace paai::obs {

namespace {

constexpr const char* kSchema = "paai.telemetry.v1";

/// Largest integer a double round-trips exactly (2^53); gauge values and
/// the sample index stay JSON numbers, so the parser fail-closes beyond
/// it to keep write -> parse -> rewrite byte-identical.
constexpr double kMaxExactInt = 9007199254740992.0;

bool parse_exact_i64(const JsonValue& v, std::int64_t* out) {
  if (!v.is_number()) return false;
  const double d = v.number;
  // >= because at exactly 2^53 the double is already ambiguous: an input
  // of 2^53 + 1 parses to the same bit pattern, so accepting it would
  // break the byte-identical rewrite guarantee.
  if (d != std::floor(d) || std::fabs(d) >= kMaxExactInt) return false;
  *out = static_cast<std::int64_t>(d);
  return true;
}

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

void write_telemetry_line(std::ostream& os, const TelemetrySample& sample) {
  JsonWriter w(os);
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("sample").value(static_cast<std::int64_t>(sample.sample));
  w.key("wall_ns").value(std::to_string(sample.wall_ns));
  w.key("virt_ns").value(std::to_string(sample.virt_ns));
  w.key("units").value(std::to_string(sample.units));
  w.key("counters");
  w.begin_object();
  for (const auto& [name, delta] : sample.counters) {
    w.key(name).value(std::to_string(delta));
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const GaugeSnapshot& g : sample.gauges) {
    w.key(g.name);
    w.begin_array();
    w.value(g.value);
    w.value(g.high);
    w.end_array();
  }
  w.end_object();
  w.key("phases");
  w.begin_object();
  for (const auto& [name, d] : sample.phases) {
    w.key(name);
    w.begin_array();
    w.value(std::to_string(d.ns));
    w.value(std::to_string(d.calls));
    w.value(std::to_string(d.alloc_bytes));
    w.end_array();
  }
  w.end_object();
  w.key("queues");
  w.begin_object();
  for (const auto& [name, high] : sample.queues) {
    w.key(name).value(std::to_string(high));
  }
  w.end_object();
  w.end_object();
  os << '\n';
}

bool parse_telemetry_line(std::string_view line, TelemetrySample* out,
                          std::string* error) {
  *out = TelemetrySample{};
  std::string parse_error;
  const auto doc = json_parse(line, &parse_error);
  if (!doc) return fail(error, "not valid JSON: " + parse_error);
  if (!doc->is_object()) return fail(error, "line is not a JSON object");

  bool have_schema = false, have_sample = false, have_wall = false,
       have_virt = false, have_units = false;
  for (const auto& [key, value] : doc->object) {
    if (key == "schema") {
      if (!value.is_string() || value.string != kSchema) {
        return fail(error, "schema is not \"" + std::string(kSchema) + "\"");
      }
      have_schema = true;
    } else if (key == "sample") {
      std::int64_t idx = 0;
      if (!parse_exact_i64(value, &idx) || idx < 0) {
        return fail(error, "\"sample\" is not a non-negative exact integer");
      }
      out->sample = static_cast<std::uint64_t>(idx);
      have_sample = true;
    } else if (key == "wall_ns" || key == "virt_ns" || key == "units") {
      std::uint64_t v = 0;
      if (!json_u64_string(value, &v)) {
        return fail(error, "\"" + key + "\" is not a u64 decimal string");
      }
      if (key == "wall_ns") {
        out->wall_ns = v;
        have_wall = true;
      } else if (key == "virt_ns") {
        out->virt_ns = v;
        have_virt = true;
      } else {
        out->units = v;
        have_units = true;
      }
    } else if (key == "counters" || key == "queues") {
      if (!value.is_object()) {
        return fail(error, "\"" + key + "\" is not an object");
      }
      auto& dst = key == "counters" ? out->counters : out->queues;
      for (const auto& [name, v] : value.object) {
        std::uint64_t u = 0;
        if (!json_u64_string(v, &u)) {
          return fail(error, "\"" + key + "\" member \"" + name +
                                 "\" is not a u64 decimal string");
        }
        dst.emplace_back(name, u);
      }
    } else if (key == "gauges") {
      if (!value.is_object()) return fail(error, "\"gauges\" is not an object");
      for (const auto& [name, v] : value.object) {
        GaugeSnapshot g;
        g.name = name;
        if (!v.is_array() || v.array.size() != 2 ||
            !parse_exact_i64(v.array[0], &g.value) ||
            !parse_exact_i64(v.array[1], &g.high)) {
          return fail(error, "gauge \"" + name +
                                 "\" is not a [value, high] exact-int pair");
        }
        out->gauges.push_back(std::move(g));
      }
    } else if (key == "phases") {
      if (!value.is_object()) return fail(error, "\"phases\" is not an object");
      for (const auto& [name, v] : value.object) {
        PhaseDelta d;
        if (!v.is_array() || v.array.size() != 3 ||
            !json_u64_string(v.array[0], &d.ns) ||
            !json_u64_string(v.array[1], &d.calls) ||
            !json_u64_string(v.array[2], &d.alloc_bytes)) {
          return fail(error, "phase \"" + name +
                                 "\" is not a [ns, calls, alloc] string "
                                 "triple");
        }
        out->phases.emplace_back(name, d);
      }
    } else {
      // Fail-closed: an unknown member means a newer (or corrupt) writer;
      // silently dropping it would defeat the versioned schema.
      return fail(error, "unknown member \"" + key + "\"");
    }
  }
  if (!have_schema) return fail(error, "missing \"schema\"");
  if (!have_sample) return fail(error, "missing \"sample\"");
  if (!have_wall) return fail(error, "missing \"wall_ns\"");
  if (!have_virt) return fail(error, "missing \"virt_ns\"");
  if (!have_units) return fail(error, "missing \"units\"");
  return true;
}

TelemetryLog read_telemetry(std::istream& in) {
  TelemetryLog log;
  std::string line;
  for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    const auto where = [line_no] {
      return "line " + std::to_string(line_no) + ": ";
    };
    TelemetrySample sample;
    std::string error;
    if (!parse_telemetry_line(line, &sample, &error)) {
      if (in.eof()) {  // no newline yet: the writer is mid-line
        log.torn_tail = where() + error;
        break;
      }
    } else if (!log.samples.empty() &&
               sample.sample <= log.samples.back().sample) {
      error = "sample index " + std::to_string(sample.sample) +
              " not strictly increasing (previous " +
              std::to_string(log.samples.back().sample) + ")";
    } else {
      log.samples.push_back(std::move(sample));
      continue;
    }
    if (log.bad_lines++ == 0) log.first_error = where() + error;
  }
  return log;
}

std::array<PhaseDelta, kPhaseCount> sum_phases(
    const std::vector<TelemetrySample>& samples) {
  std::array<PhaseDelta, kPhaseCount> totals{};
  for (const TelemetrySample& s : samples) {
    for (const auto& [name, delta] : s.phases) {
      for (std::size_t p = 0; p < kPhaseCount; ++p) {
        if (name == phase_name(static_cast<Phase>(p))) {
          totals[p].ns += delta.ns;
          totals[p].calls += delta.calls;
          totals[p].alloc_bytes += delta.alloc_bytes;
        }
      }
    }
  }
  return totals;
}

TelemetrySink::TelemetrySink(const std::string& path,
                             std::uint64_t every_units)
    : file_(path, std::ios::trunc),
      every_(every_units == 0 ? 1 : every_units),
      next_(every_),
      start_(std::chrono::steady_clock::now()) {
  if (file_) out_ = &file_;
}

TelemetrySink::TelemetrySink(std::ostream& os, std::uint64_t every_units)
    : out_(&os),
      every_(every_units == 0 ? 1 : every_units),
      next_(every_),
      start_(std::chrono::steady_clock::now()) {}

bool TelemetrySink::tick(std::uint64_t units, std::uint64_t virt_ns) {
  if (units < next_.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t next = next_.load(std::memory_order_relaxed);
  if (units < next) return false;  // another ticker sampled this threshold
  while (next <= units) next += every_;
  next_.store(next, std::memory_order_relaxed);
  do_sample(units, virt_ns);
  return true;
}

void TelemetrySink::sample_now(std::uint64_t units, std::uint64_t virt_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  do_sample(units, virt_ns);
}

void TelemetrySink::final_sample() {
  std::lock_guard<std::mutex> lock(mutex_);
  do_sample(last_units_, last_virt_ns_);
}

void TelemetrySink::do_sample(std::uint64_t units, std::uint64_t virt_ns) {
  if (out_ == nullptr) return;
  const ScopedPhase scope(Phase::kSnapshot);
  last_units_ = units;
  last_virt_ns_ = virt_ns;

  TelemetrySample s;
  s.sample = samples_.load(std::memory_order_relaxed);
  s.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  s.virt_ns = virt_ns;
  s.units = units;

  // Counter deltas. A counter whose total shrank was reset since the
  // previous sample; its delta restarts from the current value.
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  for (const CounterSnapshot& c : snap.counters) {
    const auto it = prev_counters_.find(c.name);
    const std::uint64_t prev = it == prev_counters_.end() ? 0 : it->second;
    const std::uint64_t delta = c.value >= prev ? c.value - prev : c.value;
    prev_counters_[c.name] = c.value;
    if (delta != 0) s.counters.emplace_back(c.name, delta);
  }
  s.gauges = snap.gauges;

  PhaseProfiler& prof = PhaseProfiler::global();
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const Phase phase = static_cast<Phase>(p);
    const PhaseTotals cur = prof.totals(phase);
    PhaseTotals& prev = prev_phases_[p];
    PhaseDelta d;
    d.ns = cur.ns >= prev.ns ? cur.ns - prev.ns : cur.ns;
    d.calls = cur.calls >= prev.calls ? cur.calls - prev.calls : cur.calls;
    d.alloc_bytes = cur.alloc_bytes >= prev.alloc_bytes
                        ? cur.alloc_bytes - prev.alloc_bytes
                        : cur.alloc_bytes;
    prev = cur;
    if (d.ns != 0 || d.calls != 0 || d.alloc_bytes != 0) {
      s.phases.emplace_back(phase_name(phase), d);
    }
  }
  for (std::size_t q = 0; q < kQueueIdCount; ++q) {
    const std::uint64_t high = prof.queue_high(static_cast<QueueId>(q));
    if (high != 0) {
      s.queues.emplace_back(queue_name(static_cast<QueueId>(q)), high);
    }
  }

  write_telemetry_line(*out_, s);
  out_->flush();  // consumers tail the file while we run
  samples_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace paai::obs
