#include "obs/telemetry.h"

#include "obs/json.h"

namespace paai::obs {

namespace {

constexpr const char* kSchema = "paai.telemetry.v3";

/// The sample index stays a JSON number: below 2^53, so a parsed line
/// rewrites byte-identically.
constexpr std::uint64_t kMaxSampleIndex = (std::uint64_t{1} << 53) - 1;

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

void write_telemetry_line(std::ostream& os, const TelemetrySample& sample) {
  JsonWriter w(os);
  JsonFieldWriter fields(w);
  w.begin_object();
  w.key("schema").value(kSchema);
  w.key("sample").value(static_cast<std::int64_t>(sample.sample));
  fields.field("wall_ns", sample.wall_ns);
  fields.field("virt_ns", sample.virt_ns);
  fields.field("units", sample.units);
  fields.open("counters");
  for (const auto& [name, delta] : sample.counters) fields.field(name, delta);
  fields.close();
  fields.open("gauges");
  for (const GaugeSnapshot& g : sample.gauges) {
    w.key(g.name).begin_array().value(g.value).value(g.high).end_array();
  }
  fields.close();
  w.end_object();
  os << '\n';
}

bool parse_telemetry_line(std::string_view line, TelemetrySample* out,
                          std::string* error) {
  *out = TelemetrySample{};
  std::string parse_error;
  const auto doc = json_parse(line, &parse_error);
  if (!doc) return fail(error, "not valid JSON: " + parse_error);

  JsonFieldReader r(*doc);
  std::size_t sample = 0;
  r.expect<std::string>("schema", kSchema);
  r.index("sample", sample, kMaxSampleIndex);
  out->sample = sample;
  r.field("wall_ns", out->wall_ns);
  r.field("virt_ns", out->virt_ns);
  r.field("units", out->units);
  r.members("counters", [&](const std::string& name) {
    out->counters.emplace_back(name, 0);
    r.field(name, out->counters.back().second);
  });
  r.members("gauges", [&](const std::string& name) {
    std::vector<std::int64_t> pair(2);
    r.field(name, pair);
    out->gauges.push_back(GaugeSnapshot{name, pair[0], pair[1]});
  });
  return r.finish() || fail(error, r.error());
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

std::array<PhaseSum, kPhaseCount> sum_phases(
    const std::vector<TelemetrySample>& samples) {
  std::array<PhaseSum, kPhaseCount> totals{};
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const std::string base =
        std::string("phase.") + phase_name(static_cast<Phase>(p));
    const std::string ns = base + ".ns";
    const std::string calls = base + ".calls";
    for (const TelemetrySample& s : samples) {
      for (const auto& [name, delta] : s.counters) {
        if (name == ns) totals[p].ns += delta;
        if (name == calls) totals[p].calls += delta;
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
  const std::uint64_t total =
      total_.fetch_add(units, std::memory_order_relaxed) + units;
  if (total < next_.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t next = next_.load(std::memory_order_relaxed);
  const std::uint64_t now = total_.load(std::memory_order_relaxed);
  if (now < next) return false;  // another ticker sampled this threshold
  while (next <= now) next += every_;
  next_.store(next, std::memory_order_relaxed);
  do_sample(virt_ns);
  return true;
}

void TelemetrySink::sample_now(std::uint64_t units, std::uint64_t virt_ns) {
  total_.fetch_add(units, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  do_sample(virt_ns);
}

void TelemetrySink::final_sample() {
  std::lock_guard<std::mutex> lock(mutex_);
  do_sample(last_virt_ns_);
}

void TelemetrySink::do_sample(std::uint64_t virt_ns) {
  if (out_ == nullptr) return;
  const ScopedPhase scope(Phase::kSnapshot);
  last_virt_ns_ = virt_ns;

  TelemetrySample s;
  s.sample = samples_.load(std::memory_order_relaxed);
  s.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  s.virt_ns = virt_ns;
  s.units = total_.load(std::memory_order_relaxed);

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

  write_telemetry_line(*out_, s);
  out_->flush();  // consumers tail the file while we run
  samples_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace paai::obs
