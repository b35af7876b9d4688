// Live telemetry plane: periodic `paai.telemetry.v3` JSONL snapshots.
//
// Everything src/obs produced before this file is post-mortem — the
// paai.bench.v1 report and the Chrome trace are written when the process
// exits. The telemetry plane makes the same numbers visible *while the
// process runs*: a TelemetrySink periodically samples the global
// MetricsRegistry (phases included: they are its phase.<name>.ns and
// phase.<name>.calls counters) and appends one delta-encoded JSON line per
// sample to a file its consumer (`paai top`) can tail.
//
// Line schema (one strict-JSON object per line, fixed key order, sorted
// metric names — byte-identical across write/parse/rewrite):
//
//   {"schema":"paai.telemetry.v3","sample":0,
//    "wall_ns":"123","virt_ns":"456","units":"789",
//    "counters":{"name":"delta",...},       // u64 deltas, omitted when 0
//    "gauges":{"name":[value,high],...}}    // absolute int64 pairs
//
// Conventions shared with the forensic event log: u64 payloads travel as
// decimal strings so full 64-bit values survive double-typed JSON
// parsers; gauges are int64 and stay JSON numbers, but the parser
// fail-closes on non-integral values or magnitudes above 2^53 so a
// parsed document always rewrites byte-identically. `sample` is a
// monotonic 0-based index; `wall_ns` counts from sink construction;
// `virt_ns` is the caller's virtual clock (simulated time, or the event
// time of a served stream); `units` is the sink's running total of
// completed work (packets, Monte-Carlo runs, served events, mesh units)
// over every producer that shares the sink, so it never goes back even
// when a bench makes several Monte-Carlo calls on one sink. v3 folded
// v2's `phases` and `queues` sections into counters and gauges; there is
// no v2 (or v1) reader.
//
// Delta encoding: counters carry the change since the previous sample.
// Across a registry reset (current total < previous total) the delta
// restarts from the current value — restart semantics, asserted by
// tests/telemetry_test.cc. Gauges are absolute.
//
// The parser reads through obs::JsonFieldReader, fail-closed like every
// persisted document in this repo: unknown members, missing required
// members, or mistyped values are hard errors, never silently ignored.
//
// Thread-safety: tick() is a relaxed load + branch until a sample is due,
// then a mutex serializes the sample; the registry snapshot is relaxed
// reads that tolerate live writers (the TSan leg races a sampler
// thread against pool writers).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace paai::obs {

struct TelemetrySample {
  std::uint64_t sample = 0;   // monotonic 0-based index
  std::uint64_t wall_ns = 0;  // wall clock since sink construction
  std::uint64_t virt_ns = 0;  // caller's virtual clock (0 = none)
  std::uint64_t units = 0;    // the sink's running total of work units
  /// Counter deltas since the previous sample, sorted by name, zero
  /// deltas omitted.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Absolute gauge (value, high-water) pairs, sorted by name.
  std::vector<GaugeSnapshot> gauges;
};

/// Writes one telemetry line (object + '\n'). Deterministic for a given
/// sample value — the round-trip tests rely on it.
void write_telemetry_line(std::ostream& os, const TelemetrySample& sample);

/// Strict fail-closed parse of one line (no trailing newline required).
/// On failure returns false and, when `error` is non-null, a description.
bool parse_telemetry_line(std::string_view line, TelemetrySample* out,
                          std::string* error = nullptr);

/// A paai.telemetry.v3 file as its consumer (`paai top`) reads it.
struct TelemetryLog {
  /// The well-formed lines, in file order, with strictly increasing
  /// sample indices.
  std::vector<TelemetrySample> samples;
  /// Complete lines that fail the strict parse or do not advance the
  /// sample index; they are left out of `samples`.
  std::size_t bad_lines = 0;
  std::string first_error;  // "line N: ..." of the first bad line
  /// "line N: ..." when the last line has no newline and does not parse:
  /// a writer caught mid-line, expected while the file is live.
  std::string torn_tail;
};

/// Reads every line of `in`; never throws, never stops early.
TelemetryLog read_telemetry(std::istream& in);

/// A phase's summed phase.<name>.ns and phase.<name>.calls deltas.
struct PhaseSum {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
};

/// Each phase's counter deltas summed over a sample stream, in Phase enum
/// order.
std::array<PhaseSum, kPhaseCount> sum_phases(
    const std::vector<TelemetrySample>& samples);

/// Periodic sampler over the global MetricsRegistry.
class TelemetrySink {
 public:
  /// Appends samples to `path` (truncated on open); every_units <= 0 is
  /// clamped to 1. Check ok() before relying on output.
  TelemetrySink(const std::string& path, std::uint64_t every_units);

  /// Test/embedding constructor: samples go to `os`, which must outlive
  /// the sink.
  TelemetrySink(std::ostream& os, std::uint64_t every_units);

  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  /// False when the file constructor could not open its path.
  bool ok() const { return out_ != nullptr && out_->good(); }

  std::uint64_t every() const { return every_; }
  std::uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }

  /// Adds `units` of completed work to the running total and samples
  /// when the total has crossed the next cadence threshold; cheap (one
  /// relaxed add and load) otherwise. Safe to call from any thread.
  /// Returns true when this call wrote a sample.
  bool tick(std::uint64_t units, std::uint64_t virt_ns = 0);

  /// Adds `units` and samples unconditionally: a simulated run's periodic
  /// sampler and the final flush a producer emits on exit.
  void sample_now(std::uint64_t units, std::uint64_t virt_ns = 0);

  /// A sample at the running total and the last virt_ns seen; used by
  /// owners (BenchSession) that flush the sink on exit.
  void final_sample();

 private:
  void do_sample(std::uint64_t virt_ns);

  std::ofstream file_;
  std::ostream* out_ = nullptr;
  std::uint64_t every_ = 1;
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> next_;
  std::atomic<std::uint64_t> samples_{0};
  std::mutex mutex_;
  std::map<std::string, std::uint64_t> prev_counters_;
  std::uint64_t last_virt_ns_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace paai::obs
