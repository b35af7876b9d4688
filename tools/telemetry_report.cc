// telemetry_report — offline consumer for paai.telemetry.v1 JSONL files
// (written by --telemetry-out on paai run/curve/mesh/serve/replay and
// every bench binary).
//
//   telemetry_report FILE [--trace-out=F]
//
// Validates the stream through obs::read_telemetry (any malformed line, a
// non-monotone sample index or a torn last line is exit 2 — telemetry
// files are a schema, not best-effort logs), then prints a greppable
// summary from obs::aggregate_telemetry: one `phase` line per profiled
// phase (calls, inclusive ns, allocation bytes), one `counter` line per
// counter (total over all deltas), one `gauge` line per gauge (last
// value, peak), one `queue` line per queue high-water.
// Phase times are inclusive — nested scopes (crypto inside sim-loop)
// overlap, so no percentage column is printed.
//
// --trace-out=F additionally exports each sample's phase deltas as
// Chrome trace_event complete events (one track per phase, timestamped
// on the virtual clock when present, else the wall clock) via the
// existing obs::TraceRing — load in chrome://tracing or
// https://ui.perfetto.dev.
//
// Exit codes: 0 ok, 1 empty stream (zero samples), 2 malformed input.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "obs/profile.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"

namespace {

using paai::obs::GaugeSnapshot;
using paai::obs::PhaseDelta;
using paai::obs::TelemetrySample;

struct Options {
  std::string file;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Options* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      out->trace_out = arg.substr(std::strlen("--trace-out="));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return false;
    } else if (out->file.empty()) {
      out->file = arg;
    } else {
      std::fprintf(stderr, "error: more than one input file\n");
      return false;
    }
  }
  if (out->file.empty()) {
    std::fprintf(stderr,
                 "usage: telemetry_report FILE [--trace-out=F]\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) return 2;

  std::ifstream in(opt.file);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", opt.file.c_str());
    return 2;
  }

  const paai::obs::TelemetryLog log = paai::obs::read_telemetry(in);
  const std::string& error =
      log.first_error.empty() ? log.torn_tail : log.first_error;
  if (!error.empty()) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const std::vector<TelemetrySample>& samples = log.samples;
  if (samples.empty()) {
    std::fprintf(stderr, "telemetry: 0 samples in '%s'\n", opt.file.c_str());
    return 1;
  }

  const TelemetrySample& last = samples.back();
  std::printf("telemetry: %zu samples, units %llu, wall %.3f s\n",
              samples.size(), static_cast<unsigned long long>(last.units),
              static_cast<double>(last.wall_ns) / 1e9);

  const paai::obs::TelemetryTotals totals =
      paai::obs::aggregate_telemetry(samples);
  for (std::size_t p = 0; p < paai::obs::kPhaseCount; ++p) {
    const PhaseDelta& t = totals.phases[p];
    if (t.calls == 0 && t.ns == 0 && t.alloc_bytes == 0) continue;
    std::printf("phase %s calls=%llu ns=%llu alloc=%llu\n",
                paai::obs::phase_name(static_cast<paai::obs::Phase>(p)),
                static_cast<unsigned long long>(t.calls),
                static_cast<unsigned long long>(t.ns),
                static_cast<unsigned long long>(t.alloc_bytes));
  }
  for (const auto& [name, total] : totals.counters) {
    std::printf("counter %s total=%llu\n", name.c_str(),
                static_cast<unsigned long long>(total));
  }
  for (const GaugeSnapshot& g : last.gauges) {
    std::printf("gauge %s last=%lld peak=%lld\n", g.name.c_str(),
                static_cast<long long>(g.value),
                static_cast<long long>(g.high));
  }
  for (const auto& [name, high] : totals.queue_high) {
    std::printf("queue %s peak=%llu\n", name.c_str(),
                static_cast<unsigned long long>(high));
  }

  if (!opt.trace_out.empty()) {
    // One complete event per (sample, phase) delta: the span covers the
    // inter-sample interval on the virtual clock (wall clock when no
    // virtual clock was supplied), its arg is the delta ns. phase_name()
    // returns string literals, satisfying TraceRing's lifetime rule.
    paai::obs::TraceRing ring(samples.size() * paai::obs::kPhaseCount + 16);
    std::uint64_t prev_ts = 0;
    for (const TelemetrySample& s : samples) {
      const std::uint64_t ts = s.virt_ns != 0 ? s.virt_ns : s.wall_ns;
      for (const auto& [name, delta] : s.phases) {
        for (std::size_t p = 0; p < paai::obs::kPhaseCount; ++p) {
          const auto phase = static_cast<paai::obs::Phase>(p);
          if (name != paai::obs::phase_name(phase)) continue;
          ring.complete(paai::obs::phase_name(phase), "telemetry",
                        static_cast<std::int64_t>(prev_ts / 1000),
                        static_cast<std::int64_t>(
                            ts > prev_ts ? (ts - prev_ts) / 1000 : 0),
                        static_cast<std::uint32_t>(p),
                        static_cast<std::int64_t>(delta.ns));
        }
      }
      prev_ts = ts;
    }
    std::ofstream os(opt.trace_out);
    if (!os) {
      std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                   opt.trace_out.c_str());
      return 2;
    }
    ring.write_chrome_json(os);
    std::fprintf(stderr, "trace: %llu events -> %s\n",
                 static_cast<unsigned long long>(ring.recorded()),
                 opt.trace_out.c_str());
  }
  return 0;
}
