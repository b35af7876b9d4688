// perfbench: end-to-end benchmark driver (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--golden FILE] [--work-dir DIR] [--print-digests]
//
// Untraced (--trace 0): sets up the workload several times (setup_s is
// the median), runs identical rounds for S seconds, verifies, and prints
// the end-to-end metrics, every time rescaled to the reference host
// (calib.cc). Traced (--trace 1): alternates untraced and
// traced rounds (the difference is the tracing overhead), runs every
// layer probe, writes the spans as a Chrome trace into the work dir, and
// prints the per-layer metrics. The last stdout line is one JSON object;
// the exit code is 1 when any verdict check failed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"packets_per_s", "pkt/s"},
    {"events_per_s", "ev/s"},   {"paths_per_s", "paths/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.dispatch_ns", "ns"},
    {"sim.forward_hop_ns", "ns"},
    {"runner.fullack.events_per_packet", "count"},
    {"runner.paai1.events_per_packet", "count"},
    {"runner.paai2.events_per_packet", "count"},
    {"crypto.fast.hash_ns", "ns"},
    {"crypto.fast.mac_ns", "ns"},
    {"crypto.fast.prf_ns", "ns"},
    {"crypto.fast.encrypt_ns", "ns"},
    {"crypto.real.hash_ns", "ns"},
    {"crypto.real.mac_ns", "ns"},
    {"crypto.real.prf_ns", "ns"},
    {"crypto.real.encrypt_ns", "ns"},
    {"crypto.real.decrypt_ns", "ns"},
    {"crypto.wots.keygen_us", "us"},
    {"crypto.wots.sign_us", "us"},
    {"crypto.wots.verify_us", "us"},
    {"net.onion.fast.originate_ns", "ns"},
    {"net.onion.fast.wrap_ns", "ns"},
    {"net.onion.fast.verify_us", "us"},
    {"net.onion.real.originate_ns", "ns"},
    {"net.onion.real.wrap_ns", "ns"},
    {"net.onion.real.verify_us", "us"},
    {"protocols.score.onion_apply_ns", "ns"},
    {"protocols.score.prefix_apply_ns", "ns"},
    {"protocols.score.fl_apply_ns", "ns"},
    {"protocols.score.verdict_ns", "ns"},
    {"runner.fullack.fast.us_per_packet", "us"},
    {"runner.paai1.fast.us_per_packet", "us"},
    {"runner.paai2.fast.us_per_packet", "us"},
    {"runner.sigack.real.us_per_packet", "us"},
    {"runner.paai1.real.us_per_packet", "us"},
    {"runner.paai2.real.us_per_packet", "us"},
    {"exec.utilization", "ratio"},
    {"exec.queue_wait_ms", "ms"},
    {"obs.export_ns_per_event", "ns"},
    {"stream.parse_ns_per_event", "ns"},
    {"stream.apply_ns_per_event", "ns"},
    {"stream.parse_stall_share", "ratio"},
    {"stream.apply_stall_share", "ratio"},
    {"stream.snapshot_write_us", "us"},
    {"stream.snapshot_restore_us", "us"},
    {"stream.snapshot_bytes", "count"},
    {"stream.bytes_per_event", "count"},
    {"mesh.absorb_us", "us"},
    {"mesh.convict_us", "us"},
    {"mesh.store_bytes", "count"},
    {"mesh.topology_build_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

constexpr const char* kWorkloads[] = {"mc_fast", "crypto_real",
                                      "serve_replay", "mesh_fattree"};

constexpr int kSetupReps = 5;
constexpr std::size_t kMinRounds = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string golden;
  std::string work_dir = ".";
  bool print_digests = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "mc_fast|crypto_real|serve_replay|mesh_fattree --seed N "
               "--seconds S --trace 0|1 [--golden FILE] [--work-dir DIR] "
               "[--print-digests]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || s[0] == '-') {
    usage((std::string("invalid integer for ") + flag).c_str());
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-digests") {
      a.print_digests = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(v, "--seed");
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(v, "--seconds"));
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--golden") {
      a.golden = v;
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

/// Golden digests: lines of "<workload> <seed> <op> <hex>"; '#' comments.
std::map<std::string, std::string> load_golden(const std::string& path,
                                               const std::string& workload,
                                               std::uint64_t seed) {
  std::map<std::string, std::string> out;
  if (path.empty()) return out;
  std::ifstream in(path);
  if (!in) usage(("cannot read golden file " + path).c_str());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string w, op, hex;
    std::uint64_t s = 0;
    if (!(ls >> w >> s >> op >> hex)) {
      usage(("malformed golden line: " + line).c_str());
    }
    if (w == workload && s == seed) out[op] = hex;
  }
  return out;
}

/// Resident high-water of this program image. getrusage's ru_maxrss would
/// also count the launcher's pages at fork time (Linux carries the
/// pre-exec high-water over), so read VmHWM, which exec resets.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;  // kB
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Returns freed heap pages to the kernel and resets VmHWM to the current
/// resident size (Linux >= 4.0), so each round's high-water can be read
/// on its own. False where the reset is not allowed.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

void print_result(const Checker& check,
                  const std::map<std::string, double>& values,
                  const MetricDef* defs, std::size_t n_defs) {
  std::string json = "{\"correct\": ";
  json += check.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(check.attempted());
  json += ", \"failed\": " + std::to_string(check.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < n_defs; ++i) {
    const auto it = values.find(defs[i].name);
    if (it == values.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   defs[i].name);
      std::exit(2);
    }
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", it->second);
    if (i > 0) json += ", ";
    json += std::string("\"") + defs[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  std::uint32_t workload_id = 0;
  for (std::uint32_t i = 0; i < std::size(kWorkloads); ++i) {
    if (args.workload == kWorkloads[i]) workload_id = i + 1;
  }
  if (workload_id == 0) usage(("unknown workload '" + args.workload + "'").c_str());
  std::unique_ptr<Workload> wl =
      make_workload(args.workload, args.seed, args.work_dir);
  Checker check(args.workload, args.seed,
                load_golden(args.golden, args.workload, args.seed));

  // Set-up and untraced rounds report times rescaled to the reference
  // host (calib.cc); stderr shows the measured times next to them.
  HostSpeed host(wl->jobs());
  std::vector<double> setup_s;
  std::string setups;
  for (int i = 0; i < (args.trace ? 1 : kSetupReps); ++i) {
    const auto t0 = Clock::now();
    wl->setup();
    const double measured_s = seconds_since(t0);
    setup_s.push_back(host.rescale(measured_s));
    setups += " " + std::to_string(measured_s) + "/" +
              std::to_string(setup_s.back());
  }
  std::fprintf(stderr,
               "[perfbench] %s seed=%llu%s setup, measured/rescaled (s):%s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               check.has_golden() ? " golden" : "", setups.c_str());

  std::map<std::string, double> metrics;
  const auto t_start = Clock::now();
  if (!args.trace) {
    std::vector<double> packets, events, paths, rss, measured, rescaled;
    std::string walls;
    std::size_t rounds = 0;
    // Per-round high-waters (fixtures stay resident, so they count), and
    // the least of them: how far jobs=2 workers run ahead of the ordered
    // reducers, buffering results, depends on how the host schedules
    // them, so contended rounds peak higher for no reason in the program.
    const bool per_round_rss = reset_peak_rss();
    while (rounds < kMinRounds || seconds_since(t_start) < args.seconds) {
      const RoundStats rs = wl->round(check, nullptr, &host);
      if (per_round_rss) {
        rss.push_back(peak_rss_mb());
        reset_peak_rss();
      }
      packets.push_back(rs.packets / rs.rescaled_s);
      events.push_back(rs.events / rs.rescaled_s);
      paths.push_back(rs.paths / rs.rescaled_s);
      measured.push_back(rs.wall_s);
      rescaled.push_back(rs.rescaled_s);
      walls += " " + std::to_string(rs.wall_s) + "/" +
               std::to_string(rs.rescaled_s);
      ++rounds;
    }
    std::fprintf(stderr,
                 "[perfbench] round walls, measured/rescaled (s):%s\n"
                 "[perfbench] median round wall %.6f s measured, %.6f s "
                 "rescaled; %s\n",
                 walls.c_str(), median(measured), median(rescaled),
                 host.describe().c_str());
    wl->verify(check);
    metrics["setup_s"] = median(setup_s);
    metrics["packets_per_s"] = median(packets);
    metrics["events_per_s"] = median(events);
    metrics["paths_per_s"] = median(paths);
    metrics["peak_rss_mb"] =
        per_round_rss ? *std::min_element(rss.begin(), rss.end())
                      : peak_rss_mb();
    std::fprintf(stderr,
                 "[perfbench] %zu rounds: %.6g pkt/s %.6g ev/s %.6g paths/s "
                 "%.6g MiB\n",
                 rounds, metrics["packets_per_s"], metrics["events_per_s"],
                 metrics["paths_per_s"], metrics["peak_rss_mb"]);
  } else {
    SpanRecorder rec(workload_id);
    // Untraced and traced rounds alternate in pairs, and the pairs
    // alternate which side goes first, so host drift and any first-of-pair
    // effect fall equally on both sides. An even pair count keeps that
    // balance exact.
    std::vector<double> untraced, traced;
    const std::string root = args.workload + ".round";
    while (traced.size() < kMinRounds || traced.size() % 2 == 1 ||
           seconds_since(t_start) < args.seconds) {
      const bool traced_first = traced.size() % 2 == 1;
      for (int side = 0; side < 2; ++side) {
        const bool with_spans = (side == 0) == traced_first;
        const auto t0 = Clock::now();
        if (with_spans) {
          MaybeSpan span(&rec, root, "bench");
          wl->round(check, &rec, nullptr);
        } else {
          wl->round(check, nullptr, nullptr);
        }
        (with_spans ? traced : untraced).push_back(seconds_since(t0));
      }
    }
    {
      MaybeSpan span(&rec, args.workload + ".verify", "bench");
      wl->verify(check);
    }
    const double overhead =
        (median(traced) - median(untraced)) / median(untraced) * 100.0;
    metrics["trace.overhead_pct"] = overhead;
    std::fprintf(stderr,
                 "[perfbench] tracing overhead %+.2f%%: untraced %.4fs traced "
                 "%.4fs per round (medians of %zu pairs)\n",
                 overhead, median(untraced), median(traced), traced.size());
    run_probes(metrics, &rec);
    const ExecSample ex = wl->exec_sample();
    if (ex.valid) {
      metrics["exec.utilization"] = ex.utilization;
      metrics["exec.queue_wait_ms"] = ex.queue_wait_ms;
    }
    const std::string path = args.work_dir + "/trace_" + args.workload +
                             "_seed" + std::to_string(args.seed) + ".json";
    rec.write_chrome_json(path, args.workload);
    std::fprintf(stderr, "[perfbench] %zu spans -> %s; self time by layer:\n",
                 rec.spans().size(), path.c_str());
    for (const auto& [layer, ms] : rec.self_ms_by_layer()) {
      std::fprintf(stderr, "  %-10s %10.3f ms\n", layer.c_str(), ms);
    }
  }

  if (args.print_digests) {
    for (const auto& [op, hex] : check.digests()) {
      std::printf("%s %llu %s %s\n", args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed), op.c_str(),
                  hex.c_str());
    }
  }
  if (args.trace) {
    print_result(check, metrics, kPerLayer, std::size(kPerLayer));
  } else {
    print_result(check, metrics, kEndToEnd, std::size(kEndToEnd));
  }
  return check.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
