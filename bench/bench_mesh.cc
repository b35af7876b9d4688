// Mesh-fleet scale bench (src/mesh): cross-path score aggregation at up
// to 1M simultaneous paths over one shared topology.
//
// Reports the three quantities the mesh design is accountable for:
//
//   paths/s      stat-engine throughput of the sharded fan-out;
//   store bytes  peak score-store memory = aggregated store + one
//                in-flight shard per worker, and bytes per link — the
//                O(links) claim, independent of the path count;
//   detection    units-per-path percentiles at which malicious links'
//                cumulative cross-path evidence first convicted.
//
// Only the deterministic numbers (links, units, verdicts, damage,
// detection percentiles, store bytes) go to --metrics-out, where
// bench/baseline.json gates them. paths/s and the peak (it scales with
// the worker count) are machine numbers and stay in the printed table;
// perfbench's mesh_fattree workload is the timing ledger. A small
// prologue run double-checks the --jobs bit-identity contract before the
// big run spends any time.
//
// Extra flags beyond bench_common's: --topo=SPEC (topology grammar, see
// docs/MESH.md), --paths=N, --units=N, --rounds=N, --blame=MODE
// (conviction rule over the merged evidence — docs/DETECTORS.md; rounds
// are the mesh's windows, so windowed/hybrid W is ignored).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench_common.h"
#include "mesh/runner.h"
#include "util/csv.h"

using namespace paai;
using namespace paai::mesh;

namespace {

using Clock = std::chrono::steady_clock;

/// Exact-equality digest of everything a MeshResult derives from the
/// evidence; any cross-jobs divergence shows up here.
std::string digest(const MeshResult& r) {
  std::string d;
  for (const auto& row : r.links) {
    d += std::to_string(row.units) + "," + std::to_string(row.blames) + "," +
         std::to_string(row.solo_convictions) + "," +
         std::to_string(row.first_convicted_units) + "," +
         (row.convicted ? "C" : ".") + ";";
  }
  char damage[64];
  std::snprintf(damage, sizeof damage, "%a", r.total_damage);  // bit-exact
  d += damage;
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchSession session("bench_mesh", argc, argv);
  const auto& args = session.args;

  MeshConfig cfg;
  const char* flag = "--topo";
  try {
    cfg.topo =
        Topology::parse(flag_str(argc, argv, flag).value_or("fattree@16"));
    flag = "--blame";
    cfg.blame = protocols::BlameSpec::parse(
        flag_str(argc, argv, flag).value_or("margin"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s: %s\n", flag, e.what());
    return 2;
  }
  bench::print_header("Mesh fleet — cross-path aggregation at scale",
                      "Corollary 2 at mesh scale; src/mesh design notes "
                      "in docs/MESH.md");
  const std::size_t n_paths =
      count_flag(argc, argv, "--paths", args.scaled(1000000));
  cfg.engine = MeshEngine::kStat;
  cfg.units_per_path = count_flag(argc, argv, "--units", 2000);
  cfg.rounds = count_flag(argc, argv, "--rounds", 8);
  cfg.natural_loss = 0.01;
  cfg.decision_threshold = 0.02;
  // Default adversary: one compromised core straddling a large share of
  // the inter-pod paths — the cross-path union scenario.
  cfg.adversaries = args.adversaries.empty()
                        ? adversary::AdversaryPlan::parse(
                              "uniform@0:rate=0.03")
                        : args.adversaries;
  cfg.faults = args.faults;
  cfg.seed0 = 424242;
  cfg.jobs = args.jobs;
  cfg.paths = cfg.topo.enumerate_paths(n_paths, /*seed=*/7);

  // Prologue: the bit-identity contract on a trimmed copy of the same
  // scenario (jobs=1 vs the requested pool). Cheap insurance before the
  // full-scale run.
  {
    MeshConfig probe = cfg;
    probe.paths = cfg.topo.enumerate_paths(
        std::min<std::size_t>(n_paths, 20000), /*seed=*/7);
    probe.jobs = 1;
    const std::string serial = digest(run_mesh(probe));
    probe.jobs = args.jobs;
    const std::string pooled = digest(run_mesh(probe));
    if (serial != pooled) {
      std::fprintf(stderr,
                   "bench_mesh: --jobs bit-identity violated:\n  jobs=1: "
                   "%s\n  jobs=N: %s\n",
                   serial.c_str(), pooled.c_str());
      return 2;
    }
    std::fprintf(stderr, "[mesh] jobs bit-identity probe OK (%zu paths)\n",
                 probe.paths.size());
  }

  std::fprintf(stderr, "[mesh] %s: %zu paths x %llu units, rounds=%zu...\n",
               cfg.topo.to_string().c_str(), cfg.paths.size(),
               static_cast<unsigned long long>(cfg.units_per_path),
               cfg.rounds);
  const auto t0 = Clock::now();
  const MeshResult r = run_mesh(cfg);
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();
  const double paths_per_s = static_cast<double>(r.paths) / wall;
  // Peak = aggregated store + one in-flight shard per worker (worker
  // count is a machine property; the per-link figure uses the
  // deterministic store alone so it diffs across machines).
  const std::size_t peak_bytes =
      r.store_bytes + r.shard_bytes * (r.exec.jobs > 0 ? r.exec.jobs : 1);
  const double bytes_per_link =
      static_cast<double>(r.store_bytes) /
      static_cast<double>(cfg.topo.num_links());

  Table t({"topology", "paths", "links", "wall_s", "paths_per_s",
           "peak_store_B", "B_per_link", "convicted", "false_acc",
           "det_p50", "det_p99"});
  t.row()
      .cell(cfg.topo.to_string())
      .integer(static_cast<long long>(r.paths))
      .integer(static_cast<long long>(cfg.topo.num_links()))
      .num(wall, 2)
      .num(paths_per_s, 0)
      .integer(static_cast<long long>(peak_bytes))
      .num(bytes_per_link, 1)
      .integer(static_cast<long long>(r.convicted.size()))
      .integer(static_cast<long long>(r.false_accusations))
      .num(r.detection_units_p50, 0)
      .num(r.detection_units_p99, 0);
  t.print(std::cout, args.csv);

  session.arg("paths", static_cast<long long>(r.paths));
  session.arg("units_per_path", static_cast<long long>(cfg.units_per_path));
  session.info("topology", cfg.topo.to_string());
  session.info("adversary", cfg.adversaries.to_string());
  session.info("blame", cfg.blame.to_string());
  session.metric("mesh.links", static_cast<double>(cfg.topo.num_links()));
  session.metric("mesh.total_units", static_cast<double>(r.total_units));
  session.metric("mesh.convicted", static_cast<double>(r.convicted.size()));
  session.metric("mesh.false_accusations",
                 static_cast<double>(r.false_accusations));
  session.metric("mesh.missed_malicious",
                 static_cast<double>(r.missed_malicious));
  session.metric("mesh.total_damage", r.total_damage);
  session.metric("mesh.detection_units_p50", r.detection_units_p50);
  session.metric("mesh.detection_units_p90", r.detection_units_p90);
  session.metric("mesh.detection_units_p99", r.detection_units_p99);
  session.metric("mesh.store_bytes", static_cast<double>(r.store_bytes));
  session.metric("mesh.bytes_per_link", bytes_per_link);
  session.exec(r.exec);

  if (r.false_accusations != 0) {
    std::fprintf(stderr, "bench_mesh: %zu false accusations\n",
                 r.false_accusations);
    return 1;
  }
  return 0;
}
