// bench_diff — compare two machine-readable bench documents.
//
//   bench_diff [options] BASELINE.json CANDIDATE.json
//   bench_diff --self-test
//
// Accepts either the suite document written by tools/bench_snapshot.sh
// ("paai.bench.suite.v1") or a single bench document ("paai.bench.v1",
// from any binary's --metrics-out). For every bench present in both
// files, every metric under "results" is compared; a relative change
// beyond the threshold is a drift. Wall time, exec telemetry, and the
// observability section are deliberately ignored — they measure the
// machine, not the protocols. The suite-level "meta" object
// (host/compiler/timestamp stamped by bench_snapshot.sh) is ignored for
// the same reason: only "schema" and "benches"/"results" are read, so
// snapshots taken on different machines diff on the metrics alone.
//
// Options:
//   --threshold=PCT   relative-change tolerance in percent (default 10)
//   --ignore=BENCH    drop the named bench from both sides before
//                     comparing (repeatable); for benches whose metrics
//                     measure the machine rather than the protocols,
//                     e.g. bench_micro wall-clock timings
//   --csv             machine-readable drift listing
//   --self-test       run the built-in pass/fail fixtures and exit
//
// Exit status: 0 = no drift, 1 = drift detected, 2 = usage / parse error.
// Metrics or benches present on only one side are reported as notes but
// are not drift by themselves — suites legitimately grow.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "util/csv.h"
#include "util/specgrammar.h"

using paai::obs::JsonValue;

namespace {

struct DiffStats {
  std::size_t compared = 0;
  std::size_t drifted = 0;
  std::vector<std::string> notes;
};

/// Flattens a document into (bench, metric) -> value. A single
/// paai.bench.v1 document becomes a one-bench suite keyed by its "bench"
/// name, so a suite can be diffed against a lone --metrics-out file.
using MetricMap = std::vector<std::pair<std::string, double>>;

std::optional<MetricMap> flatten(const JsonValue& doc, std::string* error) {
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    *error = "missing \"schema\" member";
    return std::nullopt;
  }
  MetricMap out;
  const auto add_bench = [&out](const std::string& bench,
                                const JsonValue& bench_doc) {
    const JsonValue* results = bench_doc.find("results");
    if (results == nullptr || !results->is_object()) return;
    for (const auto& [metric, value] : results->object) {
      if (value.is_number()) {
        out.emplace_back(bench + "/" + metric, value.number);
      }
    }
  };
  if (schema->string == "paai.bench.suite.v1") {
    const JsonValue* benches = doc.find("benches");
    if (benches == nullptr || !benches->is_object()) {
      *error = "suite document without \"benches\" object";
      return std::nullopt;
    }
    for (const auto& [name, bench_doc] : benches->object) {
      add_bench(name, bench_doc);
    }
  } else if (schema->string == "paai.bench.v1") {
    const JsonValue* name = doc.find("bench");
    add_bench(name != nullptr && name->is_string() ? name->string : "bench",
              doc);
  } else {
    *error = "unknown schema \"" + schema->string + "\"";
    return std::nullopt;
  }
  return out;
}

/// Drops every metric belonging to an ignored bench (flattened keys are
/// "bench/metric", so an ignore matches the prefix up to the first '/').
void drop_ignored(MetricMap& m, const std::vector<std::string>& ignores) {
  std::erase_if(m, [&ignores](const std::pair<std::string, double>& kv) {
    const std::string bench = kv.first.substr(0, kv.first.find('/'));
    for (const auto& ignore : ignores) {
      if (bench == ignore) return true;
    }
    return false;
  });
}

const double* find_metric(const MetricMap& m, const std::string& key) {
  for (const auto& [k, v] : m) {
    if (k == key) return &v;
  }
  return nullptr;
}

DiffStats diff(const MetricMap& base, const MetricMap& cand,
               double threshold, paai::Table& table) {
  DiffStats stats;
  for (const auto& [key, a] : base) {
    const double* b = find_metric(cand, key);
    if (b == nullptr) {
      stats.notes.push_back("only in baseline: " + key);
      continue;
    }
    ++stats.compared;
    // Relative change against the baseline magnitude; a metric appearing
    // from exactly zero is always a drift (no scale to compare against).
    const double rel = a != 0.0 ? (*b - a) / std::fabs(a)
                                : (*b != 0.0 ? INFINITY : 0.0);
    if (std::fabs(rel) > threshold) {
      ++stats.drifted;
      table.row()
          .cell(key)
          .num(a, 6)
          .num(*b, 6)
          .cell(std::isfinite(rel)
                    ? paai::fmt_num(rel * 100.0, 2) + "%"
                    : "new-nonzero");
    }
  }
  for (const auto& [key, b] : cand) {
    (void)b;
    if (find_metric(base, key) == nullptr) {
      stats.notes.push_back("only in candidate: " + key);
    }
  }
  return stats;
}

std::optional<MetricMap> load(const std::string& path, std::string* error) {
  std::ifstream is(path);
  if (!is) {
    *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  std::string parse_error;
  const auto doc = paai::obs::json_parse(buf.str(), &parse_error);
  if (!doc) {
    *error = path + ": " + parse_error;
    return std::nullopt;
  }
  auto flat = flatten(*doc, error);
  if (!flat) *error = path + ": " + *error;
  return flat;
}

/// Built-in fixtures: the same document must diff clean against itself,
/// and a moved metric must be flagged. Keeps check.sh honest without
/// needing fixture files in the tree.
int self_test() {
  const char* base_doc = R"({"schema":"paai.bench.v1","bench":"t",
    "results":{"detection_packets":1000,"overhead":0.25,"zero":0}})";
  const char* drift_doc = R"({"schema":"paai.bench.v1","bench":"t",
    "results":{"detection_packets":1500,"overhead":0.25,"zero":0}})";
  std::string error;
  const auto a = paai::obs::json_parse(base_doc, &error);
  const auto b = paai::obs::json_parse(drift_doc, &error);
  if (!a || !b) {
    std::fprintf(stderr, "self-test: fixture parse failed: %s\n",
                 error.c_str());
    return 2;
  }
  const auto fa = flatten(*a, &error);
  const auto fb = flatten(*b, &error);
  if (!fa || !fb || fa->size() != 3) {
    std::fprintf(stderr, "self-test: flatten failed: %s\n", error.c_str());
    return 2;
  }
  paai::Table scratch({"metric", "baseline", "candidate", "change"});
  if (diff(*fa, *fa, 0.10, scratch).drifted != 0) {
    std::fprintf(stderr, "self-test: identical documents drifted\n");
    return 2;
  }
  if (diff(*fa, *fb, 0.10, scratch).drifted != 1) {
    std::fprintf(stderr, "self-test: 50%% move not flagged\n");
    return 2;
  }
  MetricMap ignored = *fb;
  drop_ignored(ignored, {"t"});
  if (!ignored.empty() || diff(*fa, ignored, 0.10, scratch).compared != 0) {
    std::fprintf(stderr, "self-test: --ignore did not drop the bench\n");
    return 2;
  }
  // Suite documents with differing host `meta` stamps (bench_snapshot.sh)
  // must diff clean: meta never reaches the metric map.
  const char* suite_a = R"({"schema":"paai.bench.suite.v1","label":"a",
    "created_unix":1,
    "meta":{"cpu_model":"cpu-a","cores":8,"compiler":"g++ 13",
            "created_utc":"2026-01-01T00:00:00Z"},
    "benches":{"t":{"schema":"paai.bench.v1","bench":"t",
                    "results":{"detection_packets":1000}}}})";
  const char* suite_b = R"({"schema":"paai.bench.suite.v1","label":"b",
    "created_unix":2,
    "meta":{"cpu_model":"cpu-b","cores":128,"compiler":"clang 19",
            "created_utc":"2026-02-02T00:00:00Z"},
    "benches":{"t":{"schema":"paai.bench.v1","bench":"t",
                    "results":{"detection_packets":1000}}}})";
  const auto sa = paai::obs::json_parse(suite_a, &error);
  const auto sb = paai::obs::json_parse(suite_b, &error);
  if (!sa || !sb) {
    std::fprintf(stderr, "self-test: suite fixture parse failed: %s\n",
                 error.c_str());
    return 2;
  }
  const auto fsa = flatten(*sa, &error);
  const auto fsb = flatten(*sb, &error);
  if (!fsa || !fsb || fsa->size() != 1) {
    std::fprintf(stderr, "self-test: suite flatten failed: %s\n",
                 error.c_str());
    return 2;
  }
  const DiffStats meta_stats = diff(*fsa, *fsb, 0.10, scratch);
  if (meta_stats.drifted != 0 || meta_stats.compared != 1 ||
      !meta_stats.notes.empty()) {
    std::fprintf(stderr, "self-test: differing meta objects caused drift\n");
    return 2;
  }
  std::printf("bench_diff self-test: ok\n");
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: bench_diff [--threshold=PCT] [--ignore=BENCH]... "
               "[--csv] BASELINE.json CANDIDATE.json\n"
               "       bench_diff --self-test\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (paai::has_flag(argc, argv, "--self-test")) return self_test();

  double threshold = 0.10;
  std::vector<std::string> files;
  std::vector<std::string> ignores;
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threshold=", 0) == 0) {
      try {
        threshold =
            paai::util::spec_parse_double(arg.substr(12), "PCT", "") / 100.0;
      } catch (const std::invalid_argument&) {
        std::fprintf(stderr, "error: bad --threshold value '%s'\n",
                     arg.c_str());
        return 2;
      }
      if (!(threshold >= 0.0)) {  // also rejects NaN
        std::fprintf(stderr, "error: --threshold must be >= 0\n");
        return 2;
      }
    } else if (arg.rfind("--ignore=", 0) == 0) {
      if (arg.size() == 9) {
        std::fprintf(stderr, "error: --ignore needs a bench name\n");
        return 2;
      }
      ignores.push_back(arg.substr(9));
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      usage();
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    usage();
    return 2;
  }

  std::string error;
  auto base = load(files[0], &error);
  if (!base) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  auto cand = load(files[1], &error);
  if (!cand) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  drop_ignored(*base, ignores);
  drop_ignored(*cand, ignores);

  paai::Table table({"metric", "baseline", "candidate", "change"});
  const DiffStats stats = diff(*base, *cand, threshold, table);
  for (const auto& note : stats.notes) {
    std::fprintf(stderr, "note: %s\n", note.c_str());
  }
  if (stats.drifted > 0) table.print(std::cout, csv);
  std::printf("%zu metrics compared, %zu beyond %.3g%%\n", stats.compared,
              stats.drifted, threshold * 100.0);
  return stats.drifted > 0 ? 1 : 0;
}
