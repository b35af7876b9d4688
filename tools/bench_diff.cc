// bench_diff — compare two machine-readable bench documents.
//
//   bench_diff [options] BASELINE.json CANDIDATE.json
//   bench_diff --self-test
//
// Accepts either the suite document written by tools/bench_snapshot.sh
// ("paai.bench.suite.v1", e.g. the committed bench/baseline.json) or a
// single bench document ("paai.bench.v1", from any binary's
// --metrics-out). Every metric under the baseline's "results" is
// compared; a relative change beyond the threshold is a drift. Wall time,
// exec telemetry, and the observability section are deliberately ignored
// — they measure the machine, not the protocols. The suite-level "meta"
// object (host/compiler/timestamp stamped by bench_snapshot.sh) is
// ignored for the same reason: only "schema" and "benches"/"results" are
// read, so documents from different machines diff on the metrics alone.
//
// Options:
//   --threshold=PCT   relative-change tolerance in percent (default 10)
//   --csv             machine-readable drift listing
//   --self-test       run the built-in pass/fail fixtures and exit
//
// Exit status: 0 = no drift, 1 = drift detected, 2 = usage / parse error.
// A baseline metric that is missing from the candidate, or null on one
// side only (BenchReport writes non-finite values as null), is a drift: a
// gate must not pass because a metric vanished or turned NaN. Metrics present only
// in the candidate are notes — suites legitimately grow.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "util/csv.h"

using paai::obs::JsonValue;

namespace {

struct DiffStats {
  std::size_t compared = 0;
  std::size_t drifted = 0;
  std::vector<std::string> notes;
};

/// Flattens a document into (bench, metric) -> value, null as NaN. A
/// single paai.bench.v1 document becomes a one-bench suite keyed by its
/// "bench" name, so a suite can be diffed against a lone --metrics-out
/// file.
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
      if (value.is_number() || value.is_null()) {
        out.emplace_back(bench + "/" + metric,
                         value.is_null() ? NAN : value.number);
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

const double* find_metric(const MetricMap& m, const std::string& key) {
  for (const auto& [k, v] : m) {
    if (k == key) return &v;
  }
  return nullptr;
}

DiffStats diff(const MetricMap& base, const MetricMap& cand,
               double threshold, paai::Table& table) {
  DiffStats stats;
  const auto show = [](double v) {
    return std::isnan(v) ? std::string("null") : paai::fmt_num(v, 6);
  };
  for (const auto& [key, a] : base) {
    const double* b = find_metric(cand, key);
    ++stats.compared;
    std::string change;
    if (b == nullptr) {
      change = "missing";
    } else if (std::isnan(a) || std::isnan(*b)) {
      if (std::isnan(a) != std::isnan(*b)) change = "null";
    } else {
      // Relative change against the baseline magnitude; a metric
      // appearing from exactly zero is always a drift (no scale to
      // compare against).
      const double rel = a != 0.0 ? (*b - a) / std::fabs(a)
                                  : (*b != 0.0 ? INFINITY : 0.0);
      if (std::fabs(rel) > threshold) {
        change = std::isfinite(rel) ? paai::fmt_num(rel * 100.0, 2) + "%"
                                    : "new-nonzero";
      }
    }
    if (change.empty()) continue;
    ++stats.drifted;
    table.row()
        .cell(key)
        .cell(show(a))
        .cell(b != nullptr ? show(*b) : "-")
        .cell(change);
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

/// Built-in fixtures: the same document must diff clean against itself;
/// a moved, vanished or null metric must be flagged; a candidate-only
/// metric and differing suite `meta` stamps must not be. Keeps check.sh
/// honest without needing fixture files in the tree.
int self_test() {
  const auto flat = [](const std::string& text) {
    std::string error;
    const auto doc = paai::obs::json_parse(text, &error);
    auto out = doc ? flatten(*doc, &error) : std::nullopt;
    if (!out) {
      std::fprintf(stderr, "self-test: fixture rejected: %s\n",
                   error.c_str());
      std::exit(2);
    }
    return *out;
  };
  const auto bench = [&flat](const std::string& results) {
    return flat(R"({"schema":"paai.bench.v1","bench":"t","results":)" +
                results + "}");
  };
  const MetricMap base =
      bench(R"({"detection_packets":1000,"overhead":0.25,"zero":0})");
  // Suite documents with differing host `meta` stamps (bench_snapshot.sh)
  // must diff clean: meta never reaches the metric map.
  const auto suite = [&flat](const std::string& meta) {
    return flat(R"({"schema":"paai.bench.suite.v1","meta":)" + meta +
                R"(,"benches":{"t":{"schema":"paai.bench.v1","bench":"t",)"
                R"("results":{"detection_packets":1000}}}})");
  };
  const struct {
    const char* name;
    MetricMap base, cand;
    std::size_t drifted;
  } cases[] = {
      {"identical documents", base, base, 0},
      {"50% move", base,
       bench(R"({"detection_packets":1500,"overhead":0.25,"zero":0})"), 1},
      {"null candidate metric", bench(R"({"fp":0,"caught":1})"),
       bench(R"({"fp":0,"caught":null})"), 1},
      {"missing candidate metric", bench(R"({"fp":0,"caught":1})"),
       bench(R"({"fp":0})"), 1},
      {"candidate-only metric", bench(R"({"fp":0})"),
       bench(R"({"fp":0,"caught":1})"), 0},
      {"differing suite meta",
       suite(R"({"cpu_model":"cpu-a","cores":8,"compiler":"g++ 13"})"),
       suite(R"({"cpu_model":"cpu-b","cores":128,"compiler":"clang"})"),
       0},
  };
  paai::Table scratch({"metric", "baseline", "candidate", "change"});
  for (const auto& c : cases) {
    const DiffStats stats = diff(c.base, c.cand, 0.10, scratch);
    if (stats.drifted != c.drifted || stats.compared != c.base.size()) {
      std::fprintf(stderr,
                   "self-test: %s: %zu of %zu compared drifted, want %zu\n",
                   c.name, stats.drifted, stats.compared, c.drifted);
      return 2;
    }
  }
  std::printf("bench_diff self-test: ok\n");
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: bench_diff [--threshold=PCT] [--csv] "
               "BASELINE.json CANDIDATE.json\n"
               "       bench_diff --self-test\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (paai::has_flag(argc, argv, "--self-test")) return self_test();

  const double threshold =
      paai::real_flag(argc, argv, "--threshold", 10.0) / 100.0;
  if (threshold < 0.0) {
    std::fprintf(stderr, "error: --threshold must be >= 0\n");
    return 2;
  }
  const bool csv = paai::has_flag(argc, argv, "--csv");
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold") {
      ++i;  // its value
    } else if (arg.rfind("--threshold=", 0) == 0 || arg == "--csv") {
      continue;
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
