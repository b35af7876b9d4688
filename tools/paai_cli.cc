// paai — command-line driver for the library.
//
//   paai run     [options]  run one experiment and print the verdict
//   paai curve   [options]  Monte-Carlo FP/FN curve over packet counts
//   paai bounds  [options]  evaluate the §7 closed forms
//   paai mesh    [options]  many paths over one shared topology (--topo
//                           grammar, docs/MESH.md); links are convicted
//                           from the cross-path union of evidence and
//                           printed with witness-path provenance
//   paai explain FILE       replay a forensic event log (JSONL, written by
//                           --events-out) into a conviction audit trail
//   paai serve   [options]  online scoring service: consume a JSONL event
//                           stream (stdin, file, or FIFO) through the
//                           incremental engine; announce convictions as
//                           they happen, snapshot state periodically,
//                           drain gracefully on SIGINT
//   paai replay  FILE       feed a recorded event log through the stream
//                           engine; with --verify, assert the result is
//                           bit-identical to the batch run's verdict
//   paai top     FILE       live textual dashboard over a paai.telemetry.v1
//                           JSONL file (written by --telemetry-out):
//                           rates, serve lag, phase breakdown; --once
//                           renders a single frame and exits
//
// Options (all commands):
//   --protocol=NAME   full-ack | paai1 | paai2 | comb1 | comb2 | statfl |
//                     sigack                                (default paai1)
//   --d=N             path length in hops                   (default 6)
//   --rho=X           natural per-link loss                 (default 0.01)
//   --packets=N       data packets to send                  (default 60000)
//   --rate=X          source rate, packets/second           (default 100)
//   --p=X             probe/sampling probability            (default 1/36)
//   --threshold=X     conviction threshold                  (default rho+0.008)
//   --seed=N          RNG seed                              (default 1)
//   --fault=LINK:RATE      link-level malicious extra loss (repeatable)
//   --adversary=SPEC  node strategy (repeatable). Two forms:
//                     * declarative plan grammar, compact or JSON — e.g.
//                       'stealth@4:margin=0.9' or
//                       'collude@4:rate=0.5;ack@2:rate=0.3' — see
//                       docs/ADVERSARIES.md for the full catalog
//                       (adaptive strategies included);
//                     * legacy NODE:KIND:RATE with KIND in uniform | data |
//                       ack | corrupt | withhold | withhold-drop
//   --faults=SPEC     scripted benign faults (bursty loss, link churn,
//                     node outages); compact grammar or JSON — see
//                     docs/FAULTS.md
//   --blame=MODE      conviction rule (docs/DETECTORS.md):
//                       margin          one-standard-error margin (default)
//                       persistent[:K]  K repeated first-failing-hop
//                                       observations instead of the margin
//                                       (K defaults to 3)
//                       windowed[:W]    margin, plus convict on a flagrant
//                                       W-unit window (W defaults to 192)
//                       hybrid[:K[,W]]  windowed, plus convict after K
//                                       consecutive hot windows (K=4)
//                     Also applies to `paai mesh`, where checkpoint
//                     rounds are the windows (W is ignored there).
//   --runs=N          (curve) Monte-Carlo runs              (default 50)
//   --jobs=N          (curve) worker threads; 0 = all cores (default 0)
//                     results are bit-identical for any value
//   --csv             machine-readable output
//   --metrics-out=F   write a paai.bench.v1 JSON document (metrics +
//                     src/obs counters) for the command
//   --trace-out=F     write a Chrome trace_event JSON
//   --telemetry-out=F stream live paai.telemetry.v1 JSONL samples (see
//                     docs/OBSERVABILITY.md; consume with `paai top` or
//                     tools/telemetry_report); enables the metrics
//                     registry and phase self-profiler for the process
//   --telemetry-every=N  sampling cadence in command work units — serve/
//                     replay: applied events; run: packets sent; curve:
//                     completed runs; mesh: committed units (default 10000)
//   --events-out=F    write the forensic event log as JSONL (run: the
//                     experiment; curve: Monte-Carlo run 0)
//   --events-cap=N    per-node event-ring capacity            (default 32768)
//
// Examples:
//   paai run --protocol=paai1 --fault=4:0.02
//   paai run --protocol=fullack --adversary=3:corrupt:0.3 --packets=5000
//   paai run --protocol=paai1 --adversary='stealth@4:margin=0.9'
//   paai run --adversary='collude@4:rate=0.5'
//            --faults='ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15'
//   paai run --protocol=paai1 --faults='ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15'
//   paai curve --protocol=paai2 --packets=400000 --runs=20
//   paai run --packets=20000 --events-out=run.jsonl
//   paai replay run.jsonl --verify
//   mkfifo events.pipe
//   paai serve --in=events.pipe --state-out=paai.state --snapshot-every=1000
//
// Serve/replay options:
//   --in=PATH         JSONL event source; '-' = stdin     (serve default -)
//   --state-in=F      restore engine state (paai.state.v1) before reading
//   --state-out=F     snapshot target; written every --snapshot-every
//                     applied events and once on every exit path
//   --snapshot-every=N  periodic snapshot cadence (applied events; 0=off)
//   --skip-malformed  (serve) count and skip bad lines instead of failing
//   --verify          (replay) exit nonzero unless the engine's verdict
//                     matches the log's recorded batch convictions exactly
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "adversary/spec.h"
#include "analysis/bounds.h"
#include "bench/bench_common.h"
#include "faults/plan.h"
#include "mesh/runner.h"
#include "util/specgrammar.h"
#include "obs/events.h"
#include "obs/forensics.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "runner/montecarlo.h"
#include "runner/producer.h"
#include "stream/engine.h"
#include "stream/service.h"
#include "stream/state.h"
#include "util/csv.h"

using namespace paai;
using namespace paai::runner;

namespace {

struct CliError {
  std::string message;
};

std::optional<std::string> get_opt(int argc, char** argv,
                                   const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return std::nullopt;
}

std::vector<std::string> get_all(int argc, char** argv,
                                 const std::string& name) {
  const std::string prefix = "--" + name + "=";
  std::vector<std::string> out;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) out.push_back(arg.substr(prefix.size()));
  }
  return out;
}

protocols::ProtocolKind parse_protocol(const std::string& name) {
  if (name == "full-ack" || name == "fullack") {
    return protocols::ProtocolKind::kFullAck;
  }
  if (name == "paai1") return protocols::ProtocolKind::kPaai1;
  if (name == "paai2") return protocols::ProtocolKind::kPaai2;
  if (name == "comb1") return protocols::ProtocolKind::kCombination1;
  if (name == "comb2") return protocols::ProtocolKind::kCombination2;
  if (name == "statfl") return protocols::ProtocolKind::kStatisticalFl;
  if (name == "sigack") return protocols::ProtocolKind::kSigAck;
  throw CliError{"unknown protocol '" + name + "'"};
}

AdversarySpec parse_legacy_adversary(const std::string& spec) {
  const auto c1 = spec.find(':');
  const auto c2 = spec.find(':', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) {
    throw CliError{"--adversary wants NODE:KIND:RATE, got '" + spec + "'"};
  }
  AdversarySpec out;
  out.node = std::stoul(spec.substr(0, c1));
  const std::string kind = spec.substr(c1 + 1, c2 - c1 - 1);
  out.rate = std::stod(spec.substr(c2 + 1));
  if (kind == "uniform") {
    out.kind = AdversarySpec::Kind::kUniform;
  } else if (kind == "data") {
    out.kind = AdversarySpec::Kind::kTypeRates;
    out.type_rates.data = out.rate;
  } else if (kind == "ack") {
    out.kind = AdversarySpec::Kind::kAckOnly;
  } else if (kind == "corrupt") {
    out.kind = AdversarySpec::Kind::kCorrupt;
  } else if (kind == "withhold") {
    out.kind = AdversarySpec::Kind::kWithholdRelease;
  } else if (kind == "withhold-drop") {
    out.kind = AdversarySpec::Kind::kWithholdDrop;
  } else {
    throw CliError{"unknown adversary kind '" + kind + "'"};
  }
  return out;
}

/// --blame=margin | persistent[:K] | windowed[:W] | hybrid[:K[,W]]
/// (protocols/window.h grammar).
protocols::BlameSpec parse_blame_mode(const std::string& mode) {
  try {
    return protocols::BlameSpec::parse(mode);
  } catch (const std::invalid_argument& e) {
    throw CliError{std::string("--blame: ") + e.what()};
  }
}

ExperimentConfig config_from_args(int argc, char** argv) {
  ExperimentConfig cfg;
  cfg.protocol =
      parse_protocol(get_opt(argc, argv, "protocol").value_or("paai1"));
  cfg.path.length = std::stoul(get_opt(argc, argv, "d").value_or("6"));
  cfg.path.natural_loss =
      std::stod(get_opt(argc, argv, "rho").value_or("0.01"));
  cfg.path.max_latency_ms = 5.0;
  cfg.path.seed = std::stoull(get_opt(argc, argv, "seed").value_or("1"));
  cfg.params.total_packets =
      std::stoull(get_opt(argc, argv, "packets").value_or("60000"));
  cfg.params.send_rate_pps =
      std::stod(get_opt(argc, argv, "rate").value_or("100"));
  cfg.params.probe_probability = std::stod(
      get_opt(argc, argv, "p").value_or(std::to_string(1.0 / 36.0)));
  cfg.decision_threshold = std::stod(get_opt(argc, argv, "threshold")
                                         .value_or(std::to_string(
                                             cfg.path.natural_loss + 0.008)));
  for (const auto& f : get_all(argc, argv, "fault")) {
    const auto colon = f.find(':');
    if (colon == std::string::npos) {
      throw CliError{"--fault wants LINK:RATE, got '" + f + "'"};
    }
    cfg.link_faults.push_back(LinkFault{std::stoul(f.substr(0, colon)),
                                        std::stod(f.substr(colon + 1))});
  }
  for (const auto& a : get_all(argc, argv, "adversary")) {
    // The declarative grammar is recognizable on sight: compact clauses
    // carry '@', JSON starts with '[' or '{'. Anything else is the legacy
    // NODE:KIND:RATE form.
    const std::string_view t = util::spec_trim(a);
    if (!t.empty() &&
        (t.find('@') != std::string_view::npos || t.front() == '[' ||
         t.front() == '{')) {
      const auto plan = adversary::AdversaryPlan::parse(a);
      cfg.adversaries.insert(cfg.adversaries.end(), plan.specs.begin(),
                             plan.specs.end());
    } else {
      cfg.adversaries.push_back(parse_legacy_adversary(a));
    }
  }
  if (const auto spec = get_opt(argc, argv, "faults")) {
    cfg.faults = faults::FaultPlan::parse(*spec);
  }
  if (const auto blame = get_opt(argc, argv, "blame")) {
    cfg.params.blame = parse_blame_mode(*blame);
  }
  return cfg;
}

/// --events-out / --events-cap handling shared by run and curve. Returns
/// a live log only when the user asked for one.
std::unique_ptr<obs::EventLog> make_event_log(int argc, char** argv) {
  if (!get_opt(argc, argv, "events-out")) return nullptr;
  const std::size_t cap = std::stoul(
      get_opt(argc, argv, "events-cap").value_or("32768"));
  return std::make_unique<obs::EventLog>(cap);
}

void write_event_log(int argc, char** argv, const obs::EventLog& log) {
  const auto path = get_opt(argc, argv, "events-out");
  if (!path) return;
  std::ofstream out(*path);
  if (!out) throw CliError{"cannot open '" + *path + "' for writing"};
  log.write_jsonl(out);
  std::fprintf(stderr,
               "events: %llu recorded, %llu dropped (ring cap %zu) -> %s\n",
               static_cast<unsigned long long>(log.recorded()),
               static_cast<unsigned long long>(log.dropped()),
               log.per_node_capacity(), path->c_str());
}

int cmd_run(int argc, char** argv) {
  bench::BenchSession session("paai.run", argc, argv);
  ExperimentConfig cfg = config_from_args(argc, argv);
  cfg.path.trace = session.trace();
  cfg.telemetry = session.telemetry();
  const auto events = make_event_log(argc, argv);
  cfg.path.events = events.get();
  const bool csv = has_flag(argc, argv, "--csv");
  std::fprintf(stderr, "running %s on a %zu-hop path, %llu packets...\n",
               protocols::protocol_name(cfg.protocol), cfg.path.length,
               static_cast<unsigned long long>(cfg.params.total_packets));
  const ExperimentResult r = run_experiment(cfg);
  if (events) write_event_log(argc, argv, *events);
  session.info("protocol", protocols::protocol_name(cfg.protocol));
  if (!cfg.faults.empty()) session.info("faults", cfg.faults.to_string());
  session.metric("convicted_links",
                 static_cast<double>(r.final_convicted.size()));
  session.metric("observed_e2e_rate", r.observed_e2e_rate);
  session.metric("ground_truth_delivery", r.ground_truth_delivery);
  session.metric("overhead_bytes_ratio", r.overhead_bytes_ratio);
  session.metric("overhead_packets_ratio", r.overhead_packets_ratio);
  session.metric("events_processed",
                 static_cast<double>(r.events_processed));

  Table table({"link", "estimated_theta", "true_loss", "verdict"});
  for (std::size_t i = 0; i < r.final_thetas.size(); ++i) {
    const bool convicted =
        std::find(r.final_convicted.begin(), r.final_convicted.end(), i) !=
        r.final_convicted.end();
    table.row()
        .cell("l_" + std::to_string(i))
        .num(r.final_thetas[i], 4)
        .num(i < r.true_link_loss.size() ? r.true_link_loss[i] : 0.0, 4)
        .cell(convicted ? "CONVICTED" : "");
  }
  table.print(std::cout, csv);
  std::printf("\nmonitored rounds: %llu   failure rate: %.4f   "
              "delivery (ground truth): %.4f\n",
              static_cast<unsigned long long>(r.observations),
              r.observed_e2e_rate, r.ground_truth_delivery);
  std::printf("overhead: %.4f ctrl bytes/data byte, %.4f ctrl pkts/data "
              "pkt\n",
              r.overhead_bytes_ratio, r.overhead_packets_ratio);
  return r.final_convicted.empty() ? 1 : 0;
}

int cmd_curve(int argc, char** argv) {
  bench::BenchSession session("paai.curve", argc, argv);
  MonteCarloConfig mc;
  mc.base = config_from_args(argc, argv);
  mc.trace = session.trace();
  mc.telemetry = session.telemetry();
  const auto events = make_event_log(argc, argv);
  mc.events = events.get();
  mc.runs = std::stoul(get_opt(argc, argv, "runs").value_or("50"));
  mc.jobs = std::stoul(get_opt(argc, argv, "jobs").value_or("0"));
  if (mc.base.link_faults.empty() && mc.base.adversaries.empty()) {
    mc.base.link_faults.push_back(LinkFault{mc.base.path.length - 2, 0.02});
  }
  for (const auto& f : mc.base.link_faults) {
    mc.malicious_links.push_back(f.link);
  }
  for (const auto& a : mc.base.adversaries) {
    mc.malicious_links.push_back(a.node);  // adjacency handled loosely
  }
  mc.base.checkpoints = log_checkpoints(
      std::max<std::uint64_t>(mc.base.params.total_packets / 100, 50),
      mc.base.params.total_packets, 15);

  std::fprintf(stderr, "curve: %zu runs x %llu packets (%s)...\n", mc.runs,
               static_cast<unsigned long long>(mc.base.params.total_packets),
               protocols::protocol_name(mc.base.protocol));
  const MonteCarloResult r = run_monte_carlo(mc);
  if (events) write_event_log(argc, argv, *events);
  session.exec(r.exec);
  session.info("protocol", protocols::protocol_name(mc.base.protocol));
  if (!mc.base.faults.empty()) {
    session.info("faults", mc.base.faults.to_string());
  }
  if (r.detection_packets) {
    session.metric("detection_packets",
                   static_cast<double>(*r.detection_packets));
  }
  if (!r.curve.empty()) {
    session.metric("final_fp", r.curve.back().fp);
    session.metric("final_fn", r.curve.back().fn);
  }
  if (!r.detection_samples.empty()) {
    session.metric("detection_packets_p50", r.detection_p50);
    session.metric("detection_packets_p90", r.detection_p90);
    session.metric("detection_packets_p99", r.detection_p99);
  }

  Table table({"packets", "false_positive", "false_negative"});
  for (const auto& pt : r.curve) {
    table.row()
        .integer(static_cast<long long>(pt.packets))
        .num(pt.fp, 4)
        .num(pt.fn, 4);
  }
  table.print(std::cout, has_flag(argc, argv, "--csv"));
  if (r.detection_packets) {
    std::printf("\nconverged at %llu packets\n",
                static_cast<unsigned long long>(*r.detection_packets));
  } else {
    std::printf("\nnot converged within budget\n");
  }
  if (!r.detection_samples.empty()) {
    std::printf("detection timeline over %zu/%zu runs: p50 %.0f  p90 %.0f  "
                "p99 %.0f packets\n",
                r.detection_samples.size(), r.runs, r.detection_p50,
                r.detection_p90, r.detection_p99);
  }
  return 0;
}

int cmd_explain(int argc, char** argv) {
  if (argc < 3 || argv[2][0] == '-') {
    throw CliError{"explain wants an event-log file: paai explain FILE"};
  }
  std::ifstream in(argv[2]);
  if (!in) throw CliError{std::string("cannot open '") + argv[2] + "'"};
  std::string error;
  const std::vector<obs::Event> events = obs::EventLog::read_jsonl(in, &error);
  if (events.empty()) {
    throw CliError{error.empty() ? std::string("empty event log") : error};
  }
  const obs::ForensicsReport report = obs::forensics_analyze(events);
  obs::write_audit_trail(std::cout, report);
  return report.convictions.empty() ? 1 : 0;
}

// ------------------------------------------------------------ serve/replay

volatile std::sig_atomic_t g_stop = 0;
void handle_sigint(int) { g_stop = 1; }

/// Builds the streaming engine for serve/replay: restored from
/// --state-in, pre-configured from --protocol/--d/--threshold/--blame, or
/// left blank to self-configure from the log's run-config prologue.
stream::ScoreEngine make_stream_engine(int argc, char** argv) {
  stream::ScoreEngine engine;
  if (const auto path = get_opt(argc, argv, "state-in")) {
    std::ifstream in(*path);
    if (!in) throw CliError{"cannot open state file '" + *path + "'"};
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    if (!stream::load_state(buf.str(), &engine, &error)) {
      throw CliError{"'" + *path + "': " + error};
    }
    std::fprintf(stderr,
                 "state: restored %s engine at %llu events (%llu applied)\n",
                 protocols::protocol_name(engine.config().protocol),
                 static_cast<unsigned long long>(engine.events_seen()),
                 static_cast<unsigned long long>(engine.events_applied()));
  } else if (const auto protocol = get_opt(argc, argv, "protocol")) {
    stream::EngineConfig cfg;
    cfg.protocol = parse_protocol(*protocol);
    cfg.num_links = std::stoul(get_opt(argc, argv, "d").value_or("6"));
    const double rho = std::stod(get_opt(argc, argv, "rho").value_or("0.01"));
    cfg.threshold = std::stod(
        get_opt(argc, argv, "threshold").value_or(std::to_string(rho + 0.008)));
    if (const auto blame = get_opt(argc, argv, "blame")) {
      cfg.blame = parse_blame_mode(*blame);
    }
    engine.configure(cfg);
  }
  return engine;
}

stream::ServeConfig serve_config_from_args(int argc, char** argv) {
  stream::ServeConfig cfg;
  cfg.snapshot_every =
      std::stoull(get_opt(argc, argv, "snapshot-every").value_or("0"));
  cfg.state_out = get_opt(argc, argv, "state-out").value_or("");
  cfg.fail_fast = !has_flag(argc, argv, "--skip-malformed");
  return cfg;
}

void print_serve_summary(const char* cmd, const stream::ServeReport& report,
                         const stream::ScoreEngine& engine,
                         bool skip_malformed = false) {
  std::fprintf(
      stderr,
      "%s: %zu lines, %llu events (%llu applied, %llu malformed), "
      "%llu snapshots%s\n",
      cmd, report.lines, static_cast<unsigned long long>(report.events),
      static_cast<unsigned long long>(report.applied),
      static_cast<unsigned long long>(report.parse_errors),
      static_cast<unsigned long long>(report.snapshots),
      report.interrupted ? " [drained on SIGINT]" : "");
  // Lag/throughput line — always, telemetry on or off.
  const double throughput =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.applied) / report.wall_seconds
          : 0.0;
  std::fprintf(stderr,
               "%s: %.0f events/s applied over %.2fs, peak lag %llu events, "
               "peak backlog %lld B\n",
               cmd, throughput, report.wall_seconds,
               static_cast<unsigned long long>(report.peak_lag_events),
               static_cast<long long>(report.peak_backlog_bytes));
  if (skip_malformed && report.parse_errors > 0 && !report.failed) {
    std::fprintf(stderr,
                 "%s: skipped %llu malformed lines (--skip-malformed)\n",
                 cmd, static_cast<unsigned long long>(report.parse_errors));
  }
  if (engine.configured()) {
    std::fprintf(stderr,
                 "%s: %s, %llu packets, %llu observations, e2e %.4f\n", cmd,
                 protocols::protocol_name(engine.config().protocol),
                 static_cast<unsigned long long>(engine.packets_sent()),
                 static_cast<unsigned long long>(engine.observations()),
                 engine.observed_e2e_rate());
  }
}

int cmd_serve(int argc, char** argv) {
  bench::BenchSession session("paai.serve", argc, argv);
  stream::ScoreEngine engine = make_stream_engine(argc, argv);
  const std::string in_path = get_opt(argc, argv, "in").value_or("-");
  std::ifstream file;
  std::istream* in = &std::cin;
  if (in_path != "-") {
    file.open(in_path);
    if (!file) throw CliError{"cannot open '" + in_path + "'"};
    in = &file;
  }
  stream::ServeConfig cfg = serve_config_from_args(argc, argv);
  cfg.telemetry = session.telemetry();
  if (in_path != "-") {
    // Back-pressure probe for file inputs: bytes written to the file but
    // not yet consumed. Re-stat every call so a tail-style producer that
    // keeps appending is seen growing.
    cfg.backlog_bytes = [&file, in_path]() -> std::int64_t {
      std::error_code ec;
      const auto size = std::filesystem::file_size(in_path, ec);
      if (ec) return 0;
      const auto pos = file.tellg();
      if (pos < 0) return 0;
      const auto consumed = static_cast<std::int64_t>(pos);
      const auto total = static_cast<std::int64_t>(size);
      return total > consumed ? total - consumed : 0;
    };
  }

  g_stop = 0;
  const auto previous = std::signal(SIGINT, handle_sigint);
  const stream::ServeReport report =
      stream::serve_stream(engine, *in, std::cout, cfg, &g_stop);
  std::signal(SIGINT, previous);

  session.metric("events", static_cast<double>(report.events));
  session.metric("events_applied", static_cast<double>(report.applied));
  session.metric("parse_errors", static_cast<double>(report.parse_errors));
  session.metric("snapshots", static_cast<double>(report.snapshots));
  session.metric("convictions",
                 static_cast<double>(report.new_convictions.size()));
  session.metric("peak_lag_events",
                 static_cast<double>(report.peak_lag_events));
  session.metric("peak_backlog_bytes",
                 static_cast<double>(report.peak_backlog_bytes));
  print_serve_summary("serve", report, engine, !cfg.fail_fast);
  if (report.failed) {
    std::fprintf(stderr, "error: %s\n", report.error.c_str());
    return 2;
  }
  return 0;
}

int cmd_replay(int argc, char** argv) {
  std::string path;
  if (argc >= 3 && argv[2][0] != '-') {
    path = argv[2];
  } else if (const auto opt = get_opt(argc, argv, "in")) {
    path = *opt;
  } else {
    throw CliError{"replay wants an event-log file: paai replay FILE"};
  }
  std::ifstream in(path);
  if (!in) throw CliError{"cannot open '" + path + "'"};

  bench::BenchSession session("paai.replay", argc, argv);
  stream::ScoreEngine engine = make_stream_engine(argc, argv);
  stream::ServeConfig cfg = serve_config_from_args(argc, argv);
  cfg.fail_fast = true;   // a recorded log must parse completely
  cfg.announce = false;   // the verdict table below is the output
  cfg.telemetry = session.telemetry();
  const stream::ServeReport report =
      stream::serve_stream(engine, in, std::cout, cfg, nullptr);
  print_serve_summary("replay", report, engine);
  if (report.failed) {
    std::fprintf(stderr, "error: %s\n", report.error.c_str());
    return 2;
  }
  if (!engine.configured()) {
    throw CliError{"log carries no run-config and no --protocol/--state-in "
                   "was given"};
  }

  const std::vector<double> thetas = engine.thetas();
  const std::vector<std::size_t> convicted = engine.convicted();
  Table table({"link", "estimated_theta", "verdict"});
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    const bool is_convicted =
        std::find(convicted.begin(), convicted.end(), i) != convicted.end();
    table.row()
        .cell("l_" + std::to_string(i))
        .num(thetas[i], 4)
        .cell(is_convicted ? "CONVICTED" : "");
  }
  table.print(std::cout, has_flag(argc, argv, "--csv"));

  if (has_flag(argc, argv, "--verify")) {
    if (!engine.run_ended()) {
      std::fprintf(stderr,
                   "verify: log has no run-end (partial log?) — nothing to "
                   "verify against\n");
      return 1;
    }
    // The batch run's final verdict: the conviction records stamped with
    // the run's total packet count (checkpoint records carry smaller
    // counts). Bit-identity means the same link set AND the same thetas.
    bool ok = true;
    const stream::ConvictionRecord* divergent = nullptr;
    const auto flag = [&](const stream::ConvictionRecord& rec) {
      if (divergent == nullptr) divergent = &rec;
      ok = false;
    };
    std::vector<std::size_t> expected;
    for (const stream::ConvictionRecord& rec : engine.recorded_convictions()) {
      if (rec.packets != engine.packets_sent()) continue;
      expected.push_back(rec.link);
      if (rec.link >= thetas.size() || thetas[rec.link] != rec.theta) {
        std::fprintf(stderr,
                     "verify: theta mismatch on l_%zu (batch %.17g, "
                     "stream %.17g)\n",
                     rec.link, rec.theta,
                     rec.link < thetas.size() ? thetas[rec.link] : 0.0);
        flag(rec);
      }
      if (rec.observations != engine.observations()) {
        std::fprintf(stderr,
                     "verify: observation count mismatch on l_%zu\n",
                     rec.link);
        flag(rec);
      }
    }
    std::sort(expected.begin(), expected.end());
    if (expected != convicted) {
      std::fprintf(stderr,
                   "verify: conviction set mismatch (batch %zu links, "
                   "stream %zu links)\n",
                   expected.size(), convicted.size());
      // Point at the first final-checkpoint record the stream's verdict
      // disagrees with (if the numeric checks above found none).
      if (divergent == nullptr) {
        for (const stream::ConvictionRecord& rec :
             engine.recorded_convictions()) {
          if (rec.packets != engine.packets_sent()) continue;
          if (!std::binary_search(convicted.begin(), convicted.end(),
                                  rec.link)) {
            divergent = &rec;
            break;
          }
        }
      }
      ok = false;
    }
    if (!ok) {
      if (divergent != nullptr) {
        std::fprintf(
            stderr,
            "verify: first divergent conviction record: l_%zu "
            "packets=%llu observations=%llu theta=%.17g (stream line "
            "%llu)\n",
            divergent->link,
            static_cast<unsigned long long>(divergent->packets),
            static_cast<unsigned long long>(divergent->observations),
            divergent->theta,
            static_cast<unsigned long long>(divergent->line));
      } else {
        // The stream convicted links the batch never recorded at the
        // final checkpoint — name them so the divergence is actionable.
        for (const std::size_t link : convicted) {
          if (!std::binary_search(expected.begin(), expected.end(), link)) {
            std::fprintf(stderr,
                         "verify: stream convicted l_%zu with no matching "
                         "batch record\n",
                         link);
          }
        }
      }
      return 1;
    }
    std::printf("\nverify: OK — stream verdict bit-identical to the batch "
                "run (%zu convicted)\n",
                convicted.size());
    return 0;
  }
  return convicted.empty() ? 1 : 0;
}

int cmd_mesh(int argc, char** argv) {
  bench::BenchSession session("paai.mesh", argc, argv);
  mesh::MeshConfig cfg;
  cfg.topo = mesh::Topology::parse(
      get_opt(argc, argv, "topo").value_or("fattree@8"));
  const auto n_paths =
      std::stoul(get_opt(argc, argv, "paths").value_or("10000"));
  const std::string engine = get_opt(argc, argv, "engine").value_or("stat");
  if (engine == "stat") {
    cfg.engine = mesh::MeshEngine::kStat;
  } else if (engine == "packet") {
    cfg.engine = mesh::MeshEngine::kPacket;
  } else {
    throw CliError{"--engine wants 'stat' or 'packet', got '" + engine +
                   "'"};
  }
  cfg.units_per_path =
      std::stoull(get_opt(argc, argv, "units").value_or("2000"));
  cfg.rounds = std::stoul(get_opt(argc, argv, "rounds").value_or("8"));
  cfg.natural_loss = std::stod(get_opt(argc, argv, "rho").value_or("0.01"));
  cfg.decision_threshold =
      std::stod(get_opt(argc, argv, "threshold").value_or("0.02"));
  cfg.seed0 = std::stoull(get_opt(argc, argv, "seed").value_or("9000"));
  cfg.jobs = std::stoul(get_opt(argc, argv, "jobs").value_or("0"));
  if (const auto blame = get_opt(argc, argv, "blame")) {
    cfg.blame = parse_blame_mode(*blame);
  }
  // Mesh-indexed plans: --fault takes MESH-LINK:RATE, --adversary /
  // --faults take the shared plan grammars with mesh node/link indices.
  for (const auto& f : get_all(argc, argv, "fault")) {
    const auto colon = f.find(':');
    if (colon == std::string::npos) {
      throw CliError{"--fault wants LINK:RATE, got '" + f + "'"};
    }
    cfg.link_faults.push_back(
        mesh::MeshLinkFault{std::stoul(f.substr(0, colon)),
                            std::stod(f.substr(colon + 1))});
  }
  for (const auto& a : get_all(argc, argv, "adversary")) {
    const std::string_view t = util::spec_trim(a);
    if (!t.empty() &&
        (t.find('@') != std::string_view::npos || t.front() == '[' ||
         t.front() == '{')) {
      const auto plan = adversary::AdversaryPlan::parse(a);
      cfg.adversaries.specs.insert(cfg.adversaries.specs.end(),
                                   plan.specs.begin(), plan.specs.end());
    } else {
      cfg.adversaries.specs.push_back(parse_legacy_adversary(a));
    }
  }
  if (const auto spec = get_opt(argc, argv, "faults")) {
    cfg.faults = faults::FaultPlan::parse(*spec);
  }
  cfg.telemetry = session.telemetry();
  if (cfg.engine == mesh::MeshEngine::kPacket) {
    cfg.packet_base = paper_config(
        parse_protocol(get_opt(argc, argv, "protocol").value_or("paai1")),
        std::stoull(get_opt(argc, argv, "packets").value_or("20000")), 0);
    cfg.packet_base.link_faults.clear();
    cfg.packet_base.path.natural_loss = cfg.natural_loss;
    cfg.packet_base.decision_threshold = cfg.decision_threshold;
  }
  cfg.paths = cfg.topo.enumerate_paths(n_paths, /*seed=*/7);

  std::fprintf(stderr,
               "mesh: %s — %zu paths x %llu units, engine=%s, jobs=%zu...\n",
               cfg.topo.to_string().c_str(), cfg.paths.size(),
               static_cast<unsigned long long>(cfg.units_per_path),
               engine.c_str(), cfg.jobs);
  const mesh::MeshResult r = mesh::run_mesh(cfg);

  Table table({"link", "edge", "paths", "units", "theta", "solo",
               "detect_units", "verdict"});
  for (std::size_t l = 0; l < r.links.size(); ++l) {
    const auto& row = r.links[l];
    if (!row.convicted && !row.malicious && row.blames == 0) continue;
    table.row()
        .cell("l_" + std::to_string(l))
        .cell(std::to_string(cfg.topo.link(l).from) + "->" +
              std::to_string(cfg.topo.link(l).to))
        .integer(static_cast<long long>(row.paths))
        .integer(static_cast<long long>(row.units))
        .num(row.theta, 4)
        .integer(static_cast<long long>(row.solo_convictions))
        .integer(static_cast<long long>(row.first_convicted_units))
        .cell(row.convicted ? (row.malicious ? "CONVICTED" : "FALSELY "
                                                             "CONVICTED")
                            : (row.malicious ? "missed" : ""));
  }
  table.print(std::cout, has_flag(argc, argv, "--csv"));

  // Conviction lines with provenance (the smoke legs grep these).
  for (const std::size_t l : r.convicted) {
    const auto& row = r.links[l];
    std::string witnesses;
    for (const std::uint32_t p : row.witnesses) {
      witnesses += (witnesses.empty() ? "p" : ",p") + std::to_string(p);
    }
    std::printf("CONVICTED l_%zu (%u->%u) [%s] theta=%.4f "
                "witnesses=%s\n",
                l, static_cast<unsigned>(cfg.topo.link(l).from),
                static_cast<unsigned>(cfg.topo.link(l).to),
                row.malicious ? "malicious" : "HONEST", row.theta,
                witnesses.c_str());
  }
  std::printf("\npaths: %zu   units: %llu   damage: %.4f   "
              "convicted: %zu/%zu malicious   false accusations: %zu\n",
              r.paths, static_cast<unsigned long long>(r.total_units),
              r.total_damage,
              r.malicious_links.size() - r.missed_malicious,
              r.malicious_links.size(), r.false_accusations);
  std::printf("score store: %zu B (+%zu B/worker shard) over %zu links\n",
              r.store_bytes, r.shard_bytes, cfg.topo.num_links());

  session.info("topology", cfg.topo.to_string());
  if (!cfg.adversaries.empty()) {
    session.info("adversary", cfg.adversaries.to_string());
  }
  if (!cfg.faults.empty()) session.info("faults", cfg.faults.to_string());
  session.metric("mesh.links", static_cast<double>(cfg.topo.num_links()));
  session.metric("mesh.paths", static_cast<double>(r.paths));
  session.metric("mesh.convicted", static_cast<double>(r.convicted.size()));
  session.metric("mesh.false_accusations",
                 static_cast<double>(r.false_accusations));
  session.metric("mesh.missed_malicious",
                 static_cast<double>(r.missed_malicious));
  session.metric("mesh.total_damage", r.total_damage);
  session.metric("mesh.detection_units_p50", r.detection_units_p50);
  session.metric("mesh.store_bytes", static_cast<double>(r.store_bytes));
  session.exec(r.exec);

  if (r.false_accusations != 0) return 1;
  return r.missed_malicious == 0 ? 0 : 1;
}

// ------------------------------------------------------------ top

/// One refresh worth of telemetry state: every complete, well-formed line
/// of the file. A torn tail (writer mid-line) is expected and skipped; a
/// malformed *complete* line is reported once per frame.
struct TopData {
  std::vector<obs::TelemetrySample> samples;
  std::size_t bad_lines = 0;
  std::string first_error;
};

TopData read_telemetry_file(const std::string& path) {
  TopData data;
  std::ifstream in(path);
  if (!in) return data;
  std::string line;
  while (std::getline(in, line)) {
    if (in.eof() && !line.empty()) break;  // torn tail: no newline yet
    if (line.empty()) continue;
    obs::TelemetrySample sample;
    std::string error;
    if (obs::parse_telemetry_line(line, &sample, &error)) {
      data.samples.push_back(std::move(sample));
    } else {
      ++data.bad_lines;
      if (data.first_error.empty()) data.first_error = error;
    }
  }
  return data;
}

void render_top_frame(const std::string& path, const TopData& data) {
  if (data.samples.empty()) {
    std::printf("paai top — %s: no samples yet\n", path.c_str());
    return;
  }
  const obs::TelemetrySample& last = data.samples.back();
  const obs::TelemetrySample* prev =
      data.samples.size() >= 2 ? &data.samples[data.samples.size() - 2]
                               : nullptr;
  std::printf("paai top — %s   sample %llu   (%zu samples%s)\n",
              path.c_str(), static_cast<unsigned long long>(last.sample),
              data.samples.size(),
              data.bad_lines > 0 ? ", MALFORMED LINES PRESENT" : "");
  const double wall_s = static_cast<double>(last.wall_ns) / 1e9;
  std::printf("units %llu   wall %.2fs   virt %.3fs\n",
              static_cast<unsigned long long>(last.units), wall_s,
              static_cast<double>(last.virt_ns) / 1e9);
  // Rates: mean over the whole stream plus the last inter-sample interval.
  if (wall_s > 0.0) {
    std::printf("rate: %.0f units/s mean",
                static_cast<double>(last.units) / wall_s);
    if (prev != nullptr && last.wall_ns > prev->wall_ns) {
      const double dt =
          static_cast<double>(last.wall_ns - prev->wall_ns) / 1e9;
      const double du = static_cast<double>(last.units - prev->units);
      std::printf("   %.0f units/s last interval", du / dt);
    }
    std::printf("\n");
  }
  if (!last.gauges.empty()) {
    std::printf("\n%-32s %14s %14s\n", "gauge", "value", "high");
    for (const obs::GaugeSnapshot& g : last.gauges) {
      std::printf("%-32s %14lld %14lld\n", g.name.c_str(),
                  static_cast<long long>(g.value),
                  static_cast<long long>(g.high));
    }
  }
  if (!last.queues.empty()) {
    std::printf("\n%-32s %14s\n", "queue", "peak depth");
    for (const auto& [name, high] : last.queues) {
      std::printf("%-32s %14llu\n", name.c_str(),
                  static_cast<unsigned long long>(high));
    }
  }
  // Phase breakdown aggregated over ALL samples (each line carries
  // deltas); inclusive times — nested scopes (crypto inside sim-loop)
  // overlap, so no percent column.
  std::array<obs::PhaseDelta, obs::kPhaseCount> totals{};
  for (const obs::TelemetrySample& s : data.samples) {
    for (const auto& [name, delta] : s.phases) {
      for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
        if (name == obs::phase_name(static_cast<obs::Phase>(p))) {
          totals[p].ns += delta.ns;
          totals[p].calls += delta.calls;
          totals[p].alloc_bytes += delta.alloc_bytes;
        }
      }
    }
  }
  bool any_phase = false;
  for (const auto& t : totals) any_phase |= t.calls > 0 || t.ns > 0;
  if (any_phase) {
    std::printf("\n%-16s %12s %14s %14s\n", "phase", "calls", "time (ms)",
                "alloc (B)");
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      if (totals[p].calls == 0 && totals[p].ns == 0) continue;
      std::printf("%-16s %12llu %14.2f %14llu\n",
                  obs::phase_name(static_cast<obs::Phase>(p)),
                  static_cast<unsigned long long>(totals[p].calls),
                  static_cast<double>(totals[p].ns) / 1e6,
                  static_cast<unsigned long long>(totals[p].alloc_bytes));
    }
  }
  if (!last.counters.empty()) {
    std::printf("\n%-32s %14s\n", "counter (last delta)", "delta");
    for (const auto& [name, delta] : last.counters) {
      std::printf("%-32s %14llu\n", name.c_str(),
                  static_cast<unsigned long long>(delta));
    }
  }
  if (data.bad_lines > 0) {
    std::printf("\n%zu malformed lines; first: %s\n", data.bad_lines,
                data.first_error.c_str());
  }
}

int cmd_top(int argc, char** argv) {
  std::string path;
  if (argc >= 3 && argv[2][0] != '-') {
    path = argv[2];
  } else if (const auto opt = get_opt(argc, argv, "in")) {
    path = *opt;
  } else {
    throw CliError{"top wants a telemetry file: paai top FILE [--once]"};
  }
  const bool once = has_flag(argc, argv, "--once");
  const long interval_ms =
      std::stol(get_opt(argc, argv, "interval-ms").value_or("1000"));

  if (once) {
    const TopData data = read_telemetry_file(path);
    render_top_frame(path, data);
    return data.samples.empty() ? 1 : 0;
  }

  g_stop = 0;
  const auto previous = std::signal(SIGINT, handle_sigint);
  std::uint64_t rendered = 0;
  while (g_stop == 0) {
    const TopData data = read_telemetry_file(path);
    // ANSI clear + home; falls back to plain scrolling on dumb terminals.
    std::printf("\x1b[2J\x1b[H");
    render_top_frame(path, data);
    std::fflush(stdout);
    rendered = data.samples.size();
    std::this_thread::sleep_for(std::chrono::milliseconds(
        interval_ms > 0 ? interval_ms : 1000));
  }
  std::signal(SIGINT, previous);
  std::printf("\n");
  return rendered > 0 ? 0 : 1;
}

int cmd_bounds(int argc, char** argv) {
  analysis::Params p;
  p.d = std::stoul(get_opt(argc, argv, "d").value_or("6"));
  p.rho = std::stod(get_opt(argc, argv, "rho").value_or("0.01"));
  p.alpha = std::stod(get_opt(argc, argv, "alpha").value_or("0.03"));
  p.sigma = std::stod(get_opt(argc, argv, "sigma").value_or("0.03"));
  p.p = std::stod(get_opt(argc, argv, "p").value_or(
      std::to_string(1.0 / 36.0)));

  Table table({"protocol", "detection_pkts", "comm_ctrl/data",
               "storage_worst_r0nu"});
  table.row().cell("full-ack").num(analysis::tau_fullack(p), 4)
      .num(analysis::comm_fullack(p), 3)
      .num(analysis::storage_fullack(p).worst, 3);
  table.row().cell("PAAI-1").num(analysis::tau_paai1(p), 4)
      .num(analysis::comm_paai1(p), 3)
      .num(analysis::storage_paai1(p).worst, 3);
  table.row().cell("PAAI-2").num(analysis::tau_paai2(p), 4)
      .num(analysis::comm_paai2(p), 3)
      .num(analysis::storage_paai2(p).worst, 3);
  table.row().cell("statistical-FL").num(analysis::tau_statfl(p), 4)
      .num(analysis::comm_statfl(p), 3)
      .num(analysis::storage_statfl(p).worst, 3);
  table.print(std::cout, has_flag(argc, argv, "--csv"));
  return 0;
}

void usage() {
  std::printf(
      "usage: paai <run|curve|bounds> [--protocol=paai1] [--d=6] "
      "[--rho=0.01]\n"
      "            [--packets=N] [--rate=100] [--p=X] [--threshold=X]\n"
      "            [--fault=LINK:RATE]... [--adversary=SPEC]...\n"
      "            [--faults=SPEC] [--runs=N] [--jobs=N] [--seed=N] "
      "[--csv]\n"
      "            [--metrics-out=FILE] [--trace-out=FILE]\n"
      "            [--telemetry-out=FILE] [--telemetry-every=N]\n"
      "            [--events-out=FILE] [--events-cap=N] [--blame=MODE]\n"
      "       paai mesh   [--topo=SPEC] [--paths=N] [--engine=stat|packet]\n"
      "                   [--units=N] [--rounds=N] [--rho=X] "
      "[--threshold=X]\n"
      "                   [--fault=MESHLINK:RATE]... [--adversary=SPEC]...\n"
      "                   [--faults=SPEC] [--blame=MODE] [--seed=N]\n"
      "                   [--jobs=N] [--csv]\n"
      "                            many paths over one shared topology;\n"
      "                            convicts from cross-path evidence\n"
      "                            (topology grammar in docs/MESH.md)\n"
      "       paai explain FILE    audit trail from an --events-out log\n"
      "       paai serve  [--in=PATH|-] [--state-in=F] [--state-out=F]\n"
      "                   [--snapshot-every=N] [--skip-malformed]\n"
      "                            online scoring over a JSONL stream\n"
      "       paai replay FILE [--verify] [--state-in/--state-out]\n"
      "                            stream engine over a recorded log;\n"
      "                            --verify asserts batch bit-identity\n"
      "       paai top FILE [--once] [--interval-ms=N]\n"
      "                            live dashboard over a paai.telemetry.v1\n"
      "                            JSONL file (--telemetry-out of any\n"
      "                            command); --once prints one frame\n"
      "see tools/paai_cli.cc header for details and examples; the fault\n"
      "plan grammar is documented in docs/FAULTS.md, the adversary plan\n"
      "grammar (adaptive strategies included) in docs/ADVERSARIES.md, the\n"
      "--blame conviction-rule grammar "
      "(margin|persistent:K|windowed:W|hybrid:K,W)\n"
      "in docs/DETECTORS.md, the forensic event log in "
      "docs/OBSERVABILITY.md\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "run") return cmd_run(argc, argv);
    if (cmd == "curve") return cmd_curve(argc, argv);
    if (cmd == "bounds") return cmd_bounds(argc, argv);
    if (cmd == "mesh") return cmd_mesh(argc, argv);
    if (cmd == "explain") return cmd_explain(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "replay") return cmd_replay(argc, argv);
    if (cmd == "top") return cmd_top(argc, argv);
  } catch (const CliError& e) {
    std::fprintf(stderr, "error: %s\n", e.message.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage();
  return 2;
}
