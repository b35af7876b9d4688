// paai — command-line driver for the library. Commands, options and
// examples are documented once, in kUsage below (`paai` with no arguments
// prints it).
//
// Argv has one front end. The flags every bench also takes (--runs,
// --jobs, --csv, --adversary, --faults, the observability outputs) are
// read by BenchArgs (bench/bench_common.h); the commands' own flags are
// listed in kCliFlags and read here through the same helpers (flag_str/
// flag_all/count_flag/real_flag in util/csv.h). An unknown flag or a
// malformed value exits 2 with a message naming the flag.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "analysis/bounds.h"
#include "bench/bench_common.h"
#include "mesh/runner.h"
#include "util/specgrammar.h"
#include "obs/events.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "runner/montecarlo.h"
#include "runner/producer.h"
#include "stream/engine.h"
#include "stream/explain.h"
#include "stream/service.h"
#include "stream/state.h"
#include "util/csv.h"

using namespace paai;
using namespace paai::runner;

namespace {

constexpr const char kUsage[] =
    R"(usage: paai COMMAND [options]   (value flags: --name=V or --name V)
  run            one experiment, per-link verdict (exit 1: none convicted)
  curve          Monte-Carlo FP/FN curve over packet counts
  bounds         section-7 closed forms from --d --rho --p --alpha --sigma
  mesh           many paths on one topology; links convicted from the
                 cross-path evidence, printed with witness paths
  explain FILE   conviction audit trail of an --events-out log, replayed
                 through the stream engine (exit 2 on a log that does
                 not parse or lost its run-config)
  serve          online scoring of a JSONL event stream: convictions as
                 they happen, periodic snapshots, graceful drain on SIGINT
  replay FILE    a recorded event log through the stream engine
  top FILE       live dashboard over a paai.telemetry.v3 file
detector (serve/replay: --protocol preconfigures the engine from these):
  --protocol=NAME  fullack|paai1|paai2|comb1|comb2|statfl|sigack (paai1)
  --d=N (6)  --rho=X (0.01)  --threshold=X (rho+0.008; mesh 0.02)
  --blame=MODE     margin|persistent[:K]|windowed[:W]|hybrid[:K[,W]]
                   (docs/DETECTORS.md; mesh windows are its rounds)
experiment (run, curve):
  --packets=N (60000)  --rate=X pkt/s (100)  --p=X probe prob. (1/36)
  --seed=N (1; mesh 9000)  --fault=LINK:RATE malicious loss, repeatable
  --adversary=SPEC   plan grammar (docs/ADVERSARIES.md), repeatable,
                     merged into one plan
  --faults=SPEC      scripted benign faults (docs/FAULTS.md)
  --events-out=F     forensic JSONL event log (curve: run 0)
  --events-cap=N     per-node event-ring capacity (also the --trace-out
                     log's); default drop-free, 16 x --packets. Rings
                     grow with what the run records: at 60000 packets a
                     log costs ~75-170 MiB of peak RSS (14 without one)
  --alpha=X --sigma=X  (bounds) detection parameters (0.03)
mesh (docs/MESH.md): --topo=SPEC (fattree@8) --paths=N (10000)
  --units=N (2000) --rounds=N (8) --engine=stat|packet (packet: per-path
  --protocol and --packets, 20000)
serve/replay: --in=PATH (serve's input; '-' = stdin, the default)
  --state-in=F  --state-out=F --snapshot-every=N (snapshots every N
  applied events and on exit; 0 = exit only)  --skip-malformed (serve:
  skip bad lines)
  --verify (replay: exit 1 unless bit-identical to the batch verdict)
top: --once (one frame; exit 2 on a malformed file)  --interval-ms=N (1000)
shared with every bench (bench/bench_common.h): --runs=N (curve 50)
  --jobs=N (0 = all cores; results identical)  --csv
  --metrics-out=F (paai.bench.v1)  --trace-out=F (Chrome trace of the
  event log, run 0)
  --telemetry-out=F (paai.telemetry.v3, docs/OBSERVABILITY.md)
  --telemetry-every=N (10000 work units: packets, runs, events)
examples:
  paai run --protocol=fullack --adversary='corrupt@3:rate=0.3' --packets=5000
  paai run --adversary='collude@4:rate=0.5' \
           --faults='ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15'
  paai curve --protocol=paai2 --packets=400000 --runs=20 --fault=4:0.02
  paai run --packets=20000 --events-out=run.jsonl   # then:
  paai replay run.jsonl --verify
  paai serve --in=events.pipe --state-out=paai.state --snapshot-every=1000
)";

/// Every flag a command reads besides the BenchArgs ones; check_flags()
/// rejects any other.
constexpr std::string_view kCliFlags[] = {
    "--protocol", "--d", "--rho", "--threshold", "--blame", "--packets",
    "--rate", "--p", "--seed", "--fault", "--events-out", "--events-cap",
    "--alpha", "--sigma", "--topo", "--paths", "--units", "--rounds",
    "--engine", "--in", "--state-in", "--state-out", "--snapshot-every",
    "--skip-malformed", "--verify", "--once", "--interval-ms"};

struct CliError {
  std::string message;
};

void check_flags(int argc, char** argv) {
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const std::string_view name = arg.substr(0, arg.find('='));
    if (!bench::BenchArgs::shared_flag(arg) &&
        std::find(std::begin(kCliFlags), std::end(kCliFlags), name) ==
            std::end(kCliFlags)) {
      throw CliError{"unknown flag '" + std::string(name) + "'"};
    }
  }
}

protocols::ProtocolKind parse_protocol(const std::string& name) {
  if (name == "fullack") return protocols::ProtocolKind::kFullAck;
  if (name == "paai1") return protocols::ProtocolKind::kPaai1;
  if (name == "paai2") return protocols::ProtocolKind::kPaai2;
  if (name == "comb1") return protocols::ProtocolKind::kCombination1;
  if (name == "comb2") return protocols::ProtocolKind::kCombination2;
  if (name == "statfl") return protocols::ProtocolKind::kStatisticalFl;
  if (name == "sigack") return protocols::ProtocolKind::kSigAck;
  throw CliError{"unknown protocol '" + name + "'"};
}

/// --protocol/--d/--rho/--threshold/--blame, read once for every command.
/// An unset --protocol stays unset: each command has its own default.
struct DetectorArgs {
  std::optional<protocols::ProtocolKind> protocol;
  std::size_t d = 6;
  double rho = 0.01;
  double threshold = 0.0;
  protocols::BlameSpec blame;
};

/// An unset --threshold is `threshold_default`, else the single-path
/// default: rho + 0.008 rounded to six decimals by std::to_string, the
/// value every pinned single-path output was produced with.
DetectorArgs read_detector(int argc, char** argv,
                           std::optional<double> threshold_default = {}) {
  DetectorArgs det;
  if (const auto name = flag_str(argc, argv, "--protocol")) {
    det.protocol = parse_protocol(*name);
  }
  det.d = count_flag(argc, argv, "--d", det.d);
  det.rho = real_flag(argc, argv, "--rho", det.rho);
  det.threshold = real_flag(
      argc, argv, "--threshold",
      threshold_default.value_or(util::spec_parse_double(
          std::to_string(det.rho + 0.008), "value", "--threshold")));
  if (const auto mode = flag_str(argc, argv, "--blame")) {
    try {
      det.blame = protocols::BlameSpec::parse(*mode);
    } catch (const std::invalid_argument& e) {
      throw CliError{std::string("--blame: ") + e.what()};
    }
  }
  return det;
}

/// --fault=LINK:RATE (repeatable), for run/curve path links and mesh
/// topology links alike.
std::vector<LinkFault> read_link_faults(int argc, char** argv) {
  std::vector<LinkFault> faults;
  for (const std::string& f : flag_all(argc, argv, "--fault")) {
    const auto colon = f.find(':');
    if (colon == std::string::npos) {
      throw CliError{"--fault wants LINK:RATE, got '" + f + "'"};
    }
    const std::string_view text = f;
    faults.push_back(LinkFault{
        util::spec_parse_index(text.substr(0, colon), "link", "--fault"),
        util::spec_parse_double(text.substr(colon + 1), "rate", "--fault")});
  }
  return faults;
}

/// The --p default: 1/36 rounded to six decimals, like the default
/// threshold.
constexpr double kDefaultProbeProbability = 0.027778;

ExperimentConfig config_from_args(int argc, char** argv,
                                  const bench::BenchArgs& args) {
  const DetectorArgs det = read_detector(argc, argv);
  ExperimentConfig cfg;
  cfg.protocol = det.protocol.value_or(protocols::ProtocolKind::kPaai1);
  cfg.path.length = det.d;
  cfg.path.natural_loss = det.rho;
  cfg.path.max_latency_ms = 5.0;
  cfg.path.seed = count_flag(argc, argv, "--seed", 1);
  cfg.params.total_packets = count_flag(argc, argv, "--packets", 60000);
  cfg.params.send_rate_pps = real_flag(argc, argv, "--rate", 100.0);
  cfg.params.probe_probability =
      real_flag(argc, argv, "--p", kDefaultProbeProbability);
  cfg.params.blame = det.blame;
  cfg.decision_threshold = det.threshold;
  cfg.link_faults = read_link_faults(argc, argv);
  cfg.adversaries = args.adversaries.specs;
  cfg.faults = args.faults;
  return cfg;
}

/// The per-link verdict table of run and replay; `true_loss` adds run's
/// ground-truth column.
void print_verdicts(const std::vector<double>& thetas,
                    const std::vector<std::size_t>& convicted,
                    const std::vector<double>* true_loss, bool csv) {
  Table table(true_loss != nullptr
                  ? std::vector<std::string>{"link", "estimated_theta",
                                             "true_loss", "verdict"}
                  : std::vector<std::string>{"link", "estimated_theta",
                                             "verdict"});
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    Table& row = table.row().cell("l_" + std::to_string(i)).num(thetas[i], 4);
    if (true_loss != nullptr) {
      row.num(i < true_loss->size() ? (*true_loss)[i] : 0.0, 4);
    }
    row.cell(std::find(convicted.begin(), convicted.end(), i) !=
                     convicted.end()
                 ? "CONVICTED"
                 : "");
  }
  table.print(std::cout, csv);
}

/// The FILE operand of explain, replay and top: argv[2], never a flag.
std::string file_operand(int argc, char** argv, const char* usage) {
  if (argc < 3 || argv[2][0] == '-') throw CliError{usage};
  return argv[2];
}

/// The session's event log for a run of `packets` packets (curve: run 0),
/// sized by --events-cap, else drop-free: --events-out and --trace-out
/// render the same log. nullptr when neither flag is given.
obs::EventLog* take_event_log(int argc, char** argv,
                              bench::BenchSession& session,
                              std::uint64_t packets) {
  return session.take_events(
      count_flag(argc, argv, "--events-cap", drop_free_events_cap(packets)),
      flag_str(argc, argv, "--events-out").has_value());
}

void write_event_log(int argc, char** argv, const obs::EventLog& log) {
  const auto path = flag_str(argc, argv, "--events-out");
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
  ExperimentConfig cfg = config_from_args(argc, argv, session.args);
  cfg.telemetry = session.telemetry();
  cfg.path.events =
      take_event_log(argc, argv, session, cfg.params.total_packets);
  std::fprintf(stderr, "running %s on a %zu-hop path, %llu packets...\n",
               protocols::protocol_name(cfg.protocol), cfg.path.length,
               static_cast<unsigned long long>(cfg.params.total_packets));
  const ExperimentResult r = run_experiment(cfg);
  if (cfg.path.events) write_event_log(argc, argv, *cfg.path.events);
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

  print_verdicts(r.final_thetas, r.final_convicted, &r.true_link_loss,
                 session.args.csv);
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
  mc.base = config_from_args(argc, argv, session.args);
  mc.telemetry = session.telemetry();
  mc.events =
      take_event_log(argc, argv, session, mc.base.params.total_packets);
  mc.runs = session.args.runs_or(50);
  mc.jobs = session.args.jobs;
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
  if (mc.events) write_event_log(argc, argv, *mc.events);
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
  table.print(std::cout, session.args.csv);
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
  const std::string path = file_operand(
      argc, argv, "explain wants an event-log file: paai explain FILE");
  std::ifstream in(path);
  if (!in) throw CliError{"cannot open '" + path + "'"};
  stream::AuditTrail trail;
  std::string error;
  if (!stream::read_audit_trail(in, trail, &error)) {
    throw CliError{path + ": " + error};
  }
  trail.write(std::cout);
  return trail.engine().verdict().empty() ? 1 : 0;
}

// ------------------------------------------------------------ serve/replay

volatile std::sig_atomic_t g_stop = 0;
void handle_sigint(int) { g_stop = 1; }

/// Builds the streaming engine for serve/replay: restored from
/// --state-in, pre-configured from --protocol/--d/--threshold/--blame, or
/// left blank to self-configure from the log's run-config prologue.
stream::ScoreEngine make_stream_engine(int argc, char** argv) {
  stream::ScoreEngine engine;
  const DetectorArgs det = read_detector(argc, argv);
  if (const auto path = flag_str(argc, argv, "--state-in")) {
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
  } else if (det.protocol) {
    stream::EngineConfig cfg;
    cfg.protocol = *det.protocol;
    cfg.num_links = det.d;
    cfg.threshold = det.threshold;
    cfg.blame = det.blame;
    engine.configure(cfg);
  }
  return engine;
}

stream::ServeConfig serve_config_from_args(int argc, char** argv,
                                           bench::BenchSession& session) {
  stream::ServeConfig cfg;
  cfg.telemetry = session.telemetry();
  cfg.snapshot_every = count_flag(argc, argv, "--snapshot-every", 0);
  cfg.state_out = flag_str(argc, argv, "--state-out").value_or("");
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
  // Throughput/back-pressure line — always, telemetry on or off.
  const double throughput =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.applied) / report.wall_seconds
          : 0.0;
  std::fprintf(stderr,
               "%s: %.0f events/s applied over %.2fs, peak backlog %lld B\n",
               cmd, throughput, report.wall_seconds,
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
  const std::string in_path = flag_str(argc, argv, "--in").value_or("-");
  std::ifstream file;
  std::istream* in = &std::cin;
  if (in_path != "-") {
    file.open(in_path);
    if (!file) throw CliError{"cannot open '" + in_path + "'"};
    in = &file;
  }
  stream::ServeConfig cfg = serve_config_from_args(argc, argv, session);
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
  const std::string path = file_operand(
      argc, argv, "replay wants an event-log file: paai replay FILE");
  std::ifstream in(path);
  if (!in) throw CliError{"cannot open '" + path + "'"};

  bench::BenchSession session("paai.replay", argc, argv);
  stream::ScoreEngine engine = make_stream_engine(argc, argv);
  stream::ServeConfig cfg = serve_config_from_args(argc, argv, session);
  cfg.fail_fast = true;   // a recorded log must parse completely
  cfg.announce = false;   // the verdict table below is the output
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
  print_verdicts(thetas, convicted, nullptr, session.args.csv);

  if (has_flag(argc, argv, "--verify")) {
    if (!engine.run_ended()) {
      std::fprintf(stderr,
                   "verify: log has no run-end (partial log?) — nothing to "
                   "verify against\n");
      return 1;
    }
    // Bit-identity with the batch run's final verdict means the same
    // link set AND the same thetas.
    const std::vector<stream::ConvictionRecord> verdict = engine.verdict();
    bool ok = true;
    const stream::ConvictionRecord* divergent = nullptr;
    // First final-checkpoint record the stream's verdict lacks.
    const stream::ConvictionRecord* unmatched = nullptr;
    const auto flag = [&](const stream::ConvictionRecord& rec) {
      if (divergent == nullptr) divergent = &rec;
      ok = false;
    };
    std::vector<std::size_t> expected;
    for (const stream::ConvictionRecord& rec : verdict) {
      expected.push_back(rec.link);
      if (unmatched == nullptr &&
          !std::binary_search(convicted.begin(), convicted.end(), rec.link)) {
        unmatched = &rec;
      }
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
    if (expected != convicted) {
      std::fprintf(stderr,
                   "verify: conviction set mismatch (batch %zu links, "
                   "stream %zu links)\n",
                   expected.size(), convicted.size());
      // Point at the first final-checkpoint record the stream's verdict
      // disagrees with (if the numeric checks above found none).
      if (divergent == nullptr) divergent = unmatched;
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
  const DetectorArgs det = read_detector(argc, argv, 0.02);
  try {
    cfg.topo = mesh::Topology::parse(
        flag_str(argc, argv, "--topo").value_or("fattree@8"));
  } catch (const std::invalid_argument& e) {
    throw CliError{std::string("--topo: ") + e.what()};
  }
  const auto n_paths = count_flag(argc, argv, "--paths", 10000);
  const std::string engine =
      flag_str(argc, argv, "--engine").value_or("stat");
  if (engine == "stat") {
    cfg.engine = mesh::MeshEngine::kStat;
  } else if (engine == "packet") {
    cfg.engine = mesh::MeshEngine::kPacket;
  } else {
    throw CliError{"--engine wants 'stat' or 'packet', got '" + engine +
                   "'"};
  }
  cfg.units_per_path = count_flag(argc, argv, "--units", 2000);
  cfg.rounds = count_flag(argc, argv, "--rounds", 8);
  cfg.natural_loss = det.rho;
  cfg.decision_threshold = det.threshold;
  cfg.seed0 = count_flag(argc, argv, "--seed", 9000);
  cfg.jobs = session.args.jobs;
  cfg.blame = det.blame;
  // Mesh-indexed plans: --fault takes MESH-LINK:RATE, --adversary /
  // --faults take the shared plan grammars with mesh node/link indices.
  for (const LinkFault& f : read_link_faults(argc, argv)) {
    cfg.link_faults.push_back(mesh::MeshLinkFault{f.link, f.extra_loss});
  }
  cfg.adversaries = session.args.adversaries;
  cfg.faults = session.args.faults;
  cfg.telemetry = session.telemetry();
  if (cfg.engine == mesh::MeshEngine::kPacket) {
    cfg.packet_base = paper_config(
        det.protocol.value_or(protocols::ProtocolKind::kPaai1),
        count_flag(argc, argv, "--packets", 20000), 0);
    cfg.packet_base.link_faults.clear();
    cfg.packet_base.path.natural_loss = cfg.natural_loss;
    cfg.packet_base.decision_threshold = cfg.decision_threshold;
  }
  cfg.paths = cfg.topo.enumerate_paths(n_paths, /*seed=*/7);

  // The packet engine sends --packets data packets down each path and
  // ignores --units.
  const bool packet = cfg.engine == mesh::MeshEngine::kPacket;
  std::fprintf(stderr,
               "mesh: %s — %zu paths x %llu %s, engine=%s, jobs=%zu...\n",
               cfg.topo.to_string().c_str(), cfg.paths.size(),
               static_cast<unsigned long long>(
                   packet ? cfg.packet_base.params.total_packets
                          : cfg.units_per_path),
               packet ? "packets" : "units", engine.c_str(), cfg.jobs);
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
  table.print(std::cout, session.args.csv);

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

/// One refresh worth of telemetry state; a missing file reads as empty.
obs::TelemetryLog read_telemetry_file(const std::string& path) {
  std::ifstream in(path);
  return in ? obs::read_telemetry(in) : obs::TelemetryLog{};
}

void render_top_frame(const std::string& path, const obs::TelemetryLog& data) {
  if (data.samples.empty()) {
    std::printf("paai top — %s: no samples yet\n", path.c_str());
    return;
  }
  const obs::TelemetrySample& last = data.samples.back();
  // The last interval ends at the latest earlier sample whose units
  // differ: a producer's exit sample repeats its last tick's running
  // total, and rating against that tick would always read 0.
  const obs::TelemetrySample* prev = nullptr;
  for (auto it = data.samples.rbegin() + 1; it != data.samples.rend(); ++it) {
    if (it->units != last.units) {
      prev = &*it;
      break;
    }
  }
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
  // Phase breakdown: the phase.* counter deltas aggregated over ALL
  // samples. Phase times are exclusive self time, so they add up: share
  // is each phase's part of the summed time, and on one thread the sum
  // approaches the wall clock.
  const auto totals = obs::sum_phases(data.samples);
  std::uint64_t sum_ns = 0;
  for (const auto& t : totals) sum_ns += t.ns;
  if (sum_ns > 0) {
    std::printf("\n%-16s %12s %14s %7s\n", "phase", "calls", "time (ms)",
                "share");
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      if (totals[p].calls == 0 && totals[p].ns == 0) continue;
      std::printf("%-16s %12llu %14.2f %6.1f%%\n",
                  obs::phase_name(static_cast<obs::Phase>(p)),
                  static_cast<unsigned long long>(totals[p].calls),
                  static_cast<double>(totals[p].ns) / 1e6,
                  100.0 * static_cast<double>(totals[p].ns) /
                      static_cast<double>(sum_ns));
    }
    std::printf("%-16s %12s %14.2f %6.1f%% of wall\n", "sum", "",
                static_cast<double>(sum_ns) / 1e6,
                last.wall_ns > 0 ? 100.0 * static_cast<double>(sum_ns) /
                                       static_cast<double>(last.wall_ns)
                                 : 0.0);
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

/// --once is the strict offline check of a finished file (a telemetry
/// file is a schema, not a best-effort log): exit 2 on a malformed line,
/// a non-monotone sample index or a torn last line, 1 on zero samples
/// (a missing file reads as empty).
/// Live mode tolerates a torn tail and flags bad lines in the banner.
int cmd_top(int argc, char** argv) {
  const std::string path = file_operand(
      argc, argv, "top wants a telemetry file: paai top FILE [--once]");
  const bool once = has_flag(argc, argv, "--once");
  const std::uint64_t interval_ms =
      count_flag(argc, argv, "--interval-ms", 1000);

  g_stop = 0;
  const auto previous = std::signal(SIGINT, handle_sigint);
  obs::TelemetryLog data;
  for (;;) {
    data = read_telemetry_file(path);
    // ANSI clear + home; falls back to plain scrolling on dumb terminals.
    if (!once) std::printf("\x1b[2J\x1b[H");
    render_top_frame(path, data);
    if (once || g_stop != 0) break;
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(
        interval_ms > 0 ? interval_ms : 1000));
  }
  std::signal(SIGINT, previous);
  if (!once) std::printf("\n");
  const std::string& error =
      data.first_error.empty() ? data.torn_tail : data.first_error;
  if (once && !error.empty()) throw CliError{path + ": " + error};
  return data.samples.empty() ? 1 : 0;
}

int cmd_bounds(int argc, char** argv) {
  analysis::Params p;
  const DetectorArgs det = read_detector(argc, argv);
  p.d = det.d;
  p.rho = det.rho;
  p.alpha = real_flag(argc, argv, "--alpha", 0.03);
  p.sigma = real_flag(argc, argv, "--sigma", 0.03);
  p.p = real_flag(argc, argv, "--p", kDefaultProbeProbability);

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

void usage() { std::fputs(kUsage, stdout); }

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    check_flags(argc, argv);
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
