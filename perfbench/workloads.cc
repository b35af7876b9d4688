// The four end-to-end workloads. Each builds its fixtures in setup(),
// runs identical timed rounds through the program's public entry points,
// digests every verdict, and re-checks its invariants in verify().
#include <cstdio>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "mesh/runner.h"
#include "runner/montecarlo.h"
#include "runner/producer.h"
#include "stream/engine.h"
#include "stream/service.h"
#include "stream/state.h"

namespace perfbench {

namespace {

namespace protocols = paai::protocols;
namespace runner = paai::runner;
namespace stream = paai::stream;
namespace mesh = paai::mesh;
using protocols::ProtocolKind;

// ----------------------------------------------------------- Monte-Carlo

struct McSpec {
  ProtocolKind kind;
  const char* name;
  std::uint64_t packets;
  std::size_t runs;
};

std::string mc_digest(const runner::MonteCarloResult& mc) {
  std::string t;
  for (const auto& pt : mc.curve) {
    t += std::to_string(pt.packets) + ":";
    put_double(&t, pt.fp);
    put_double(&t, pt.fn);
  }
  t += "|det=" + (mc.detection_packets ? std::to_string(*mc.detection_packets)
                                       : std::string("none"));
  t += "|samples=";
  for (const double s : mc.detection_samples) put_double(&t, s);
  t += "|thetas=";
  for (const auto& st : mc.final_thetas) {
    put_double(&t, st.mean());
    put_double(&t, st.variance());
  }
  t += "|loss=";
  for (const auto& st : mc.true_link_loss) put_double(&t, st.mean());
  t += "|e2e=";
  put_double(&t, mc.final_e2e_rate.mean());
  t += "|events=" + std::to_string(mc.total_events);
  return t;
}

/// mc_fast and crypto_real: Monte-Carlo sweeps of the §8.1 reference path
/// through runner::run_monte_carlo, timed at one jobs value and verified
/// at another (results must be bit-identical for any jobs value).
class MonteCarloWorkload : public Workload {
 public:
  MonteCarloWorkload(std::uint64_t seed, std::vector<McSpec> specs,
                     paai::crypto::CryptoKind crypto, double send_rate_pps,
                     std::size_t jobs, std::size_t verify_jobs)
      : seed_(seed),
        specs_(std::move(specs)),
        crypto_(crypto),
        send_rate_pps_(send_rate_pps),
        jobs_(jobs),
        verify_jobs_(verify_jobs) {}

  void setup() override {
    configs_.clear();
    for (const McSpec& s : specs_) {
      runner::MonteCarloConfig mc;
      mc.base = runner::paper_config(s.kind, s.packets, 0);
      mc.base.crypto = crypto_;
      mc.base.params.send_rate_pps = send_rate_pps_;
      mc.base.checkpoints = runner::log_checkpoints(100, s.packets, 16);
      mc.runs = s.runs;
      mc.seed0 = 1000 + seed_ * 7919;
      mc.malicious_links = {4};
      mc.jobs = jobs_;
      configs_.push_back(mc);
    }
    // Process warm-up: thread pool, allocator, and code paths of every
    // protocol, on one half-length run per worker whose verdicts are
    // discarded. Long enough that host jitter does not set setup_s.
    for (const runner::MonteCarloConfig& mc : configs_) {
      runner::MonteCarloConfig warm = mc;
      warm.base.params.total_packets = mc.base.params.total_packets / 2;
      warm.base.checkpoints = {warm.base.params.total_packets};
      warm.runs = jobs_;
      (void)runner::run_monte_carlo(warm);
    }
  }

  RoundStats round(Checker& check, SpanRecorder* spans,
                   HostSpeed* host) override {
    RoundStats rs;
    double busy = 0.0, capacity = 0.0, wait = 0.0, tasks = 0.0;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      runner::MonteCarloResult mc;
      {
        MaybeSpan span(spans,
                       std::string("run_monte_carlo[") + specs_[i].name + "]",
                       "runner");
        const auto t0 = Clock::now();
        mc = runner::run_monte_carlo(configs_[i]);
        rs.add_call(t0, host);
      }
      MaybeSpan span(spans, "digest", "bench");
      check.digest(specs_[i].name, mc_digest(mc));
      rs.packets += static_cast<double>(specs_[i].packets * specs_[i].runs);
      rs.events += static_cast<double>(mc.total_events);
      rs.paths += static_cast<double>(specs_[i].runs);
      const auto& ex = mc.exec;
      const double n = static_cast<double>(ex.task_seconds.count());
      busy += ex.task_seconds.mean() * n;
      capacity += static_cast<double>(ex.jobs) * ex.wall_seconds;
      wait += ex.queue_wait_seconds.mean() * n;
      tasks += n;
    }
    // A jobs=1 sweep has no pool to measure; the exec probe stands in.
    exec_.valid = jobs_ > 1;
    exec_.utilization = capacity > 0.0 ? busy / capacity : 0.0;
    exec_.queue_wait_ms = tasks > 0.0 ? wait / tasks * 1e3 : 0.0;
    return rs;
  }

  void verify(Checker& check) override {
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      runner::MonteCarloConfig mc = configs_[i];
      mc.jobs = verify_jobs_;
      check.digest(specs_[i].name, mc_digest(runner::run_monte_carlo(mc)));
    }
  }

  ExecSample exec_sample() const override { return exec_; }

  std::size_t jobs() const override { return jobs_; }

 private:
  std::uint64_t seed_;
  std::vector<McSpec> specs_;
  paai::crypto::CryptoKind crypto_;
  double send_rate_pps_;
  std::size_t jobs_;
  std::size_t verify_jobs_;
  std::vector<runner::MonteCarloConfig> configs_;
  ExecSample exec_;
};

// ---------------------------------------------------------------- serve

struct StreamFixture {
  ProtocolKind kind;
  const char* name;
  std::string jsonl;
  std::size_t split = 0;  // byte offset of the first tail line
  std::vector<std::size_t> batch_convicted;
  std::vector<double> batch_thetas;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// serve_replay: one reader, one engine, no threads. Each round serves the
/// head of every stream with periodic snapshots, restores the mid-stream
/// snapshot with load_state (the --state-in restart path), and serves the
/// tail. The final verdict must equal the batch run that produced the
/// stream.
class ServeWorkload : public Workload {
 public:
  static constexpr std::uint64_t kPackets = 20000;
  static constexpr std::uint64_t kSnapshotEvery = 4000;

  ServeWorkload(std::uint64_t seed, std::string work_dir)
      : seed_(seed), state_path_(std::move(work_dir) + "/serve_state.json") {}

  void setup() override {
    fixtures_.clear();
    const struct {
      ProtocolKind kind;
      const char* name;
    } families[] = {
        {ProtocolKind::kPaai1, "paai1"},
        {ProtocolKind::kPaai2, "paai2"},
        {ProtocolKind::kStatisticalFl, "statfl"},
    };
    for (const auto& f : families) {
      std::ostringstream os;
      const runner::StreamProduceResult r = runner::run_experiment_to_stream(
          runner::paper_config(f.kind, kPackets, 500 + seed_), os);
      if (r.events_dropped != 0) {
        throw std::runtime_error("stream producer dropped events");
      }
      StreamFixture fx{f.kind, f.name, os.str(), 0, r.result.final_convicted,
                       r.result.final_thetas};
      const std::size_t nl = fx.jsonl.find('\n', fx.jsonl.size() / 2);
      fx.split = nl == std::string::npos ? fx.jsonl.size() : nl + 1;
      fixtures_.push_back(std::move(fx));
    }
  }

  RoundStats round(Checker& check, SpanRecorder* spans,
                   HostSpeed* host) override {
    RoundStats rs;
    std::ostream no_log(nullptr);
    stream::ServeConfig cfg;
    cfg.snapshot_every = kSnapshotEvery;
    cfg.state_out = state_path_;
    for (const StreamFixture& fx : fixtures_) {
      MaybeSpan fx_span(spans, std::string("stream[") + fx.name + "]", "bench");
      const auto t0 = Clock::now();
      stream::ScoreEngine head_engine;
      MemBuf head_buf(fx.jsonl.data(), fx.split);
      std::istream head(&head_buf);
      stream::ServeReport head_report;
      {
        MaybeSpan span(spans, "serve_stream[head]", "stream");
        head_report = stream::serve_stream(head_engine, head, no_log, cfg);
      }
      std::string snapshot;
      {
        MaybeSpan span(spans, "read_state", "bench");
        snapshot = read_file(state_path_);
      }
      stream::ScoreEngine engine;
      std::string error;
      bool restored = false;
      {
        MaybeSpan span(spans, "load_state", "stream");
        restored = stream::load_state(snapshot, &engine, &error);
      }
      MemBuf tail_buf(fx.jsonl.data() + fx.split, fx.jsonl.size() - fx.split);
      std::istream tail(&tail_buf);
      stream::ServeReport tail_report;
      if (restored) {
        MaybeSpan span(spans, "serve_stream[tail]", "stream");
        tail_report = stream::serve_stream(engine, tail, no_log, cfg);
      }
      rs.add_call(t0, host);

      MaybeSpan span(spans, "digest", "bench");
      const bool served = restored && !head_report.failed &&
                          !tail_report.failed && engine.run_ended();
      check.expect(served, std::string(fx.name) + " serve/restore: " +
                               (restored ? head_report.error + tail_report.error
                                         : error));
      const std::vector<std::size_t> convicted = engine.convicted();
      const std::vector<double> thetas = engine.thetas();
      check.expect(convicted == fx.batch_convicted && thetas == fx.batch_thetas,
                   std::string(fx.name) +
                       ": stream verdict differs from the batch run");
      std::string t = "convicted=";
      for (const std::size_t l : convicted) t += std::to_string(l) + ",";
      t += "|thetas=";
      for (const double th : thetas) put_double(&t, th);
      t += "|events=" + std::to_string(head_report.events) + "+" +
           std::to_string(tail_report.events) +
           "|packets=" + std::to_string(engine.packets_sent());
      check.digest(fx.name, t);
      rs.events += static_cast<double>(head_report.events + tail_report.events);
      rs.packets += static_cast<double>(engine.packets_sent());
      rs.paths += 1.0;
    }
    return rs;
  }

  void verify(Checker&) override {}  // every round checks stream == batch

 private:
  std::uint64_t seed_;
  std::string state_path_;
  std::vector<StreamFixture> fixtures_;
};

// ----------------------------------------------------------------- mesh

std::string mesh_digest(const mesh::MeshResult& r) {
  std::string t;
  for (const auto& row : r.links) {
    t += std::to_string(row.units) + "," + std::to_string(row.blames) + "," +
         std::to_string(row.solo_convictions) + "," +
         std::to_string(row.first_convicted_units) + "," +
         (row.convicted ? "C" : ".") + (row.malicious ? "M" : ".") + ";";
  }
  t += "|fa=" + std::to_string(r.false_accusations) +
       "|miss=" + std::to_string(r.missed_malicious) + "|damage=";
  put_double(&t, r.total_damage);
  put_double(&t, r.detection_units_p50);
  put_double(&t, r.detection_units_p99);
  return t;
}

/// mesh_fattree: the stat engine on fattree@16 with one compromised core.
class MeshWorkload : public Workload {
 public:
  explicit MeshWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    mesh::MeshConfig cfg;
    cfg.topo = mesh::Topology::parse("fattree@16");
    cfg.paths = cfg.topo.enumerate_paths(kMeshPaths, 7 + seed_);
    cfg.engine = mesh::MeshEngine::kStat;
    cfg.units_per_path = 2000;
    cfg.rounds = 8;
    cfg.natural_loss = 0.01;
    cfg.decision_threshold = 0.02;
    cfg.blame = protocols::BlameSpec::parse("margin");
    cfg.adversaries = paai::adversary::AdversaryPlan::parse("uniform@0:rate=0.03");
    cfg.seed0 = 424242 + seed_;
    cfg.jobs = kJobs;
    cfg_ = std::move(cfg);
  }

  RoundStats round(Checker& check, SpanRecorder* spans,
                   HostSpeed* host) override {
    RoundStats rs;
    mesh::MeshResult r;
    {
      MaybeSpan span(spans, "run_mesh", "mesh");
      const auto t0 = Clock::now();
      r = mesh::run_mesh(cfg_);
      rs.add_call(t0, host);
    }
    MaybeSpan span(spans, "digest", "bench");
    check.expect(r.false_accusations == 0 && r.missed_malicious == 0 &&
                     !r.malicious_links.empty(),
                 "mesh: " + std::to_string(r.false_accusations) +
                     " false accusations, " +
                     std::to_string(r.missed_malicious) + " misses");
    check.digest("verdicts", mesh_digest(r));
    rs.paths = static_cast<double>(r.paths);
    rs.packets = static_cast<double>(r.total_units);
    // One evidence record per (path, hop, round).
    rs.events = static_cast<double>(cfg_.paths.total_hops() * cfg_.rounds);
    exec_.valid = true;
    exec_.utilization = r.exec.utilization();
    exec_.queue_wait_ms = r.exec.queue_wait_seconds.mean() * 1e3;
    return rs;
  }

  void verify(Checker& check) override {
    mesh::MeshConfig serial = cfg_;
    serial.jobs = 1;
    check.digest("verdicts", mesh_digest(mesh::run_mesh(serial)));
  }

  ExecSample exec_sample() const override { return exec_; }

  std::size_t jobs() const override { return kJobs; }

 private:
  static constexpr std::size_t kJobs = 2;

  std::uint64_t seed_;
  mesh::MeshConfig cfg_;
  ExecSample exec_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& work_dir) {
  using paai::crypto::CryptoKind;
  if (name == "mc_fast") {
    return std::make_unique<MonteCarloWorkload>(
        seed,
        std::vector<McSpec>{{ProtocolKind::kFullAck, "fullack", 10000, 8},
                            {ProtocolKind::kPaai1, "paai1", 10000, 8},
                            {ProtocolKind::kPaai2, "paai2", 10000, 8}},
        CryptoKind::kFast, 100.0, /*jobs=*/2, /*verify_jobs=*/1);
  }
  if (name == "crypto_real") {
    return std::make_unique<MonteCarloWorkload>(
        seed,
        std::vector<McSpec>{{ProtocolKind::kSigAck, "sigack", 100, 2},
                            {ProtocolKind::kPaai1, "paai1", 8000, 2},
                            {ProtocolKind::kPaai2, "paai2", 5000, 2}},
        CryptoKind::kReal, 500.0, /*jobs=*/1, /*verify_jobs=*/2);
  }
  if (name == "serve_replay") {
    return std::make_unique<ServeWorkload>(seed, work_dir);
  }
  if (name == "mesh_fattree") return std::make_unique<MeshWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
