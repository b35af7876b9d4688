// Shared declarations of the end-to-end benchmark (see README.md).
//
// The benchmark drives the public entry points of src/ from outside:
// four workloads (workloads.cc) measure end-to-end throughput, and a
// traced run adds outside-in layer probes (probes.cc) plus the span
// recorder (trace.cc). Nothing here is linked into the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> xs);

/// Rescales wall times to the reference host's speed (calib.cc). Each
/// call to rescale() runs a calibration pass on `threads` threads; a wall
/// time measured since the previous pass is divided by the mean slowdown
/// of the two passes around it, relative to the reference host.
class HostSpeed {
 public:
  explicit HostSpeed(std::size_t threads);

  /// The time `wall_s` would have taken on the reference host.
  double rescale(double wall_s);

  /// Median slowdown applied so far (1 = reference speed), and of each
  /// part of the calibration loop.
  std::string describe() const;

 private:
  double pass();

  static constexpr std::size_t kParts = 4;

  std::vector<std::vector<std::uint32_t>> keys_;  // per calibration thread
  double slowdown_before_ = 1.0;
  std::vector<double> slowdowns_;
  std::vector<double> part_slowdowns_[kParts];
};

/// FNV-1a 64 over a canonical verdict text, rendered as 16 hex digits.
/// Deliberately independent of src/crypto so a broken hash in the program
/// cannot hide a changed verdict.
std::string fnv_hex(std::string_view text);

/// Appends a double bit-exactly ("%a") to a digest text.
void put_double(std::string* out, double v);

// --------------------------------------------------------------- tracing

/// In-memory span recorder. Single-threaded: spans are opened and closed
/// by the benchmark's own thread around calls into src/, so parents are a
/// plain stack. Spans of one workload share `workload_id`.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    const char* layer = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string name, const char* layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    int index_ = -1;
  };

  explicit SpanRecorder(std::uint32_t workload_id)
      : workload_id_(workload_id) {}

  const std::vector<Span>& spans() const { return spans_; }

  /// Span duration minus the time its child spans cover, per span.
  std::vector<std::int64_t> self_ns() const;

  /// Self time summed per layer (milliseconds).
  std::map<std::string, double> self_ms_by_layer() const;

  /// Chrome trace_event JSON (load in chrome://tracing or Perfetto).
  void write_chrome_json(const std::string& path,
                         const std::string& workload) const;

 private:
  std::uint32_t workload_id_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span when `rec` is non-null; a no-op otherwise, so untraced
/// rounds pay one branch.
class MaybeSpan {
 public:
  MaybeSpan(SpanRecorder* rec, std::string name, const char* layer) {
    if (rec != nullptr) scope_.emplace(rec, std::move(name), layer);
  }

 private:
  std::optional<SpanRecorder::Scope> scope_;
};

// ------------------------------------------------------------ correctness

/// Counts verdict checks. A check passes when its digest matches the
/// golden digest (when one exists for this seed) and the digest of the
/// same operation in the first round (determinism across rounds).
class Checker {
 public:
  Checker(std::string workload, std::uint64_t seed,
          std::map<std::string, std::string> golden)
      : workload_(std::move(workload)),
        seed_(seed),
        golden_(std::move(golden)) {}

  bool has_golden() const { return !golden_.empty(); }

  /// One verdict operation identified by `op`, with its digest text.
  void digest(const std::string& op, const std::string& text);

  /// One invariant check.
  void expect(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// First digest seen per op (for --print-digests).
  const std::map<std::string, std::string>& digests() const {
    return first_;
  }

 private:
  std::string workload_;
  std::uint64_t seed_;
  std::map<std::string, std::string> golden_;
  std::map<std::string, std::string> first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// -------------------------------------------------------------- workloads

/// Work done by one timed round.
struct RoundStats {
  double wall_s = 0.0;  // time spent inside the program's entry points
  double rescaled_s = 0.0;  // the same on the reference host
  double packets = 0.0;
  double events = 0.0;
  double paths = 0.0;

  /// Adds the time since `t0` spent in one entry-point call. With a
  /// `host`, a calibration pass follows and rescales it; without, the
  /// rescaled time is the measured one.
  void add_call(Clock::time_point t0, HostSpeed* host) {
    const double s = seconds_since(t0);
    wall_s += s;
    rescaled_s += host != nullptr ? host->rescale(s) : s;
  }
};

/// Values the traced run reads from the workload's own rounds.
struct ExecSample {
  bool valid = false;
  double utilization = 0.0;
  double queue_wait_ms = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every fixture from scratch (timed as setup_s).
  virtual void setup() = 0;

  /// One unit of timed work; digests its verdicts into `check`. Each
  /// entry-point call is followed by a calibration pass of `host`, when
  /// given.
  virtual RoundStats round(Checker& check, SpanRecorder* spans,
                           HostSpeed* host) = 0;

  /// Post-timing invariant checks (jobs equality and the like).
  virtual void verify(Checker& check) = 0;

  /// Exec-pool telemetry of the last round, when the workload fans out.
  virtual ExecSample exec_sample() const { return {}; }

  /// Threads a timed round keeps busy.
  virtual std::size_t jobs() const { return 1; }
};

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& work_dir);

// ----------------------------------------------------------------- probes

/// Outside-in layer probes. Fills `metrics` with every per-layer metric
/// the probes own. Inputs use a fixed probe seed so count metrics repeat
/// exactly across runs.
void run_probes(std::map<std::string, double>& metrics, SpanRecorder* spans);

/// Paths the mesh_fattree workload monitors (the mesh probes build the
/// same path set).
inline constexpr std::size_t kMeshPaths = 1000000;

/// Read-only streambuf over bytes the caller owns: an istream without a
/// copy of the stream per round.
class MemBuf : public std::streambuf {
 public:
  MemBuf(const char* data, std::size_t size) {
    char* p = const_cast<char*>(data);
    setg(p, p, p + size);
  }
};

}  // namespace perfbench
