// PhaseProfiler: a process-wide self-profiler that attributes wall time
// and call counts to a small fixed set of phases — the measurement
// substrate the ROADMAP's hot-path rewrite is gated on.
//
// Where the metrics registry counts *what* happened, the profiler says
// *where the time went*: the simulator event loop, the crypto hot loops
// every protocol leans on, the exec pool's task bodies, the mesh engines'
// tile work, and the stream service's parse/apply halves each get a
// phase. A ScopedPhase on a hot path costs one relaxed load and a
// predicted-not-taken branch while disabled — no clock reads, no
// thread-local access — so the instrumentation is safe to leave compiled
// in everywhere.
//
// Phase time is exclusive self time. Each thread keeps a pointer to its
// innermost open ScopedPhase; a closing scope charges its elapsed time
// minus its children's, and hands its elapsed time to its parent. Crypto
// inside the sim loop is charged to crypto only, so one thread's phases
// sum to at most its wall time, and the phases of a single-threaded run
// sum to the run's wall time minus whatever no scope covers. A scope is
// charged when it closes: a sample taken while the sim loop is still
// running shows the loop's nested phases, and the loop's own self time
// lands in the sample after it returns.
//
// The profiler follows the same observational contract as the metrics
// registry (see the carve-out in runner/experiment.h): cells are relaxed
// atomics sharded per thread, registration is static (the Phase enum), it
// is strictly write-only from inside a run, and no simulation result ever
// reads it — `Integration.ProfilerNeverAffectsResults` in
// tests/telemetry_test.cc asserts bit-identical results with profiling on
// and off for all seven protocols.
//
// Queue-depth high-waters ride along: the simulator's pending-event heap
// and the exec pool's work queue record their depth on every push via a
// CAS-max cell, so a telemetry snapshot can report how deep the backlogs
// ever got without any per-pop bookkeeping.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>

namespace paai::obs {

enum class Phase : std::uint8_t {
  kSimLoop,      // sim::Simulator::run / run_until event loops
  kCrypto,       // CryptoProvider hash/mac/prf/encrypt/decrypt, W-OTS
  kExecTask,     // exec::ThreadPool task bodies
  kMeshStat,     // mesh statistical engine tile bodies
  kMeshPacket,   // mesh packet engine per-path experiments
  kStreamParse,  // stream service: reading + parsing a line
  kStreamApply,  // stream service: applying + booking an event
  kSnapshot,     // state snapshots + telemetry sampling itself
};

inline constexpr std::size_t kPhaseCount = 8;

/// Stable kebab-case name ("sim-loop", "crypto", ...); a string literal.
const char* phase_name(Phase phase);

enum class QueueId : std::uint8_t {
  kSimQueue,   // sim::Simulator pending-event heap
  kExecQueue,  // exec::ThreadPool work queue
};

inline constexpr std::size_t kQueueIdCount = 2;

/// Stable name ("sim-queue", "exec-queue").
const char* queue_name(QueueId queue);

struct PhaseTotals {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
};

class PhaseProfiler {
 public:
  constexpr PhaseProfiler() = default;
  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// The process-wide profiler. Disabled until someone (a BenchSession
  /// given --telemetry-out, a test) turns it on. A plain address: the
  /// instance is constant-initialized, so there is no init guard.
  static PhaseProfiler& global() { return instance_; }

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Folds one hand-timed leaf call into the phase and credits it to this
  /// thread's innermost open ScopedPhase, which then does not count it
  /// again (no-op while disabled).
  void add(Phase phase, std::uint64_t ns);

  /// CAS-max fold of a queue's current depth into its high-water mark.
  void record_queue_depth(QueueId queue, std::uint64_t depth) {
    if (!enabled()) return;
    auto& cell = queue_high_[static_cast<std::size_t>(queue)];
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    while (depth > cur && !cell.compare_exchange_weak(
                              cur, depth, std::memory_order_relaxed)) {
    }
  }

  /// Relaxed-read aggregate across shards; exact once writers quiesce.
  PhaseTotals totals(Phase phase) const;

  std::uint64_t queue_high(QueueId queue) const {
    return queue_high_[static_cast<std::size_t>(queue)].load(
        std::memory_order_relaxed);
  }

  /// Zeroes every cell; the enabled flag is left as-is.
  void reset();

 private:
  friend class ScopedPhase;

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> calls{0};
  };

  void charge(Phase phase, std::uint64_t ns) {
    Cell& cell = cell_for(phase);
    cell.ns.fetch_add(ns, std::memory_order_relaxed);
    cell.calls.fetch_add(1, std::memory_order_relaxed);
  }

  Cell& cell_for(Phase phase);

  // [phase][shard], shard assignment shared with the metrics registry.
  std::array<Cell, kPhaseCount * 8> cells_{};
  std::array<std::atomic<std::uint64_t>, kQueueIdCount> queue_high_{};
  std::atomic<bool> enabled_{false};

  static PhaseProfiler instance_;  // constinit, defined in profile.cc
};

/// RAII phase timer charging exclusive self time (see the header comment).
/// The clock and the thread's open-scope pointer are touched only while
/// the profiler is enabled, so a disabled profiler pays two branches per
/// scope.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase) : phase_(phase) {
    if (!PhaseProfiler::global().enabled()) return;
    active_ = true;
    parent_ = open_;
    open_ = this;
    start_ = std::chrono::steady_clock::now();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    if (!active_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    const std::uint64_t elapsed = ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
    open_ = parent_;
    if (parent_ != nullptr) parent_->child_ns_ += elapsed;
    PhaseProfiler::global().charge(
        phase_, elapsed > child_ns_ ? elapsed - child_ns_ : 0);
  }

 private:
  friend class PhaseProfiler;

  // This thread's innermost open active scope.
  static inline constinit thread_local ScopedPhase* open_ = nullptr;

  Phase phase_;
  bool active_ = false;
  ScopedPhase* parent_ = nullptr;
  std::uint64_t child_ns_ = 0;
  std::chrono::steady_clock::time_point start_{};
};

inline void PhaseProfiler::add(Phase phase, std::uint64_t ns) {
  if (!enabled()) return;
  charge(phase, ns);
  if (ScopedPhase::open_ != nullptr) ScopedPhase::open_->child_ns_ += ns;
}

}  // namespace paai::obs
