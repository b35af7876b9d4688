// Low-overhead process-wide metrics: the one registry in src/obs.
//
// The MetricsRegistry names two metric kinds:
//   * Counter    — monotonically increasing uint64 (packets, probes, a
//                  phase's self time and calls, see obs/profile.h);
//   * Gauge      — last-written int64 plus its high-water mark (storage
//                  entries held, queue depth, ...).
//
// Design constraints, in order:
//   1. Near-zero cost when disabled. Handles are 8-byte value types; the
//      one enable switch is a constant-initialized atomic, so a disabled
//      registry turns every write (and every ScopedPhase) into one
//      relaxed load and a predicted-not-taken branch, with no call and
//      no init guard, and instrumentation can live on the simulator's
//      per-packet hot path.
//   2. TSan-clean under the src/exec pool. Every cell is a relaxed
//      std::atomic; counters are sharded per thread
//      (each thread is assigned one of kShards cache-line-padded shards
//      on first use), so concurrent Monte-Carlo runs aggregate lock-free
//      with no shared-line ping-pong on the common path.
//   3. Deterministic totals. Aggregated counter totals depend only on
//      the set of operations performed, never on thread interleaving — run_experiment()'s results never read the
//      registry, so the bit-identity contract of runner/experiment.h is
//      preserved (see the carve-out documented there).
//
// Registration (name -> cells) takes a mutex and is expected once per
// constructed object (per simulation run at most), never per event.
// Snapshots are relaxed reads and may be taken while writers are live;
// they are exact once the writers have quiesced.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace paai::obs {

/// Number of per-thread shards per counter (power of two).
inline constexpr std::size_t kShards = 8;

namespace detail {

/// Stable shard index for the calling thread, in [0, kShards).
std::size_t this_thread_shard();

struct alignas(64) CounterShard {
  std::atomic<std::uint64_t> value{0};
};

struct CounterCells {
  std::array<CounterShard, kShards> shards{};
  std::uint64_t total() const;
  void reset();
};

struct GaugeCell {
  std::atomic<std::int64_t> value{0};
  std::atomic<std::int64_t> high{std::numeric_limits<std::int64_t>::min()};
  void reset();
};

/// The registry's enable switch (MetricsRegistry::enabled()).
inline constinit std::atomic<bool> g_enabled{false};

inline bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

}  // namespace detail

/// Handle to a registered counter. Default-constructed handles are inert
/// (every operation is a no-op), so instrumentation points may be wired
/// unconditionally.
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n = 1) const {
    if (!detail::enabled() || cells_ == nullptr) return;
    cells_->shards[detail::this_thread_shard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// True when writes will actually be recorded right now.
  bool live() const { return detail::enabled() && cells_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCells* cells) : cells_(cells) {}

  detail::CounterCells* cells_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;

  /// Stores `v` and folds it into the high-water mark.
  void set(std::int64_t v) const {
    if (!detail::enabled() || cell_ == nullptr) return;
    cell_->value.store(v, std::memory_order_relaxed);
    record_high(v);
  }

  /// Folds `v` into the high-water mark without touching the value.
  void record_high(std::int64_t v) const {
    if (!detail::enabled() || cell_ == nullptr) return;
    std::int64_t cur = cell_->high.load(std::memory_order_relaxed);
    while (v > cur && !cell_->high.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  bool live() const { return detail::enabled() && cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}

  detail::GaugeCell* cell_ = nullptr;
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
  std::int64_t high = 0;
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
};

class MetricsRegistry {
 public:
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry, the only one: the sim / protocols /
  /// runner / stream instrumentation and the phase counters all write
  /// here. Disabled until someone (a BenchSession, a test) turns it on.
  static MetricsRegistry& global();

  /// Returns a handle, registering the metric on first use. Names are
  /// dot-separated lowercase with a unit suffix (see
  /// docs/OBSERVABILITY.md); one name must keep one kind.
  Counter counter(std::string_view name);
  Gauge gauge(std::string_view name);

  /// The one switch for every counter, gauge and phase.
  static void set_enabled(bool on) {
    detail::g_enabled.store(on, std::memory_order_relaxed);
  }
  static bool enabled() { return detail::enabled(); }

  /// Relaxed-read snapshot of every registered metric, sorted by name.
  MetricsSnapshot snapshot() const;

  /// Zeroes all values; registrations and outstanding handles stay valid.
  void reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<detail::CounterCells>, std::less<>>
      counters_;
  std::map<std::string, std::unique_ptr<detail::GaugeCell>, std::less<>>
      gauges_;
};

}  // namespace paai::obs
