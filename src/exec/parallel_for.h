// parallel_for_each: run fn(0) ... fn(count-1) across a worker pool.
//
//   * jobs = 0 means "hardware concurrency"; jobs <= 1 (or count <= 1)
//     runs inline on the calling thread — no pool, no locking — so the
//     serial path is also the degenerate parallel path and there is one
//     code path to keep deterministic.
//   * Exception propagation: if any fn throws, the first-thrown exception
//     is captured, all not-yet-started items are cancelled (their fn is
//     never invoked), already-running items finish, and the exception is
//     rethrown on the calling thread after the section quiesces.
//   * Telemetry: returns an ExecTelemetry with per-item wall time, queue
//     wait, and overall pool utilization.
//
// fn is invoked concurrently from pool workers: it must not touch shared
// mutable state without its own synchronization. For order-sensitive
// aggregation use OrderedReducer below, which serializes commits and
// replays them strictly in item order — the pattern that makes the
// Monte-Carlo drivers bit-identical across thread counts.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "exec/telemetry.h"

namespace paai::exec {

/// Resolves a user-facing jobs knob: 0 -> hardware concurrency, else the
/// value itself (never returns 0).
std::size_t resolve_jobs(std::size_t jobs);

ExecTelemetry parallel_for_each(std::size_t count,
                                const std::function<void(std::size_t)>& fn,
                                std::size_t jobs);

/// Commits per-item results strictly in item order, regardless of the
/// order items complete. Workers call commit(i, value); the reducer folds
/// value i only once values 0..i-1 have been folded, invoking `fold`
/// under an internal mutex (single reducer context). Out-of-order
/// completions are buffered; memory is bounded by the completion skew,
/// not by the item count.
template <typename T>
class OrderedReducer {
 public:
  /// `fold(index, value)` is called in index order.
  OrderedReducer(std::size_t count,
                 std::function<void(std::size_t, T&&)> fold)
      : slots_(count), fold_(std::move(fold)) {}

  void commit(std::size_t index, T&& value) {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[index] = std::move(value);
    while (next_ < slots_.size() && slots_[next_].has_value()) {
      fold_(next_, std::move(*slots_[next_]));
      slots_[next_].reset();
      ++next_;
    }
  }

  /// Items folded so far (== count when the section is complete).
  std::size_t completed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return next_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::optional<T>> slots_;
  std::size_t next_ = 0;
  std::function<void(std::size_t, T&&)> fold_;
};

}  // namespace paai::exec
