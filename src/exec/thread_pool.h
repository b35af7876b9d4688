// Fixed-size worker pool with a condition-variable work queue.
//
// The pool is deliberately minimal: submit() enqueues a closure, workers
// dequeue in FIFO order, and the destructor drains everything already
// queued before joining (clean shutdown — no task that was accepted is
// ever dropped). Determinism of results is NOT the pool's job: callers
// that need run-order-independent output (the Monte-Carlo driver) commit
// results through an ordered reducer; the pool only supplies concurrency.
//
// Thread-safety: submit() may be called from any thread, including from
// inside a running task. Submitting after shutdown() (or during
// destruction) is a programming error and throws.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace paai::exec {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 is clamped to 1).
  explicit ThreadPool(std::size_t threads);

  /// Drains the queue, then stops and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Throws std::runtime_error after shutdown().
  void submit(std::function<void()> task);

  /// Stops accepting work, finishes everything queued, joins workers.
  /// Idempotent; called by the destructor.
  void shutdown();

  std::size_t size() const { return workers_.size(); }

  /// The machine's hardware concurrency, never less than 1.
  static std::size_t hardware_jobs();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  // High-water of the work queue.
  obs::Gauge queue_depth_ =
      obs::MetricsRegistry::global().gauge("exec.queue_depth");
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace paai::exec
