#include "obs/profile.h"

#include "obs/metrics.h"

namespace paai::obs {

// profile.h sizes the cell array without including metrics.h; the two
// sharding factors must stay in lockstep.
static_assert(kShards == 8, "PhaseProfiler cell array assumes 8 shards");

namespace {

constexpr const char* kPhaseNames[kPhaseCount] = {
    "sim-loop",     "crypto",       "exec-task", "mesh-stat",
    "mesh-packet",  "stream-parse", "stream-apply", "snapshot",
};

constexpr const char* kQueueNames[kQueueIdCount] = {
    "sim-queue",
    "exec-queue",
};

}  // namespace

const char* phase_name(Phase phase) {
  return kPhaseNames[static_cast<std::size_t>(phase)];
}

const char* queue_name(QueueId queue) {
  return kQueueNames[static_cast<std::size_t>(queue)];
}

constinit PhaseProfiler PhaseProfiler::instance_;

PhaseProfiler::Cell& PhaseProfiler::cell_for(Phase phase) {
  // Same per-thread shard assignment as the metrics registry, so the two
  // instrumentation layers contend on the same (cold) line pattern.
  return cells_[static_cast<std::size_t>(phase) * kShards +
                detail::this_thread_shard()];
}

PhaseTotals PhaseProfiler::totals(Phase phase) const {
  PhaseTotals out;
  const std::size_t base = static_cast<std::size_t>(phase) * kShards;
  for (std::size_t s = 0; s < kShards; ++s) {
    const Cell& cell = cells_[base + s];
    out.ns += cell.ns.load(std::memory_order_relaxed);
    out.calls += cell.calls.load(std::memory_order_relaxed);
  }
  return out;
}

void PhaseProfiler::reset() {
  for (Cell& cell : cells_) {
    cell.ns.store(0, std::memory_order_relaxed);
    cell.calls.store(0, std::memory_order_relaxed);
  }
  for (auto& q : queue_high_) q.store(0, std::memory_order_relaxed);
}

}  // namespace paai::obs
