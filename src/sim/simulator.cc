#include "sim/simulator.h"

#include <algorithm>

#include "obs/profile.h"

namespace paai::sim {

namespace {

/// Heap comparator: the later event sinks, so the front is the minimum.
struct Later {
  template <typename K>
  bool operator()(const K& a, const K& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

}  // namespace

Simulator::~Simulator() {
  for (const Key& key : heap_) release_slot(key.slot);
}

std::uint32_t Simulator::acquire_slot() {
  if (free_.empty()) {
    // A new chunk; existing slots keep their addresses. Its ids go on the
    // free list lowest-last, so they are handed out in ascending order.
    const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkSlots);
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    for (std::uint32_t i = kChunkSlots; i > 0; --i) free_.push_back(base + i - 1);
  }
  const std::uint32_t id = free_.back();
  free_.pop_back();
  return id;
}

void Simulator::release_slot(std::uint32_t id) {
  Slot& s = slot(id);
  if (s.destroy != nullptr) s.destroy(s.storage);
  free_.push_back(id);
}

void Simulator::push_key(SimTime t, std::uint32_t id) {
  heap_.push_back(Key{t, next_seq_++, id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  // One relaxed load + branch while the registry is disabled.
  queue_depth_.record_high(static_cast<std::int64_t>(heap_.size()));
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  now_ = key.time;
  ++processed_;
  // The slot is released after the handler returns, also when it throws;
  // events the handler schedules take other slots meanwhile.
  struct Release {
    Simulator& sim;
    std::uint32_t id;
    ~Release() { sim.release_slot(id); }
  } release{*this, key.slot};
  Slot& s = slot(key.slot);
  s.invoke(s.storage);
  return true;
}

// One sim-loop scope per loop, not per event: the phases the handlers
// open (crypto, telemetry sampling) are subtracted from it on close.
void Simulator::run() {
  const obs::ScopedPhase phase(obs::Phase::kSimLoop);
  while (step()) {
  }
}

void Simulator::run_until(SimTime t) {
  const obs::ScopedPhase phase(obs::Phase::kSimLoop);
  while (!heap_.empty() && heap_.front().time < t) {
    step();
  }
  if (now_ < t) now_ = t;
}

}  // namespace paai::sim
