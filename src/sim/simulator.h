// Discrete-event simulation core.
//
// Order: a strict total order on (time, insertion sequence). The tie-break
// makes runs bit-for-bit reproducible for a given seed — two events
// scheduled for the same instant always fire in scheduling order,
// independent of heap internals.
//
// Storage: at()/after() construct the callable in place in a fixed-size
// slot of a slab. Slots live in chunks that are added but never moved, and
// dispatched slots are recycled through a free list. The binary heap
// orders plain {time, seq, slot} keys, so a sift moves 24-byte keys, never
// handlers. Once the slab and the key heap reach a run's high-water,
// scheduling and dispatching an event allocate nothing.
//
// Capture bound: a callable must fit kEventSlotBytes (with at most
// max_align_t alignment). A larger one does not satisfy InlineEvent and so
// does not compile; there is no heap fallback. Capture a pointer to larger
// state instead.
//
// Reentrancy: a running handler may schedule any number of events. Its own
// slot keeps its address and its capture stays alive until the handler
// returns; only then is the capture destroyed and the slot recycled.
// Destroying the Simulator destroys the captures of still-pending events.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/time.h"

namespace paai::sim {

/// Size of one event slot. A link delivery (a PacketEnv, whose H(m) rides
/// on its wire buffer, plus the target node) takes 32 bytes and protocol
/// timers 24; a 32-byte slot measured no faster.
inline constexpr std::size_t kEventSlotBytes = 64;

/// A callable the simulator can store inline: invocable with no
/// arguments, and small enough for one slot.
template <typename F>
concept InlineEvent =
    std::invocable<std::decay_t<F>&> &&
    std::constructible_from<std::decay_t<F>, F> &&
    sizeof(std::decay_t<F>) <= kEventSlotBytes &&
    alignof(std::decay_t<F>) <= alignof(std::max_align_t);

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time t (>= now, else clamped to now).
  template <InlineEvent F>
  void at(SimTime t, F&& fn) {
    using Fn = std::decay_t<F>;
    const std::uint32_t id = acquire_slot();
    Slot& s = slot(id);
    try {
      ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
    } catch (...) {
      free_.push_back(id);
      throw;
    }
    s.invoke = [](void* p) { (*std::launder(static_cast<Fn*>(p)))(); };
    s.destroy = std::is_trivially_destructible_v<Fn>
                    ? nullptr
                    : +[](void* p) { std::launder(static_cast<Fn*>(p))->~Fn(); };
    push_key(t < now_ ? now_ : t, id);
  }

  /// Schedules `fn` after a relative delay (>= 0, else clamped).
  template <InlineEvent F>
  void after(SimDuration delay, F&& fn) {
    at(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn));
  }

  /// Runs the next event; returns false when the queue is empty.
  bool step();

  /// Runs until the queue empties.
  void run();

  /// Runs every event scheduled strictly before `t`, then sets now() = t.
  void run_until(SimTime t);

  bool empty() const { return heap_.empty(); }
  std::uint64_t events_processed() const { return processed_; }
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Slot {
    alignas(std::max_align_t) unsigned char storage[kEventSlotBytes];
    void (*invoke)(void*);
    void (*destroy)(void*);  // nullptr for trivially destructible captures
  };

  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static constexpr std::size_t kChunkSlots = 64;

  Slot& slot(std::uint32_t id) {
    return chunks_[id / kChunkSlots][id % kChunkSlots];
  }
  std::uint32_t acquire_slot();
  /// Destroys the slot's capture and returns it to the free list.
  void release_slot(std::uint32_t id);
  void push_key(SimTime t, std::uint32_t id);

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;  // LIFO, so recently used slots recur
  std::vector<Key> heap_;            // binary min-heap on (time, seq)
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  // High-water of the pending-event heap.
  obs::Gauge queue_depth_ =
      obs::MetricsRegistry::global().gauge("sim.queue_depth");
};

}  // namespace paai::sim
