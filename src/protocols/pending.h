// PendingStore: per-node temporary packet state with expiry.
//
// Every protocol requires nodes to remember packet identifiers for a
// bounded time ("F_i stores the identifier H(m) and starts a wait timer").
// PendingStore keeps live entries in an open-addressing table keyed by
// PacketId (linear probing, backward-shift deletion, so no tombstones)
// plus a ring-buffer FIFO of expiry deadlines; purge() is called on every
// packet arrival (amortized O(1)), so expired state disappears without
// per-entry timer events — the storage meter still tracks the
// instantaneous entry count for Figure 3.
//
// Entries whose deadline was extended (e.g. a probe arrived and the node
// now waits for a downstream ack) are re-queued rather than dropped.
//
// Memory: both the table and the FIFO start empty, allocate a small
// power-of-two array on first use and double when full, so a store that
// has reached its run's high-water allocates nothing per entry. Nothing
// iterates the table, so its layout is unobservable. A pointer returned
// by put()/find() is valid until the next put/erase/purge/clear.
#pragma once

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "sim/storage.h"
#include "sim/time.h"

namespace paai::protocols {

struct PacketIdHash {
  std::size_t operator()(const net::PacketId& id) const {
    std::uint64_t v;
    std::memcpy(&v, id.data(), sizeof(v));
    return static_cast<std::size_t>(v);
  }
};

template <typename State>
class PendingStore {
 public:
  explicit PendingStore(sim::StorageMeter* meter = nullptr) : meter_(meter) {}

  /// Agents construct before being attached to a node; they point the
  /// store at the node's meter from start().
  void set_meter(sim::StorageMeter* meter) { meter_ = meter; }

  /// Arms a self-rescheduling purge timer (period ~ r_0/2) whenever the
  /// store is non-empty, so expired entries vanish (and the storage meter
  /// drains) even when no packets arrive to trigger the on-arrival purge.
  void enable_auto_purge(sim::Simulator* sim, sim::SimDuration period) {
    sim_ = sim;
    purge_period_ = period;
  }

  /// Binds the store to its node: meters storage there, arms the
  /// auto-purge timer, and registers a crash hook so a node outage drops
  /// every in-flight entry — packet-identifier state lives in volatile
  /// memory, so a crashed node forgets it. Agents call this from start().
  void attach(sim::Node& node, sim::SimDuration purge_period) {
    set_meter(&node.storage());
    enable_auto_purge(&node.sim(), purge_period);
    node.add_crash_hook(
        [](void* self) { static_cast<PendingStore*>(self)->clear(); }, this);
  }

  /// Drops every entry immediately (crash semantics). The auto-purge
  /// timer is left alone: an armed one fires on an empty table and goes
  /// quiet; the next put() re-arms it.
  void clear() {
    if (meter_ != nullptr) meter_->remove(size_);
    for (Entry& e : table_) e = Entry{};
    size_ = 0;
    fifo_head_ = 0;
    fifo_size_ = 0;
  }

  /// Inserts (or replaces) state for `id`, expiring at `expiry`.
  State& put(const net::PacketId& id, State state, sim::SimTime expiry) {
    if (2 * (size_ + 1) > table_.size()) grow_table();
    Entry& e = table_[probe(id)];
    if (!e.used) {
      e.used = true;
      e.id = id;
      ++size_;
      if (meter_ != nullptr) meter_->add();
    }
    e.state = std::move(state);
    e.expiry = expiry;
    push_deadline(Deadline{expiry, id});
    arm_purge();
    return e.state;
  }

  /// Returns the live state for `id`, or nullptr.
  State* find(const net::PacketId& id) {
    Entry* e = lookup(id);
    return e == nullptr ? nullptr : &e->state;
  }

  /// Pushes the expiry of an existing entry out to `expiry` (never pulls
  /// it in).
  void extend(const net::PacketId& id, sim::SimTime expiry) {
    Entry* e = lookup(id);
    if (e != nullptr && expiry > e->expiry) e->expiry = expiry;
  }

  void erase(const net::PacketId& id) {
    if (Entry* e = lookup(id)) remove(*e);
  }

  /// Drops every entry whose deadline has passed. Call on packet arrival.
  void purge(sim::SimTime now) {
    while (fifo_size_ > 0 && fifo_[fifo_head_].expiry <= now) {
      const net::PacketId id = fifo_[fifo_head_].id;
      fifo_head_ = (fifo_head_ + 1) & (fifo_.size() - 1);
      --fifo_size_;
      Entry* e = lookup(id);
      if (e == nullptr) continue;  // already erased explicitly
      if (e->expiry <= now) {
        remove(*e);
      } else {
        // Deadline was extended; re-queue under the new deadline.
        push_deadline(Deadline{e->expiry, id});
      }
    }
  }

  std::size_t size() const { return size_; }

 private:
  struct Entry {
    net::PacketId id{};
    bool used = false;
    sim::SimTime expiry = 0;
    State state{};
  };

  struct Deadline {
    sim::SimTime expiry;
    net::PacketId id;
  };

  static constexpr std::size_t kInitialSlots = 16;  // powers of two

  std::size_t mask() const { return table_.size() - 1; }
  std::size_t home(const net::PacketId& id) const {
    return PacketIdHash{}(id) & mask();
  }

  /// Index of `id`'s entry, or of the empty slot where it would go. The
  /// table is never full (load factor <= 1/2), so the probe ends.
  std::size_t probe(const net::PacketId& id) const {
    std::size_t i = home(id);
    while (table_[i].used && table_[i].id != id) i = (i + 1) & mask();
    return i;
  }

  Entry* lookup(const net::PacketId& id) {
    if (size_ == 0) return nullptr;
    Entry& e = table_[probe(id)];
    return e.used ? &e : nullptr;
  }

  /// Backward-shift deletion: later entries of the probe run move up
  /// into the hole unless that would put them before their home slot.
  void remove(Entry& victim) {
    std::size_t hole = static_cast<std::size_t>(&victim - table_.data());
    for (std::size_t j = (hole + 1) & mask(); table_[j].used;
         j = (j + 1) & mask()) {
      if (((j - home(table_[j].id)) & mask()) >= ((j - hole) & mask())) {
        table_[hole] = std::move(table_[j]);
        hole = j;
      }
    }
    table_[hole] = Entry{};
    --size_;
    if (meter_ != nullptr) meter_->remove();
  }

  void grow_table() {
    std::vector<Entry> old(table_.empty() ? kInitialSlots : 2 * table_.size());
    old.swap(table_);
    for (Entry& e : old) {
      if (e.used) table_[probe(e.id)] = std::move(e);
    }
  }

  void push_deadline(const Deadline& d) {
    if (fifo_size_ == fifo_.size()) {
      // Full: unroll into a doubled ring, oldest deadline first.
      std::vector<Deadline> bigger(fifo_.empty() ? kInitialSlots
                                                 : 2 * fifo_.size());
      for (std::size_t k = 0; k < fifo_size_; ++k) {
        bigger[k] = fifo_[(fifo_head_ + k) & (fifo_.size() - 1)];
      }
      fifo_.swap(bigger);
      fifo_head_ = 0;
    }
    fifo_[(fifo_head_ + fifo_size_) & (fifo_.size() - 1)] = d;
    ++fifo_size_;
  }

  void arm_purge() {
    if (sim_ == nullptr || purge_armed_) return;
    purge_armed_ = true;
    sim_->after(purge_period_, [this] {
      purge_armed_ = false;
      purge(sim_->now());
      if (size_ > 0) arm_purge();
    });
  }

  std::vector<Entry> table_;     // open addressing, power-of-two size
  std::size_t size_ = 0;         // live entries
  std::vector<Deadline> fifo_;   // ring, power-of-two size
  std::size_t fifo_head_ = 0;
  std::size_t fifo_size_ = 0;
  sim::StorageMeter* meter_;
  sim::Simulator* sim_ = nullptr;
  sim::SimDuration purge_period_ = 0;
  bool purge_armed_ = false;
};

}  // namespace paai::protocols
