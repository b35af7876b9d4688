// Node and Agent: the simulator-side runtime of one path element.
//
// A Node owns the mechanics (links, clock, storage meter); the attached
// Agent owns the protocol logic (full-ack / PAAI-1 / PAAI-2 / ... source,
// relay, or destination behaviour). Adversarial behaviour is injected into
// relay agents, never into Links — matching the paper's model where links
// only exhibit *natural* loss and all malice comes from compromised nodes.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "obs/events.h"
#include "sim/simulator.h"
#include "sim/storage.h"
#include "sim/wire.h"
#include "util/bytes.h"

namespace paai::sim {

class Link;
class Node;

/// Travel direction of a packet on the path.
enum class Direction : std::uint8_t {
  kToDest,    // S -> D (data, probes, report requests)
  kToSource,  // D -> S (acks, reports)
};

/// A packet in flight. `wire` holds the protocol header bytes (a pooled,
/// refcounted buffer, so relays forward without copying; see sim/wire.h)
/// and, for a data packet, its H(m) as `wire.id()`; `wire_size`
/// additionally counts the simulated application payload.
struct PacketEnv {
  Wire wire;
  std::size_t wire_size = 0;
  Direction dir = Direction::kToDest;

  ByteView view() const { return wire.view(); }
};

class Agent {
 public:
  virtual ~Agent() = default;

  /// Called once when the simulation starts.
  virtual void start() {}

  /// Called for every packet delivered to this node.
  virtual void on_packet(const PacketEnv& env) = 0;

  /// Called when the node crashes (faults::FaultInjector outage
  /// schedule). Pending tables registered via PendingStore::attach are
  /// dropped by the node's crash hooks before this runs; override to
  /// discard any *additional* volatile protocol state (e.g. statistical
  /// FL's interval counters). Wait timers already in the event queue may
  /// still fire — handlers must tolerate their entry having vanished,
  /// which is the same recovery path an expired entry exercises.
  virtual void on_crash() {}

 protected:
  Node& node() const { return *node_; }

 private:
  friend class Node;
  Node* node_ = nullptr;
};

class Node {
 public:
  Node(Simulator& sim, std::size_t index) : sim_(sim), index_(index) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  void attach_agent(std::unique_ptr<Agent> agent);
  Agent* agent() { return agent_.get(); }

  /// Called by a Link when a packet survives the traversal.
  void deliver(const PacketEnv& env);

  /// Puts a new packet on the wire in its direction. No-op when the node
  /// is the last one in that direction (S upstream / D downstream).
  void originate(Direction dir, Wire wire, std::size_t wire_size);

  /// Forwards a received packet unchanged in its travel direction.
  void forward(const PacketEnv& env);

  Simulator& sim() { return sim_; }
  std::size_t index() const { return index_; }
  StorageMeter& storage() { return storage_; }
  const StorageMeter& storage() const { return storage_; }

  /// Local clock: simulation time plus this node's (loose-sync) offset.
  SimTime local_now() const { return sim_.now() + clock_offset_; }
  void set_clock_offset(SimDuration offset) { clock_offset_ = offset; }

  /// Crash/restart (transient outage). While down the node blackholes
  /// every delivery and cannot originate or forward; crashing first runs
  /// the registered crash hooks (dropping in-flight pending state), then
  /// Agent::on_crash(). Restart is just coming back up — agents rebuild
  /// their state from traffic, exactly like a rebooted router.
  bool up() const { return up_; }
  void set_up(bool up);

  /// Registers `hook(ctx)` to run on every crash (see
  /// PendingStore::attach). Non-owning: `ctx` must outlive the node.
  void add_crash_hook(void (*hook)(void*), void* ctx) {
    crash_hooks_.push_back(CrashHook{hook, ctx});
  }

  /// Ground truth for tests: packets blackholed while the node was down.
  std::uint64_t crash_drops() const { return crash_drops_; }

  void set_link_toward_source(Link* l) { toward_source_ = l; }
  void set_link_toward_dest(Link* l) { toward_dest_ = l; }
  Link* link_toward_source() { return toward_source_; }
  Link* link_toward_dest() { return toward_dest_; }

  /// Event log destination (set by PathNetwork at construction); may be
  /// nullptr (logging off — one branch per packet). Strictly
  /// observational.
  void set_obs(obs::EventLog* events) { events_ = events; }
  obs::EventLog* events() { return events_; }

 private:
  /// Records a node-level wire event (a = first wire byte = packet type,
  /// b = simulated wire size) in the structured log.
  void log_wire(obs::EventKind kind, const PacketEnv& env);

  Simulator& sim_;
  std::size_t index_;
  std::unique_ptr<Agent> agent_;
  StorageMeter storage_;
  SimDuration clock_offset_ = 0;
  bool up_ = true;
  std::uint64_t crash_drops_ = 0;
  struct CrashHook {
    void (*fn)(void*);
    void* ctx;
  };
  std::vector<CrashHook> crash_hooks_;
  Link* toward_source_ = nullptr;
  Link* toward_dest_ = nullptr;
  obs::EventLog* events_ = nullptr;
};

}  // namespace paai::sim
