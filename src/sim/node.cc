#include "sim/node.h"

#include <utility>

#include "sim/link.h"

namespace paai::sim {

void Node::attach_agent(std::unique_ptr<Agent> agent) {
  agent_ = std::move(agent);
  agent_->node_ = this;
}

void Node::log_wire(obs::EventKind kind, const PacketEnv& env) {
  if (events_ == nullptr) return;
  const ByteView wire = env.view();
  events_->append(index_, kind, sim_.now(), /*link=*/-1,
                  wire.empty() ? 0 : wire[0], env.wire_size);
}

void Node::deliver(const PacketEnv& env) {
  if (!up_) {
    ++crash_drops_;
    return;
  }
  log_wire(obs::EventKind::kPacketRecv, env);
  if (agent_) agent_->on_packet(env);
}

void Node::originate(Direction dir, Wire wire, std::size_t wire_size) {
  if (!up_) return;
  Link* link = dir == Direction::kToDest ? toward_dest_ : toward_source_;
  if (link == nullptr) return;
  const PacketEnv env{std::move(wire), wire_size, dir};
  log_wire(obs::EventKind::kPacketSend, env);
  link->transmit(env);
}

void Node::forward(const PacketEnv& env) {
  if (!up_) return;
  Link* link = env.dir == Direction::kToDest ? toward_dest_ : toward_source_;
  if (link == nullptr) return;
  log_wire(obs::EventKind::kPacketForward, env);
  link->transmit(env);
}

void Node::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (events_ != nullptr) {
    events_->append(
        index_, up_ ? obs::EventKind::kNodeRestart : obs::EventKind::kNodeCrash,
        sim_.now());
  }
  if (!up_) {
    for (const CrashHook& hook : crash_hooks_) hook.fn(hook.ctx);
    if (agent_) agent_->on_crash();
  }
}

}  // namespace paai::sim
