#include "faults/injector.h"

#include <stdexcept>
#include <string>

#include "sim/time.h"

namespace paai::faults {

namespace {

void check_link(std::size_t link, std::size_t d, const char* what) {
  if (link >= d) {
    throw std::invalid_argument(
        std::string("FaultInjector: ") + what + " link " +
        std::to_string(link) + " outside path (d = " + std::to_string(d) +
        ")");
  }
}

}  // namespace

FaultInjector::FaultInjector(sim::Simulator& sim, sim::PathNetwork& net,
                             const FaultPlan& plan)
    : sim_(sim), net_(net), plan_(plan) {
  const std::size_t d = net.length();
  auto& reg = obs::MetricsRegistry::global();
  obs_.outages = reg.counter("faults.outages");
  obs_.restarts = reg.counter("faults.restarts");
  obs_.retunes = reg.counter("faults.retunes");
  obs_.node_drops = reg.counter("faults.node_drops");

  for (const auto& g : plan_.gilbert) {
    check_link(g.link, d, "Gilbert-Elliott");
    processes_.push_back(std::make_unique<GilbertElliott>(g.params));
    net.link(g.link).set_loss_process(processes_.back().get());
  }
  for (const auto& r : plan_.reorders) {
    check_link(r.link, d, "reorder");
    net.link(r.link).set_reordering(r.probability,
                                    sim::milliseconds(r.extra_delay_ms));
  }
  for (const auto& dup : plan_.duplicates) {
    check_link(dup.link, d, "dup");
    net.link(dup.link).set_duplication(dup.probability);
  }

  for (const auto& r : plan_.retunes) {
    check_link(r.link, d, "retune");
    sim::Link* link = &net.link(r.link);
    const auto retunes = obs_.retunes;
    // The entry lives in plan_, which outlives every scheduled event; a
    // pointer keeps the capture within the simulator's event slot.
    const LinkRetune* retune = &r;
    sim_.at(sim::seconds(r.at_seconds), [link, retune, retunes] {
      if (retune->loss) link->set_loss_rate(*retune->loss);
      if (retune->latency_ms) {
        link->set_latency(sim::milliseconds(*retune->latency_ms));
      }
      if (retune->jitter_ms) {
        link->set_jitter(sim::milliseconds(*retune->jitter_ms));
      }
      retunes.add();
    });
  }

  for (const auto& o : plan_.outages) {
    if (o.node < 1 || o.node >= d) {
      throw std::invalid_argument(
          "FaultInjector: outage node " + std::to_string(o.node) +
          " must be an intermediate node (1.." + std::to_string(d - 1) +
          ")");
    }
    sim::Node* node = &net.node(o.node);
    const auto outages = obs_.outages;
    const auto restarts = obs_.restarts;
    sim_.at(sim::seconds(o.at_seconds), [node, outages] {
      node->set_up(false);
      outages.add();
    });
    sim_.at(sim::seconds(o.at_seconds + o.duration_seconds),
            [node, restarts] {
              node->set_up(true);
              restarts.add();
            });
  }
}

bool FaultInjector::burst_active() const {
  for (const auto& process : processes_) {
    if (process->in_bad_state()) return true;
  }
  return false;
}

bool FaultInjector::outage_active(sim::SimTime now) const {
  for (const auto& o : plan_.outages) {
    const sim::SimTime start = sim::seconds(o.at_seconds);
    const sim::SimTime end =
        sim::seconds(o.at_seconds + o.duration_seconds);
    if (now >= start && now < end) return true;
  }
  return false;
}

bool FaultInjector::cover_active(sim::SimTime now) const {
  return burst_active() || outage_active(now);
}

void FaultInjector::finish() {
  std::uint64_t blackholed = 0;
  for (std::size_t i = 0; i <= net_.length(); ++i) {
    blackholed += net_.node(i).crash_drops();
  }
  obs_.node_drops.add(blackholed);
}

}  // namespace paai::faults
