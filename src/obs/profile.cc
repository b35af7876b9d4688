#include "obs/profile.h"

#include <array>
#include <string>

namespace paai::obs {

namespace {

constexpr const char* kPhaseNames[kPhaseCount] = {
    "sim-loop",     "crypto",       "exec-task", "mesh-stat",
    "mesh-packet",  "stream-parse", "stream-apply", "snapshot",
};

struct PhaseCounters {
  Counter ns;
  Counter calls;
};

}  // namespace

const char* phase_name(Phase phase) {
  return kPhaseNames[static_cast<std::size_t>(phase)];
}

void detail::charge_phase(Phase phase, std::uint64_t ns) {
  // Registered on the first charge, i.e. only once the registry is on.
  static const std::array<PhaseCounters, kPhaseCount> counters = [] {
    std::array<PhaseCounters, kPhaseCount> out;
    MetricsRegistry& registry = MetricsRegistry::global();
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      const std::string base = std::string("phase.") + kPhaseNames[p];
      out[p] = {registry.counter(base + ".ns"),
                registry.counter(base + ".calls")};
    }
    return out;
  }();
  const PhaseCounters& c = counters[static_cast<std::size_t>(phase)];
  c.ns.add(ns);
  c.calls.add();
}

}  // namespace paai::obs
