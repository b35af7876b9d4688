// Phases: where the wall time went, as counters in the metrics registry.
//
// The simulator event loop, the crypto hot loops every protocol leans
// on, the exec pool's task bodies, the mesh engines' tile work, and the
// stream service's parse/apply halves each get a phase. A phase is two
// counters of obs::MetricsRegistry::global(): `phase.<name>.ns`, its
// exclusive self time, and `phase.<name>.calls`. They share the
// registry's one enable switch, so a ScopedPhase on a hot path costs one
// relaxed load and a predicted-not-taken branch while the registry is
// disabled — no call, no clock read, no thread-local access — and the
// instrumentation is safe to leave compiled in everywhere.
//
// Phase time is exclusive self time. Each thread keeps a pointer to its
// innermost open ScopedPhase; a closing scope charges its elapsed time
// minus its children's, and hands its elapsed time to its parent. Crypto
// inside the sim loop is charged to crypto only, so one thread's phases
// sum to at most its wall time, and the phases of a single-threaded run
// sum to the run's wall time minus whatever no scope covers. A scope is
// charged when it closes: a sample taken while the sim loop is still
// running shows the loop's nested phases, and the loop's own self time
// lands in the sample after it returns.
//
// Like every registry write, phases are strictly observational (see the
// carve-out in runner/experiment.h): no simulation result ever reads
// them — `Integration.ProfilerNeverAffectsResults` in
// tests/telemetry_test.cc asserts bit-identical results with the
// registry on and off for all seven protocols.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"

namespace paai::obs {

enum class Phase : std::uint8_t {
  kSimLoop,      // sim::Simulator::run / run_until event loops
  kCrypto,       // CryptoProvider hash/mac/prf/encrypt/decrypt, W-OTS
  kExecTask,     // exec::ThreadPool task bodies
  kMeshStat,     // mesh statistical engine tile bodies
  kMeshPacket,   // mesh packet engine per-path experiments
  kStreamParse,  // stream service: reading + parsing a line
  kStreamApply,  // stream service: applying + booking an event
  kSnapshot,     // state snapshots + telemetry sampling itself
};

inline constexpr std::size_t kPhaseCount = 8;

/// Stable kebab-case name ("sim-loop", "crypto", ...); a string literal.
const char* phase_name(Phase phase);

namespace detail {
/// Adds `ns` and one call to the phase's counters, registering them on
/// first use.
void charge_phase(Phase phase, std::uint64_t ns);
}  // namespace detail

/// RAII phase timer charging exclusive self time (see the header comment).
/// The clock and the thread's open-scope pointer are touched only while
/// the registry is enabled, so a disabled registry pays two branches per
/// scope.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase) : phase_(phase) {
    if (!detail::enabled()) return;
    active_ = true;
    parent_ = open_;
    open_ = this;
    start_ = std::chrono::steady_clock::now();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    if (!active_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    const std::uint64_t elapsed = ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
    open_ = parent_;
    if (parent_ != nullptr) parent_->child_ns_ += elapsed;
    detail::charge_phase(phase_, elapsed > child_ns_ ? elapsed - child_ns_ : 0);
  }

 private:
  friend void add_phase(Phase phase, std::uint64_t ns);

  // This thread's innermost open active scope.
  static inline constinit thread_local ScopedPhase* open_ = nullptr;

  Phase phase_;
  bool active_ = false;
  ScopedPhase* parent_ = nullptr;
  std::uint64_t child_ns_ = 0;
  std::chrono::steady_clock::time_point start_{};
};

/// Folds one hand-timed leaf call into the phase and credits it to this
/// thread's innermost open ScopedPhase, which then does not count it
/// again (no-op while the registry is disabled).
inline void add_phase(Phase phase, std::uint64_t ns) {
  if (!detail::enabled()) return;
  detail::charge_phase(phase, ns);
  if (ScopedPhase::open_ != nullptr) ScopedPhase::open_->child_ns_ += ns;
}

}  // namespace paai::obs
