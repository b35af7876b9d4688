// FaultPlan: a declarative, schedule-driven description of benign faults.
//
// A plan is a list of clauses in one compact grammar — see docs/FAULTS.md
// for the full reference:
//
//   plan    := clause (';' clause)*
//   clause  := kind '@' index ':' key '=' value (',' key '=' value)*
//
//   ge@L      : pg=, pb=, g2b=, b2g=          Gilbert–Elliott on link L
//   set@L     : t=, loss=, lat=, jitter=      retune link L at t seconds
//   outage@N  : t=, dur=                      crash node N at t for dur s
//   reorder@L : p=, delay=                    reordering knob on link L
//   dup@L     : p=                            duplication knob on link L
//
// Times/durations are seconds, latencies/delays milliseconds, everything
// else per-traversal probabilities.
//
// Plans carry no RNG state of their own: all randomness is drawn from the
// per-link streams at simulation time, so a plan is bit-identical across
// --jobs values and repeated runs — the same property everything in
// src/exec relies on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "faults/loss_process.h"

namespace paai::faults {

struct GilbertElliottFault {
  std::size_t link = 0;
  GilbertElliott::Params params;
};

/// Piecewise link schedule point: at `at_seconds`, set the given knobs on
/// the link (absent knobs keep their current value). Several clauses for
/// the same link form a loss/latency churn schedule.
struct LinkRetune {
  std::size_t link = 0;
  double at_seconds = 0.0;
  std::optional<double> loss;        // per-traversal drop probability
  std::optional<double> latency_ms;  // new base latency
  std::optional<double> jitter_ms;   // new per-traversal jitter bound
};

/// Crash node `node` at `at_seconds` for `duration_seconds`: every
/// delivery in the window is blackholed and the node's in-flight protocol
/// state (pending tables, interval counters) is dropped.
struct NodeOutage {
  std::size_t node = 0;
  double at_seconds = 0.0;
  double duration_seconds = 0.0;
};

struct ReorderFault {
  std::size_t link = 0;
  double probability = 0.0;
  double extra_delay_ms = 0.0;
};

struct DuplicateFault {
  std::size_t link = 0;
  double probability = 0.0;
};

struct FaultPlan {
  std::vector<GilbertElliottFault> gilbert;
  std::vector<LinkRetune> retunes;
  std::vector<NodeOutage> outages;
  std::vector<ReorderFault> reorders;
  std::vector<DuplicateFault> duplicates;

  bool empty() const {
    return gilbert.empty() && retunes.empty() && outages.empty() &&
           reorders.empty() && duplicates.empty();
  }

  /// Worst base latency any retune can impose (0 when none retunes
  /// latency). The runner folds the excess over the path's configured
  /// maximum into the RTT bounds, so wait timers are provisioned for the
  /// schedule the way a deployment provisions for its SLA envelope.
  double max_latency_ms() const;

  /// Worst per-traversal extra delay (reordering, jitter retunes) —
  /// likewise folded into timer provisioning.
  double max_extra_delay_ms() const;

  /// Canonical compact-grammar rendering (parse(to_string()) round-trips).
  std::string to_string() const;

  /// Parses the compact grammar (blank = no faults). Throws
  /// std::invalid_argument with a pointed message on any malformed
  /// clause, unknown key, or out-of-range value.
  static FaultPlan parse(std::string_view spec);
};

/// A shipped, named benign fault plan (calibrated for the paper's
/// reference path: d = 6, rho = 0.01, threshold 0.018, 100 pps).
struct NamedPlan {
  const char* name;
  const char* spec;
};

/// The benign plans the chaos suite and bench_robustness sweep. Each is
/// calibrated so that an honest path's time-averaged per-link loss stays
/// clearly below the accusation threshold — the protocols must ride them
/// out without convicting anyone.
const std::vector<NamedPlan>& benign_plans();

}  // namespace paai::faults
