// Declarative adversary specs: the --adversary grammar.
//
// Mirrors faults::FaultPlan exactly: one compact clause form
//
//   plan   := clause (';' clause)*
//   clause := kind '@' node ':' key '=' value (',' key '=' value)*
//
// parsed through util/specgrammar, round-tripping through
// to_string()/parse(), and failing loudly on any malformed input. Clause
// kinds:
//
//   uniform@N:rate=R                 drop everything at R (Corollary 1)
//   type@N:data=R,probe=R,ack=R     per-packet-type rates
//   ack@N:rate=R                     drop only reverse-path reports/acks
//   corrupt@N:rate=R                 alter packets at R
//   withhold@N:rate=R[,release=0|1]  withhold data; release=1 frees on probe
//   originfilter@N:min=K             drop report acks from origins >= K
//   burst@N:burst=B,period=P         drop B of every P data packets
//   collude@N:rate=R                 drop only inside benign fault windows
//   stealth@N:margin=M               ride at M x psi_th projected blame
//   probeshy@N:rate=R,cooldown=C     pause C seconds after being probed
//   onoff@N:rate=R,on=A,off=B        jellyfish duty cycle (A on, B off)
//
// N is the compromised node index F_N; the blame its drops create lands on
// the downstream link l_N (§8.1 tactic (b)).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/strategy.h"
#include "util/rng.h"

namespace paai::adversary {

/// One compromised node's behaviour. Field defaults match the paper's
/// reference adversary (F_4 dropping uniformly at 0.02).
struct Spec {
  enum class Kind {
    kUniform,          // drop everything at `rate` (Corollary 1 optimum)
    kTypeRates,        // per-packet-type rates
    kAckOnly,          // drop only reverse-path reports/acks
    kCorrupt,          // alter packets at `rate`
    kWithholdDrop,     // withhold data; drop unless probed
    kWithholdRelease,  // withhold data; release (stale) when probed
    kOriginFilter,     // drop report acks from origins >= min_origin
    kBurst,            // drop `burst` of every `period` data packets
    kFaultCollude,     // adaptive: drop only under benign fault cover
    kThresholdStealth, // adaptive: ride margin x psi_th projected blame
    kProbeShy,         // adaptive: back off after observing a probe
    kOnOff,            // adaptive: on/off duty cycle (jellyfish)
  };

  std::size_t node = 4;  // compromised node index (1..d-1)
  Kind kind = Kind::kUniform;
  double rate = 0.02;
  adversary::TypeRates type_rates{};
  std::uint8_t min_origin = 3;       // kOriginFilter only
  std::uint32_t burst = 30;          // kBurst only
  std::uint32_t burst_period = 100;  // kBurst only
  double margin = 0.9;               // kThresholdStealth only
  double cooldown_s = 2.0;           // kProbeShy only
  double on_s = 5.0;                 // kOnOff only
  double off_s = 15.0;               // kOnOff only

  /// Canonical single-clause rendering ("stealth@4:margin=0.9").
  std::string to_string() const;

  /// Time-averaged data-plane drop rate the strategy inflicts on its
  /// downstream links — the rate the mesh stat engine (src/mesh) maps a
  /// node spec onto every outgoing topology link. `cover_fraction` is the
  /// long-run fraction of time benign fault cover is active (collude
  /// drops only then); `decision_threshold` calibrates the
  /// threshold-stealth rider (it parks its projected blame at margin x
  /// threshold). Control-plane-only kinds (ack, originfilter) drop no
  /// data and return 0; probe-shy ignores its cooldown (a conservative
  /// upper bound). Exact behavioural semantics need the packet engine.
  double mean_drop_rate(double cover_fraction,
                        double decision_threshold) const;
};

/// An ordered list of Specs, at most one per node. Parse accepts the
/// compact grammar and the empty string (no adversary).
struct AdversaryPlan {
  std::vector<Spec> specs;

  static AdversaryPlan parse(std::string_view text);

  /// Appends one clause; a second clause for the same node throws (at
  /// most one strategy per compromised node, across every clause source).
  void add(const Spec& spec);

  /// Canonical compact rendering; parse(to_string()) reproduces the plan
  /// bit-for-bit (doubles render via shortest-round-trip to_chars).
  std::string to_string() const;

  bool empty() const { return specs.empty(); }
};

/// Builds the Strategy a Spec describes. `env` carries the public protocol
/// parameters and the ambient fault-cover signal; `rng` must be a stream
/// forked exclusively for this strategy (determinism across --jobs relies
/// on every strategy owning its own stream).
std::unique_ptr<Strategy> make_strategy(const Spec& spec,
                                        const Environment& env, Rng rng);

}  // namespace paai::adversary
