// Incremental scoring engine: the batch protocols' identify phase as a
// consumer of the forensic event stream (obs/events.h).
//
// A batch source scores by applying each event it logs to its
// protocols::Scorer. The score events are node-0 events, so the merged
// JSONL export keeps their append order, and ScoreEngine applies them to
// a Scorer of its own: its estimates, conviction sets and e2e rates are
// the originating run's, bit for bit — `paai replay` asserts this, and
// tests/stream_test.cc proves it per protocol. The event → mutation
// mapping lives once, at Scorer (protocols/score.h).
//
// Around the Scorer the engine keeps what only a stream has: the
// configuration, conviction records, conviction transitions, counters
// and the snapshot walk. Configuration is in-band: the runner opens
// every log with a kRunConfig event (protocol, path length, blame-mode
// code, threshold), so a consumer needs no out-of-band knowledge of what
// produced the stream. An engine can also be configured explicitly
// (restored snapshots, headless pipes); a later kRunConfig that
// contradicts the active configuration is a hard error rather than a
// silent re-score.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/events.h"
#include "obs/metrics.h"
#include "protocols/score.h"

namespace paai::stream {

struct EngineConfig {
  protocols::ProtocolKind protocol = protocols::ProtocolKind::kPaai1;
  std::size_t num_links = 6;
  double threshold = 0.02;
  protocols::BlameSpec blame;
};

/// A batch conviction record observed in the stream (kConviction events
/// are the producer's own verdicts at checkpoints and at run end;
/// ScoreEngine::verdict() selects the final ones).
struct ConvictionRecord {
  std::size_t link = 0;
  std::uint64_t packets = 0;
  std::uint64_t observations = 0;
  double theta = 0.0;
  /// 1-based stream line the record arrived on (0 = unknown: an event
  /// applied without a line number, as in-memory replays do). Diagnostic
  /// only — never compared.
  std::uint64_t line = 0;
};

class ScoreEngine {
 public:
  /// Unconfigured: absorbs nothing until a kRunConfig arrives (or
  /// configure() / state restore runs).
  ScoreEngine() = default;

  explicit ScoreEngine(const EngineConfig& config) { configure(config); }

  /// (Re)configures the engine and resets all scoring state.
  void configure(const EngineConfig& config);

  bool configured() const { return scorer_.has_value(); }
  const EngineConfig& config() const { return config_; }

  /// Applies one event. Score-irrelevant kinds are counted and skipped.
  /// Throws std::runtime_error on an impossible payload (blame on an
  /// out-of-range link, kRunConfig contradicting the active
  /// configuration, score events before any configuration).
  void apply(const obs::Event& event);

  /// Stream-position bookkeeping for replay diagnostics: the feeder
  /// (serve_stream) sets the 1-based line the next event came from;
  /// kConviction records are stamped with it.
  void set_stream_line(std::uint64_t line) { stream_line_ = line; }

  /// Every event fed through apply().
  std::uint64_t events_seen() const { return events_seen_; }
  /// The subset that mutated scoring state or derived counters.
  std::uint64_t events_applied() const { return events_applied_; }

  bool run_ended() const { return run_ended_; }

  /// The Scorer the stream drives; configured engines only.
  const protocols::Scorer& scorer() const { return *scorer_; }

  // --- the Scorer's read side (zero / empty while unconfigured) ---------
  std::uint64_t packets_sent() const;
  std::uint64_t delivered() const;
  std::uint64_t observations() const;
  std::vector<double> thetas() const;
  std::vector<std::size_t> convicted() const;
  double observed_e2e_rate() const;

  /// Links that entered the convicted set since the previous call (or
  /// since configure/restore, which baseline the set). A link that leaves
  /// and re-enters is reported again — conviction is a monotone event for
  /// honest runs, but adversarial estimates can hover at the threshold.
  /// The serve loop polls this after every applied event, so a call that
  /// finds nothing new does not touch the heap.
  std::vector<std::size_t> take_new_convictions();

  /// Batch kConviction records seen in the stream, in order.
  const std::vector<ConvictionRecord>& recorded_convictions() const {
    return recorded_;
  }

  /// The batch run's final verdict: per link, by ascending link, the
  /// latest recorded conviction stamped with the run's final packet count
  /// (checkpoint records carry smaller counts). Empty until the run-end
  /// arrives: without it the verdict is unknown. `paai replay --verify`
  /// checks the engine against it and `paai explain` prints it.
  std::vector<ConvictionRecord> verdict() const;

  // --- snapshot plumbing (stream/state.h) ------------------------------
  /// Walks the Scorer's table state (protocols/window.h StateZeroer
  /// vocabulary): its kind, then every mutable field in snapshot order.
  /// An unconfigured engine lists only kind "none".
  template <class V>
  void visit_table(V& v) const { walk_table(*this, v); }
  template <class V>
  void visit_table(V& v) { walk_table(*this, v); }

  /// Overwrites the mutable counters from a snapshot (state.cc only; the
  /// engine must already be configured with the matching shape).
  void restore_counters(std::uint64_t events_seen, std::uint64_t events_applied,
                        std::uint64_t packets_sent, std::uint64_t delivered,
                        bool run_ended, std::vector<ConvictionRecord> recorded);
  /// Re-baselines conviction-transition tracking at the current state
  /// (called after a restore so already-convicted links are not
  /// re-announced).
  void rebaseline_convictions();

 private:
  template <class Self, class V>
  static void walk_table(Self& e, V& v) {
    if (e.scorer_) {
      e.scorer_->visit(v);
    } else {
      v.kind("none");
    }
  }

  /// Applies a score event to the Scorer; false if it ignored it.
  bool apply_score(const obs::Event& event);

  EngineConfig config_{};
  std::optional<protocols::Scorer> scorer_;

  std::uint64_t events_seen_ = 0;
  std::uint64_t events_applied_ = 0;
  bool run_ended_ = false;
  std::uint64_t stream_line_ = 0;

  std::vector<ConvictionRecord> recorded_;
  // Conviction-transition tracking, reused across take_new_convictions()
  // calls: the baseline set, the current set, and the evidence records.
  std::vector<std::size_t> convicted_before_;
  std::vector<std::size_t> convicted_now_;
  std::vector<protocols::LinkEvidence> evidence_scratch_;

  // Registered with the engine, so the run-config that configures it
  // counts too.
  obs::Counter obs_ingested_ =
      obs::MetricsRegistry::global().counter("stream.events.ingested");
  obs::Counter obs_applied_ =
      obs::MetricsRegistry::global().counter("stream.events.applied");
  obs::Counter obs_convictions_ =
      obs::MetricsRegistry::global().counter("stream.convictions");
};

}  // namespace paai::stream
