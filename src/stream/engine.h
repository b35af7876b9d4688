// Incremental scoring engine: the batch protocols' identify phase,
// re-expressed as a consumer of the forensic event stream (obs/events.h).
//
// The batch sources log every score-table mutation as a typed event at the
// moment it happens — kScoreClean/kScoreBlame/kFlCount carry the full
// mutation payload, kDataSend/kSampleSelect/kAckTimeout carry the derived
// counters (packets sent, probe rounds, lost intervals). All of them are
// node-0 events, so the merged JSONL export preserves their exact append
// order. ScoreEngine replays that order through the *same*
// protocols/score.h classes the batch path uses, with the same calibration
// literals, so its estimates, conviction sets, and e2e rates are
// bit-identical to the originating run's — `paai replay` asserts this, and
// tests/stream_test.cc proves it per protocol.
//
// Configuration is in-band: the runner opens every log with a kRunConfig
// event (protocol, path length, blame-mode code, threshold), so a consumer
// needs no out-of-band knowledge of what produced the stream. An engine
// can also be configured explicitly (restored snapshots, headless pipes);
// a later kRunConfig that contradicts the active configuration is a hard
// error rather than a silent re-score.
//
// Event → mutation mapping (exactly mirroring src/protocols):
//
//   full-ack / comb1 / sigack   kDataSend → packets_sent
//     (ScoreTable)              kAckTimeout → note_probe
//                               kScoreClean → add_clean, delivered
//                               kScoreBlame(link) → blame(link)
//   paai1 (ScoreTable)          same, except kAckTimeout does NOT
//                               note_probe (the batch source never calls
//                               it; exposure is the fixed 2.6) and the
//                               timeout is immediately followed by its
//                               kScoreBlame(0)
//   paai2 (Paai2ScoreTable)     kDataSend → add_data_packet (every packet
//                               is monitored in plain mode)
//                               kScoreClean(b=e) → add_probe(e, false)
//                               kScoreBlame(b=e) → add_probe(e, true)
//   comb2 (Paai2ScoreTable)     like paai2, but kSampleSelect →
//                               add_data_packet (only sampled packets are
//                               monitored)
//   statfl (FlScoreTable)       kFlCount(link=j, b=count) → add_count
//                               kScoreClean → interval_reported
//                               kAckTimeout → interval_lost
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/events.h"
#include "obs/metrics.h"
#include "protocols/context.h"
#include "protocols/score.h"

namespace paai::stream {

struct EngineConfig {
  protocols::ProtocolKind protocol = protocols::ProtocolKind::kPaai1;
  std::size_t num_links = 6;
  double threshold = 0.02;
  protocols::BlameSpec blame;
};

/// A batch conviction record observed in the stream (kConviction events
/// are the producer's own verdicts; replay --verify compares the engine's
/// final conviction set against the final batch records).
struct ConvictionRecord {
  std::size_t link = 0;
  std::uint64_t packets = 0;
  std::uint64_t observations = 0;
  double theta = 0.0;
  /// 1-based stream line the record arrived on (0 = unknown: in-memory
  /// replays and legacy snapshots). Diagnostic only — never compared.
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

  bool configured() const { return table_ != Table::kNone; }
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

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t delivered() const { return delivered_; }
  bool run_ended() const { return run_ended_; }

  // --- the SourceHandle-shaped read side -------------------------------
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

  // --- snapshot plumbing (stream/state.h) ------------------------------
  const protocols::ScoreTable* onion_table() const {
    return onion_ ? &*onion_ : nullptr;
  }
  const protocols::Paai2ScoreTable* prefix_table() const {
    return prefix_ ? &*prefix_ : nullptr;
  }
  const protocols::FlScoreTable* fl_table() const {
    return fl_ ? &*fl_ : nullptr;
  }

  /// Overwrites the mutable counters from a snapshot (state.cc only; the
  /// engine must already be configured with the matching shape).
  void restore_counters(std::uint64_t events_seen, std::uint64_t events_applied,
                        std::uint64_t packets_sent, std::uint64_t delivered,
                        bool run_ended, std::vector<ConvictionRecord> recorded);
  protocols::ScoreTable* mutable_onion_table() {
    return onion_ ? &*onion_ : nullptr;
  }
  protocols::Paai2ScoreTable* mutable_prefix_table() {
    return prefix_ ? &*prefix_ : nullptr;
  }
  protocols::FlScoreTable* mutable_fl_table() { return fl_ ? &*fl_ : nullptr; }
  /// Re-baselines conviction-transition tracking at the current state
  /// (called after a restore so already-convicted links are not
  /// re-announced).
  void rebaseline_convictions();

 private:
  enum class Table : std::uint8_t { kNone, kOnion, kPrefix, kFl };

  void apply_score_clean(const obs::Event& event);
  void apply_score_blame(const obs::Event& event);
  void require_configured(const obs::Event& event) const;
  /// convicted() into `out` (ascending), with `scratch` for the
  /// estimates; both are overwritten.
  void convicted(std::vector<std::size_t>* out,
                 std::vector<double>* scratch) const;

  EngineConfig config_{};
  Table table_ = Table::kNone;
  std::optional<protocols::ScoreTable> onion_;
  std::optional<protocols::Paai2ScoreTable> prefix_;
  std::optional<protocols::FlScoreTable> fl_;

  std::uint64_t events_seen_ = 0;
  std::uint64_t events_applied_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t delivered_ = 0;
  bool run_ended_ = false;
  std::uint64_t stream_line_ = 0;

  std::vector<ConvictionRecord> recorded_;
  // Conviction-transition tracking, reused across take_new_convictions()
  // calls: the baseline set, the current set, and estimate scratch.
  std::vector<std::size_t> convicted_before_;
  std::vector<std::size_t> convicted_now_;
  std::vector<double> theta_scratch_;

  obs::Counter obs_ingested_;
  obs::Counter obs_applied_;
  obs::Counter obs_convictions_;
};

}  // namespace paai::stream
