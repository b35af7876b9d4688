// Conviction audit trail of a recorded event log: `paai explain`.
//
// The trail is a replay. read_audit_trail() reads the log line by line
// (obs::EventReader) into a ScoreEngine that configures itself from the
// log's run-config, and beside the engine books a slim per-event exhibit:
// per-kind counts, each link's blame count, first blamed packet ids and
// first-blame time, and the time each link last entered the engine's
// convicted set. Every theta the trail prints is the engine's: the score
// trajectory point after each blame, and each link's final evidence
// record (protocols::LinkEvidence): theta, its standard error sd and the
// margin distance theta - sd - threshold, which is positive exactly when
// the margin clause clears. The verdict is ScoreEngine::verdict(), the
// rule `paai replay --verify` checks; a log without its run-end has an
// unknown verdict.
//
// A log that does not parse, carries an impossible payload, or never
// configures the engine (a truncated log that lost its run-config) is an
// error, never a trail — the same fail-closed reading as `paai replay`.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/events.h"
#include "stream/engine.h"

namespace paai::stream {

class AuditTrail {
 public:
  /// Blamed packet ids kept per link for the exhibit.
  static constexpr std::size_t kSampleIds = 8;

  /// The exhibit against one link.
  struct LinkExhibit {
    std::uint64_t blames = 0;
    std::vector<std::uint64_t> sample_ids;  // the first kSampleIds blamed
    std::vector<double> trajectory;         // engine theta after each blame
    std::int64_t first_blame_ns = -1;       // -1 = never blamed
    std::int64_t entered_ns = -1;  // last entry into the convicted set
  };

  /// Feeds one event, read from 1-based log line `line` (0 = unknown),
  /// through the engine and books its exhibit. Throws std::runtime_error
  /// on an impossible payload (ScoreEngine::apply).
  void apply(const obs::Event& event, std::uint64_t line = 0);

  const ScoreEngine& engine() const { return engine_; }
  /// Per link, by link id; empty until the engine is configured.
  const std::vector<LinkExhibit>& links() const { return links_; }

  /// Renders the trail: a "CONVICTED l_<k>" block per verdict link, then
  /// one line per other link naming the --blame rule that acquits it.
  void write(std::ostream& os) const;

 private:
  std::uint64_t count(obs::EventKind kind) const {
    return kind_counts_[static_cast<std::size_t>(kind)];
  }

  ScoreEngine engine_;
  std::uint64_t events_ = 0;
  std::size_t nodes_ = 0;  // max node index seen + 1
  std::array<std::uint64_t, obs::kEventKindCount> kind_counts_{};
  std::uint64_t prefix_blames_ = 0;  // score-blame without a named link
  std::vector<LinkExhibit> links_;
};

/// Reads `in` line by line into `trail`. False with `error` ("line N:
/// ...") on a malformed line or an impossible payload, and on a log that
/// never configured the engine.
bool read_audit_trail(std::istream& in, AuditTrail& trail, std::string* error);

}  // namespace paai::stream
