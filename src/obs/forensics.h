// Conviction forensics: replay an event log into a causal audit trail.
//
// forensics_analyze() folds a (merged, time-ordered) event stream into a
// ForensicsReport: per-kind totals, per-link evidence (blame counts,
// sample packet ids, the theta trajectory and its threshold crossing),
// and the conviction records the runner stamped at checkpoints and at
// run end (the records stamped with the run-end packet count are the
// run's verdict). write_audit_trail() renders the report as the human-readable
// output of `paai explain` — "which acks/reports led PAAI-1 to convict
// l_3, and when" without a debugger.
//
// The analysis is pure: it never touches the simulator or the registry,
// so a log exported from one machine can be explained on another.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/events.h"

namespace paai::obs {

/// One point of a link's drop-score trajectory (recorded at each blame).
struct ScorePoint {
  std::int64_t ts_ns = 0;
  std::uint64_t observations = 0;
  double theta = 0.0;
};

/// Evidence accumulated against one link.
struct LinkForensics {
  std::size_t link = 0;
  std::uint64_t blames = 0;           // score-blame events naming this link
  std::uint64_t sample_ids_total = 0; // distinct blamed packet ids seen
  std::vector<std::uint64_t> sample_ids;  // first few blamed ids (capped)
  std::vector<ScorePoint> trajectory;     // theta after each blame
  std::int64_t first_blame_ts_ns = -1;    // -1 = never blamed
  std::int64_t crossing_ts_ns = -1;   // first theta > threshold, -1 = never
};

/// One conviction event as the runner recorded it.
struct ConvictionRecord {
  std::size_t link = 0;
  std::int64_t ts_ns = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t observations = 0;
  double theta = 0.0;
};

struct ForensicsReport {
  std::uint64_t total_events = 0;
  std::size_t node_count = 0;  // max node index seen + 1
  std::array<std::uint64_t, kEventKindCount> kind_counts{};

  // From run-start / run-end (zero / -1 when those events were dropped
  // by ring overflow).
  double threshold = -1.0;
  std::uint64_t planned_packets = 0;
  std::uint64_t seed = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t observations = 0;

  std::uint64_t prefix_blames = 0;  // score-blame with link = -1 (PAAI-2)

  std::vector<LinkForensics> links;          // indexed by link id
  std::vector<ConvictionRecord> convictions; // in log order

  std::uint64_t count(EventKind kind) const {
    return kind_counts[static_cast<std::size_t>(kind)];
  }

  /// The run's final verdict: per convicted link, by ascending link, its
  /// latest record stamped with the run-end packet count. Without a
  /// run-end the verdict is unknown and this is empty.
  std::vector<const ConvictionRecord*> verdict() const;
};

/// Folds a time-ordered event stream (EventLog::merged() or read_jsonl())
/// into a report. `max_sample_ids` caps the per-link blamed-id exhibit.
ForensicsReport forensics_analyze(const std::vector<Event>& events,
                                  std::size_t max_sample_ids = 8);

/// Renders the audit trail `paai explain` prints. Links in the verdict()
/// get a "CONVICTED l_<k>" block with evidence counts, score trajectory
/// summary, and the convicting event; exonerated links one summary line.
void write_audit_trail(std::ostream& os, const ForensicsReport& report);

}  // namespace paai::obs
