// Batch experiment as a stream producer.
//
// The streaming engine (src/stream) consumes the forensic JSONL event
// stream; this adapter re-expresses the batch path as a producer of that
// stream: run one experiment with an EventLog attached, then emit the
// merged log as JSONL. The contract that makes `paai replay` bit-identical
// to the batch run is *drop-freeness*: every score-relevant event is
// logged by the source (node 0) in exact mutation order, so as long as
// node 0's ring never overflows, the exported stream contains the complete
// mutation history of the scoring state. run_experiment_to_stream() sizes
// the ring for that by default and reports the drop counter so callers can
// hard-fail when a caller-chosen capacity turned out too small.
#pragma once

#include <cstddef>
#include <iosfwd>

#include "runner/experiment.h"

namespace paai::runner {

struct StreamProduceResult {
  ExperimentResult result;
  std::uint64_t events_recorded = 0;
  /// Ring-overflow casualties. Must be 0 for the replay-equivalence
  /// guarantee to hold; nonzero means the caller's `events_cap` was too
  /// small for the run.
  std::uint64_t events_dropped = 0;
};

/// The per-node event-ring capacity that drops no event of a run of
/// `total_packets` data packets: 16 per packet, floored at 4096. Rings
/// grow on demand, so memory follows the events a run records (13-29
/// per packet over all nodes for PAAI-1, PAAI-2, full-ack and stat-FL
/// at 60k packets), not this bound.
std::size_t drop_free_events_cap(std::uint64_t total_packets);

/// Runs `config` with a forensic event log attached (replacing any
/// `config.path.events` the caller set) and writes the merged stream as
/// JSONL to `os`. `events_cap` is the per-node ring capacity; 0 picks
/// drop_free_events_cap().
StreamProduceResult run_experiment_to_stream(ExperimentConfig config,
                                             std::ostream& os,
                                             std::size_t events_cap = 0);

}  // namespace paai::runner
