// Batch experiment as a stream producer.
//
// The streaming engine (src/stream) consumes the forensic JSONL event
// stream; this adapter re-expresses the batch path as a producer of that
// stream: run one experiment with a write-through EventLog attached, so
// each event's line is encoded once the simulated clock has passed it and
// reaches the stream in 64 KiB blocks during the run, and the producer
// holds one timestamp's events and one block at a time whatever the
// run's length. The contract that makes `paai replay`
// bit-identical to the batch run is that every score-relevant event is
// logged by the source (node 0) in exact mutation order; a write-through
// log writes every event it is given, so the stream carries the complete
// mutation history of the scoring state.
#pragma once

#include <cstddef>
#include <iosfwd>

#include "runner/experiment.h"

namespace paai::runner {

struct StreamProduceResult {
  ExperimentResult result;
  std::uint64_t events_recorded = 0;
  /// Always 0: a write-through log drops nothing.
  std::uint64_t events_dropped = 0;
};

/// The per-node ring capacity that drops no event of a run of
/// `total_packets` data packets: 16 per packet, floored at 4096 — the
/// default of `--events-cap`, which sizes the `--trace-out` timeline's
/// rings. Rings grow on demand, so memory follows the events a run
/// records (13-29 per packet over all nodes for PAAI-1, PAAI-2, full-ack
/// and stat-FL at 60k packets), not this bound.
std::size_t drop_free_events_cap(std::uint64_t total_packets);

/// Runs `config` with a write-through event log attached (replacing any
/// `config.path.events` the caller set), writing the stream as JSONL to
/// `os` during the run, a 64 KiB block at a time. Throws std::runtime_error if a write to `os`
/// failed.
StreamProduceResult run_experiment_to_stream(ExperimentConfig config,
                                             std::ostream& os);

}  // namespace paai::runner
