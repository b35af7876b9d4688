// The long-running half of `paai serve` / `paai replay`: pump a JSONL
// event stream (file, pipe, FIFO, stdin) through a ScoreEngine.
//
// The loop is deliberately synchronous — one reader, one engine, no
// threads. Liveness comes from the transport: reading a FIFO blocks until
// a producer writes, so the service naturally idles between bursts.
// Interruption is cooperative: the caller owns a `volatile sig_atomic_t`
// flag (typically flipped by a SIGINT handler), and the loop checks it
// between events — a drain stops at an event boundary, never mid-parse,
// and the final snapshot (when --state-out is set) captures a consistent
// engine.
//
// Conviction announcements are emitted as single-line JSON objects the
// moment a link's estimate enters the convicted set, so a supervisor can
// tail the output; a final snapshot is written on every exit path
// (EOF, drain, fail-fast error) — restart with --state-in to continue.
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "stream/engine.h"

namespace paai::obs {
class TelemetrySink;
}  // namespace paai::obs

namespace paai::stream {

struct ServeConfig {
  /// Snapshot cadence in *applied* events; 0 disables periodic snapshots
  /// (the exit snapshot still happens when `state_out` is set).
  std::uint64_t snapshot_every = 0;
  /// Snapshot target path; empty = no snapshots.
  std::string state_out;
  /// Stop at the first malformed line (replay semantics). When false,
  /// malformed lines are counted and skipped (lossy-transport serving).
  bool fail_fast = true;
  /// Announce conviction transitions as JSON lines on the log stream.
  bool announce = true;
  /// Optional live telemetry sink (obs/telemetry.h), ticked on applied
  /// events with the event's virtual clock. Purely observational.
  paai::obs::TelemetrySink* telemetry = nullptr;
  /// Optional back-pressure probe: bytes of input the transport has
  /// buffered but the loop has not yet consumed (a slow consumer makes
  /// this grow). The CLI wires file_size - tellg for file inputs; null =
  /// backlog unknown. Sampled every few hundred events, never per event.
  std::function<std::int64_t()> backlog_bytes;
};

struct ServeReport {
  std::uint64_t events = 0;        // parsed events fed to the engine
  std::uint64_t applied = 0;       // engine-applied (score-relevant) events
  std::uint64_t parse_errors = 0;  // malformed lines (skipped or fatal)
  std::uint64_t snapshots = 0;     // state documents written
  std::size_t lines = 0;           // lines consumed from the transport
  bool interrupted = false;        // the stop flag ended the loop
  bool failed = false;             // fail-fast parse error or apply error
  std::string error;               // first failure description
  /// Links whose estimates entered the convicted set during this serve.
  std::vector<std::size_t> new_convictions;
  // --- back-pressure (always populated; stall timers only when an
  // observer — a telemetry sink or the metrics registry — is on).
  // The two stalls are chained intervals: together they cover the loop
  // except snapshot writes and telemetry samples.
  double wall_seconds = 0.0;           // loop wall time, reader included
  std::uint64_t parse_stall_ns = 0;    // reading + parsing a line
  std::uint64_t apply_stall_ns = 0;    // applying + booking an event
  std::int64_t peak_backlog_bytes = 0;   // high-water of backlog probe
  std::int64_t final_backlog_bytes = 0;  // probe value at exit
};

/// Pumps `in` through `engine` until EOF, a fatal error, or `*stop != 0`.
/// Progress and conviction announcements go to `log`.
ServeReport serve_stream(ScoreEngine& engine, std::istream& in,
                         std::ostream& log, const ServeConfig& config,
                         const volatile std::sig_atomic_t* stop = nullptr);

}  // namespace paai::stream
