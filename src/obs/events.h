// Typed, virtual-clock-stamped, bounded per-node structured event log.
//
// Where the metrics registry answers "how many", the event log answers
// "which packet, at which node, in what order": every protocol decision
// that feeds a conviction (data send, sample selection, ack receipt or
// timeout, onion-layer decode, score update, the conviction itself) is
// recorded as a typed event stamped with the simulated clock. The log is
// strictly observational — a null `EventLog*` costs one branch on the hot
// path, and enabling it never changes simulation results (asserted by
// `Integration.EventsNeverAffectResults` in tests/obs_test.cc).
//
// The log keeps events in one of two ways, or both. A ring log keeps a
// bounded ring per node (oldest events overwritten on overflow;
// `dropped()` counts the loss) so a runaway run cannot exhaust memory;
// `--trace-out` renders it. A write-through log (`--events-out`,
// runner::run_experiment_to_stream) encodes each event's JSONL line once
// the simulated clock has passed its timestamp and hands the stream a
// 64 KiB block of lines at a time (the rest at finish()), so it holds
// only the newest timestamp's events whatever the run's length. The log is
// single-writer by design: it has no internal synchronization, and the
// Monte-Carlo driver attaches it to run 0 only so the recorded stream is
// bit-identical for any `--jobs` value.
//
// Export is deterministic JSONL (one strict-JSON object per line, merged
// across nodes in (ts_ns, node, seq) order); both ways write the same
// bytes. `paai explain` replays an exported log through the stream engine
// into a conviction audit trail (stream/explain.h). The rings' merged
// stream renders as a Chrome trace_event timeline (`--trace-out`; load it
// in chrome://tracing or https://ui.perfetto.dev).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace paai::obs {

enum class EventKind : std::uint8_t {
  // Run lifecycle (logged by the runner; node = source).
  kRunStart,      // a = total packets planned, b = path seed, v = threshold
  kRunEnd,        // a = packets sent, b = score observations
  // Protocol decisions (logged through ProtocolContext; node = source).
  kDataSend,      // a = packet id64, b = sequence number
  kSampleSelect,  // a = packet id64 (or interval for stat-FL)
  kProbeSend,     // a = packet id64
  kAckRecv,       // a = packet id64, b = 0 dest-ack / 1 report / 2 fl-report
  kAckTimeout,    // a = packet id64 (or interval for stat-FL)
  kOnionDecode,   // a = packet id64, b = valid layers (prefix length)
  kScoreClean,    // a = packet id64, b = observations after update
  kScoreBlame,    // link = blamed link (-1 = prefix evidence),
                  // a = packet id64, b = observations, v = theta after
  kConviction,    // link, a = packets sent, b = observations, v = theta
  // Node-level wire activity (logged by sim::Node; node = that node).
  kPacketSend,    // a = first wire byte (packet type), b = wire size
  kPacketRecv,    // a = first wire byte (packet type), b = wire size
  kPacketForward, // a = first wire byte (packet type), b = wire size
  kNodeCrash,
  kNodeRestart,
  // Stream self-description (logged by the runner right after kRunStart;
  // node = source). Carries everything src/stream needs to reconstruct
  // the scoring state without out-of-band configuration.
  kRunConfig,     // a = ProtocolKind, b = path length d,
                  // link = blame-mode code (BlameSpec::encode32; 0 =
                  // margin),
                  // v = decision threshold
  // Statistical FL: one event per node when a reporting interval folds
  // into the accumulated counts (node = source, logged before the
  // interval's kScoreClean).
  kFlCount,       // link = counted node index (0..d), a = interval,
                  // b = that node's sampled count for the interval
};

inline constexpr std::size_t kEventKindCount = 18;

/// Stable kebab-case name ("data-send", "score-blame", ...) used in the
/// JSONL export; round-trips through event_kind_from_name().
const char* event_kind_name(EventKind kind);

/// Inverse of event_kind_name(); nullopt for unknown names.
std::optional<EventKind> event_kind_from_name(std::string_view name);

struct Event {
  std::int64_t ts_ns = 0;   // simulated clock (sim::SimTime)
  std::uint64_t seq = 0;    // per-node monotonic append index
  std::uint64_t a = 0;      // kind-specific (usually packet id64)
  std::uint64_t b = 0;      // kind-specific (seq / layers / observations)
  double value = 0.0;       // kind-specific (theta / threshold)
  std::int32_t link = -1;   // link index, -1 = not link-scoped
  std::uint16_t node = 0;   // path position F_i of the logging node
  EventKind kind = EventKind::kRunStart;

  friend bool operator==(const Event& x, const Event& y) {
    return x.ts_ns == y.ts_ns && x.seq == y.seq && x.a == y.a &&
           x.b == y.b && x.value == y.value && x.link == y.link &&
           x.node == y.node && x.kind == y.kind;
  }
};

/// First 8 bytes of a 16-byte net::PacketId as a correlation handle. Two
/// ids sharing a prefix is a 2^-64 event per pair — fine for forensics.
inline std::uint64_t event_id64(const std::uint8_t* id_bytes) {
  std::uint64_t v = 0;
  std::memcpy(&v, id_bytes, sizeof v);
  return v;
}

// The event-line codec. Every line of the JSONL export has exactly this
// shape — fixed key order, no whitespace, newline-terminated:
//
//   {"ts_ns":I,"node":I,"seq":U,"kind":"NAME"[,"link":I],"a":"U","b":"U","v":NUM|null}
//
// `ts_ns` is an i64 and `seq` a u64, both exact; `node` is in [0, 65535];
// `link` is present only when >= 0 and is at most INT32_MAX; no integer
// is spelled `-0`. `a` and `b` are u64 decimal strings, so full 64-bit ids
// survive double-typed JSON parsers; `v` is the %.17g rendering of a
// finite double (`-0` keeps its sign), or null for a non-finite one
// (decoded as 0.0). Every line is strict JSON.

/// Upper bound on one encoded line, newline included.
inline constexpr std::size_t kEventLineMaxBytes = 256;

/// Writes `e` as one canonical line, newline included, into `out` (at
/// least kEventLineMaxBytes long); returns the line's length.
std::size_t encode_event_line(const Event& e, char* out);

/// Parses one canonical line (without its newline). Anything else —
/// whitespace, reordered or unknown keys, a non-integer or out-of-range
/// integer field, a malformed number — returns false with a description
/// that names the field (`node: out of range`, no line prefix) in `*what`
/// when `what` is non-null; `*out` is then untouched.
bool decode_event_line(std::string_view line, Event* out, std::string* what);

class EventLog {
 public:
  /// A ring log: each node keeps its newest `per_node_capacity` events
  /// (rounded up to 1).
  explicit EventLog(std::size_t per_node_capacity = 1 << 14);

  /// A write-through log: each event is encoded as its JSONL line once
  /// an append with a later timestamp shows the clock has passed it, in
  /// write_jsonl()'s order and bytes, and `out` gets the lines a full
  /// 64 KiB block at a time. It holds only the events of the newest
  /// timestamp and one block; finish() writes the rest.
  /// `per_node_capacity` > 0 also keeps rings of that size (the
  /// `--trace-out` timeline); 0 keeps none.
  explicit EventLog(std::ostream& out, std::size_t per_node_capacity = 0);

  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Appends one event attributed to path position `node`. Single-writer:
  /// callers must not append from two threads concurrently (the
  /// Monte-Carlo driver guarantees this by attaching the log to run 0
  /// only). Timestamps must not fall: a write-through log throws
  /// std::logic_error on an append below its held timestamp, a ring log
  /// on one below the node's previous append (merged() relies on both).
  void append(std::size_t node, EventKind kind, std::int64_t ts_ns,
              std::int32_t link = -1, std::uint64_t a = 0,
              std::uint64_t b = 0, double value = 0.0);

  /// Write-through: writes the held events and the last block, flushes
  /// the stream, and throws std::runtime_error if any write failed. Call
  /// once, after the run. No-op for a ring log.
  void finish();

  std::uint64_t recorded() const { return recorded_; }
  /// Ring overwrites (a write-through line is never lost).
  std::uint64_t dropped() const { return dropped_; }
  /// Events held in the rings.
  std::uint64_t retained() const {
    return capacity_ == 0 ? 0 : recorded_ - dropped_;
  }
  /// 0 for a write-through log that keeps no rings.
  std::size_t per_node_capacity() const { return capacity_; }
  /// Highest node index appended to + 1 (0 when empty).
  std::size_t nodes() const { return rings_.size(); }

  /// Ring log only (asserted): forgets every event. A write-through
  /// log's written lines cannot be taken back.
  void clear();

  /// All retained events merged across nodes in (ts_ns, node, seq) order
  /// — a deterministic total order.
  std::vector<Event> merged() const;

  /// Writes merged() as JSONL: one canonical event line per event (see
  /// encode_event_line()), written a block at a time.
  void write_jsonl(std::ostream& os) const;

  /// Writes merged() as a Chrome trace_event document: one instant per
  /// event, pid = node, ts = ts_ns / 1000 (µs on the simulated clock),
  /// name = event_kind_name(), and a/b/v/link as args (a and b as decimal
  /// strings, as in the JSONL).
  void write_chrome_trace(std::ostream& os) const;

  /// Parses a JSONL stream produced by write_jsonl(). On failure returns
  /// an empty vector and, when `error` is non-null, a description with
  /// the offending line number. (Convenience wrapper over EventReader.)
  static std::vector<Event> read_jsonl(std::istream& is,
                                       std::string* error = nullptr);

 private:
  struct NodeRing {
    std::vector<Event> slots;  // allocated lazily on first append
    std::uint64_t next_seq = 0;
    std::int64_t last_ts = INT64_MIN;
  };
  struct WriteThrough;

  /// Calls `visit` on every retained event in merged() order.
  template <class F>
  void for_each_merged(F&& visit) const;

  std::vector<NodeRing> rings_;
  std::size_t capacity_;
  std::unique_ptr<WriteThrough> through_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Incremental line-oriented reader for the JSONL event stream — the
/// reusable parsing half of EventLog::read_jsonl(), shaped for consumers
/// that cannot (or must not) buffer the whole log: `paai serve` tails a
/// pipe with it, `paai replay` walks multi-hundred-MB logs in O(1)
/// memory, and tests drive it line by line.
///
/// Strictness contract: a truncated, non-canonical (decode_event_line()),
/// or mistyped line is a hard error carrying the 1-based line number —
/// never a silent stop and never a partially-parsed event. Blank lines are
/// skipped (they separate concatenated logs harmlessly). After kError the
/// reader stays usable: next() moves past the offending line, so callers
/// choose between fail-fast (serve's default) and count-and-continue.
///
/// Bounded buffering: each line is framed by a bulk scan for its newline
/// (istream::getline into a reused buffer that starts small and doubles)
/// capped at kMaxLineBytes (a well-formed event line is < 256 bytes, so
/// 1 MiB is three orders of magnitude of headroom). An oversized line is
/// a kError ("line N: exceeds maximum line length") and the rest of the
/// line is discarded unstored — a newline-free garbage stream cannot
/// balloon the buffer to the stream's size. A stream that ends mid-line
/// (pipe truncation, torn tail) is also a kError ("unterminated line")
/// instead of being silently parsed as if complete. Nothing past the
/// current line's newline is consumed, and the stream's state bits are
/// left as they were found, so tellg() and tailing a growing file or
/// FIFO stay exact.
class EventReader {
 public:
  /// Hard cap on one line's length; beyond it the line is malformed.
  static constexpr std::size_t kMaxLineBytes = 1 << 20;
  enum class Status : std::uint8_t {
    kEvent,  // *out holds the next event
    kEof,    // clean end of stream
    kError,  // malformed line; *error = "line N: <what>"
  };

  explicit EventReader(std::istream& is) : is_(&is) {}

  EventReader(const EventReader&) = delete;
  EventReader& operator=(const EventReader&) = delete;

  /// Reads the next event. `out` must be non-null; `error` may be null.
  Status next(Event* out, std::string* error = nullptr);

  /// 1-based number of the last line consumed (0 before the first read).
  std::size_t line() const { return line_no_; }

  /// Events successfully parsed so far.
  std::uint64_t events() const { return events_; }

  /// Malformed lines encountered so far.
  std::uint64_t errors() const { return errors_; }

  /// Bytes consumed from the transport so far (newlines included) — the
  /// numerator of serve's ingest-rate and back-pressure gauges.
  std::uint64_t bytes() const { return bytes_; }

 private:
  enum class Frame : std::uint8_t { kLine, kEof, kUnterminated, kOversized };
  static constexpr std::size_t kInitialLineBytes = 512;

  /// Frames the next line into buf_[0, len_), its newline consumed.
  Frame read_line();

  std::istream* is_;
  std::string buf_;  // grows on demand up to kMaxLineBytes + 1
  std::size_t len_ = 0;
  std::size_t line_no_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace paai::obs
