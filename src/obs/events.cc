#include "obs/events.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>

#include "obs/json.h"

namespace paai::obs {
namespace {

constexpr std::string_view kKindNames[kEventKindCount] = {
    "run-start",    "run-end",      "data-send",     "sample-select",
    "probe-send",   "ack-recv",     "ack-timeout",   "onion-decode",
    "score-clean",  "score-blame",  "conviction",    "packet-send",
    "packet-recv",  "packet-fwd",   "node-crash",    "node-restart",
    "run-config",   "fl-count",
};

// Name -> kind in one probe, not a scan of the 18 names: the reader looks
// up every line's kind. The slot function is collision-free over the
// names (checked at compile time); a miss still compares the name.
constexpr std::size_t kind_slot(std::string_view name) {
  return (2u * static_cast<unsigned char>(name[1]) +
          3u * static_cast<unsigned char>(name.back()) + name.size()) %
         64;
}

struct KindSlots {
  std::int8_t index[64];
  bool collision_free;
};

constexpr KindSlots make_kind_slots() {
  KindSlots t{};
  t.collision_free = true;
  for (std::int8_t& i : t.index) i = -1;
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    std::int8_t& slot = t.index[kind_slot(kKindNames[k])];
    if (slot >= 0) t.collision_free = false;
    slot = static_cast<std::int8_t>(k);
  }
  return t;
}

constexpr KindSlots kKindBySlot = make_kind_slots();
static_assert(kKindBySlot.collision_free,
              "kind_slot() collides on the event-kind names; retune it");

/// The kind named `name`, or -1.
inline int kind_index(std::string_view name) {
  if (name.size() < 2) return -1;
  const std::int8_t i = kKindBySlot.index[kind_slot(name)];
  return i >= 0 && kKindNames[static_cast<std::size_t>(i)] == name ? i : -1;
}

// Exact total order for the merged export; seq breaks ties within a node
// (two nodes never share a seq collision at the same ts because node is
// compared first).
bool event_before(const Event& x, const Event& y) {
  if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
  if (x.node != y.node) return x.node < y.node;
  return x.seq < y.seq;
}

}  // namespace

const char* event_kind_name(EventKind kind) {
  // The names are string literals, so data() is NUL-terminated.
  return kKindNames[static_cast<std::size_t>(kind)].data();
}

std::optional<EventKind> event_kind_from_name(std::string_view name) {
  const int i = kind_index(name);
  if (i < 0) return std::nullopt;
  return static_cast<EventKind>(i);
}

EventLog::EventLog(std::size_t per_node_capacity)
    : capacity_(per_node_capacity == 0 ? 1 : per_node_capacity) {}

void EventLog::append(std::size_t node, EventKind kind, std::int64_t ts_ns,
                      std::int32_t link, std::uint64_t a, std::uint64_t b,
                      double value) {
  if (node >= rings_.size()) rings_.resize(node + 1);
  NodeRing& ring = rings_[node];
  if (ring.slots.empty()) ring.slots.reserve(std::min<std::size_t>(capacity_, 64));

  Event e;
  e.ts_ns = ts_ns;
  e.seq = ring.next_seq++;
  e.a = a;
  e.b = b;
  e.value = value;
  e.link = link;
  e.node = static_cast<std::uint16_t>(node);
  e.kind = kind;

  ++recorded_;
  if (ring.slots.size() < capacity_) {
    ring.slots.push_back(e);
  } else {
    ring.slots[static_cast<std::size_t>(e.seq % capacity_)] = e;
    ++dropped_;
  }
}

void EventLog::clear() {
  rings_.clear();
  recorded_ = 0;
  dropped_ = 0;
}

std::vector<Event> EventLog::merged() const {
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(retained()));
  for (const NodeRing& ring : rings_) {
    out.insert(out.end(), ring.slots.begin(), ring.slots.end());
  }
  std::sort(out.begin(), out.end(), event_before);
  return out;
}

// ------------------------------------------------------- event-line codec
//
// Both halves are written against the one line grammar write_jsonl emits:
//
//   {"ts_ns":I,"node":I,"seq":U,"kind":"NAME"[,"link":I],"a":"U","b":"U","v":NUM|null}
//
// The writer formats straight into a stack buffer. The reader decodes the
// same grammar in one left-to-right pass with fixed key order and no
// whitespace: each key literal is compared at its compile-time size,
// integers go through an exact digit loop that rejects overflow, and the
// `"v":0}` tail of the wire-activity lines (most of a stream) is taken
// whole. Any other `v` is checked against the RFC 8259 number grammar and
// converted with the correctly rounded from_chars, so every accepted line
// is also valid strict JSON carrying the same values (tests/stream_test.cc
// fuzzes this against json_parse). Every rejection is described by one
// cold function, so the accept path builds no strings.

namespace {

char* put(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

// Every field's widest rendering fits in 24 bytes (-DBL_MIN in %.17g);
// the bound only has to keep to_chars inside kEventLineMaxBytes.
template <class T>
char* put_int(char* p, T v) {
  return std::to_chars(p, p + 24, v).ptr;
}

/// Writes "field: reason<text><after>" to `*what` (when non-null) and
/// returns false.
[[gnu::cold, gnu::noinline]] bool reject(std::string* what, const char* field,
                                         const char* reason,
                                         std::string_view text = {},
                                         const char* after = "") {
  if (what != nullptr) {
    what->assign(field).append(": ").append(reason).append(text).append(after);
  }
  return false;
}

bool is_digit(char c) { return static_cast<unsigned char>(c - '0') < 10; }

template <class W>
W load(const char* p) {
  W w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

/// `q` starts with the N - 1 bytes of `lit` (a key literal, at most 16
/// bytes). Two overlapping fixed-width loads per side: the literal's
/// halves fold to constants, so no memcmp of a run-time length is left.
template <std::size_t N>
bool same_bytes(const char* q, const char (&lit)[N]) {
  constexpr std::size_t n = N - 1;
  static_assert(n >= 1 && n <= 16);
  if constexpr (n >= 8) {
    return load<std::uint64_t>(q) == load<std::uint64_t>(lit) &&
           load<std::uint64_t>(q + n - 8) == load<std::uint64_t>(lit + n - 8);
  } else if constexpr (n >= 4) {
    return load<std::uint32_t>(q) == load<std::uint32_t>(lit) &&
           load<std::uint32_t>(q + n - 4) == load<std::uint32_t>(lit + n - 4);
  } else {
    return std::memcmp(q, lit, n) == 0;
  }
}

/// The decoder's cursor over one line: every step either advances past
/// what it accepted or returns reject()'s false.
struct LineDecoder {
  const char* p;
  const char* end;
  std::string* what;

  bool digit_at(const char* q) const { return q != end && is_digit(*q); }

  /// Consumes the literal `lit` if the input continues with it.
  template <std::size_t N>
  bool take(const char (&lit)[N]) {
    if (static_cast<std::size_t>(end - p) < N - 1 || !same_bytes(p, lit)) {
      return false;
    }
    p += N - 1;
    return true;
  }

  /// True when the rest of the line is exactly `lit`; consumes nothing.
  template <std::size_t N>
  bool rest_is(const char (&lit)[N]) const {
    return static_cast<std::size_t>(end - p) == N - 1 && same_bytes(p, lit);
  }

  template <std::size_t N>
  bool expect(const char (&lit)[N], const char* field) {
    return take(lit) ||
           reject(what, field, "expected '", std::string_view(lit, N - 1),
                  "' (canonical key order, no whitespace)");
  }

  /// [0-9]+ with no leading zero at `q`, accumulated exactly into *mag;
  /// leaves p after the last digit. The caller has checked the first
  /// digit is there.
  bool magnitude(const char* q, const char* field, std::uint64_t* mag) {
    if (*q == '0' && digit_at(q + 1)) {
      return reject(what, field, "leading zero");
    }
    std::uint64_t v = 0;
    do {
      if (__builtin_mul_overflow(v, 10u, &v) ||
          __builtin_add_overflow(v, static_cast<unsigned>(*q - '0'), &v)) {
        return reject(what, field, "out of range");
      }
      ++q;
    } while (digit_at(q));
    p = q;
    *mag = v;
    return true;
  }

  /// A JSON integer token, -?(0|[1-9][0-9]*) with no fraction or
  /// exponent, converted exactly into T; anything T cannot hold is out of
  /// range, and so is a '-' before an unsigned T. "-0" is not canonical
  /// (the writer never emits it) and is rejected.
  template <class T>
  bool integer(const char* field, T* out) {
    const bool negative = p != end && *p == '-';
    const char* q = p + (negative ? 1 : 0);
    if (!digit_at(q)) return reject(what, field, "expected an integer");
    std::uint64_t mag = 0;
    if (!magnitude(q, field, &mag)) return false;
    constexpr auto kMax =
        static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    if ((negative && std::is_unsigned_v<T>) ||
        mag > kMax + (negative ? 1 : 0)) {
      return reject(what, field, "out of range");
    }
    if (negative && mag == 0) return reject(what, field, "negative zero");
    if (p != end && (*p == '.' || *p == 'e' || *p == 'E')) {
      return reject(what, field, "not an integer");
    }
    // Two's-complement wrap: 0 - 2^63 is INT64_MIN exactly.
    *out = static_cast<T>(negative ? 0 - mag : mag);
    return true;
  }

  /// The body and closing quote of a decimal-string u64 ("a" / "b").
  bool quoted_u64(const char* field, std::uint64_t* out) {
    if (!digit_at(p)) return reject(what, field, "expected a decimal string");
    if (!magnitude(p, field, out)) return false;
    if (p == end || *p != '"') {
      return reject(what, field, "expected a decimal string");
    }
    ++p;
    return true;
  }

  /// The body and closing quote of the kind name.
  bool kind(EventKind* out) {
    const char* close = p;
    while (close != end && *close != '"') ++close;
    if (close == end) return reject(what, "kind", "unterminated string");
    const std::string_view name(p, static_cast<std::size_t>(close - p));
    const int k = kind_index(name);
    if (k < 0) return reject(what, "kind", "unknown kind \"", name, "\"");
    *out = static_cast<EventKind>(k);
    p = close + 1;
    return true;
  }

  /// An RFC 8259 number -> the correctly rounded double, or null -> 0.0
  /// (the writer's spelling of a non-finite value). A number no double
  /// can hold is out of range: the writer never emits one.
  bool number_or_null(double* out) {
    if (take("null")) {
      *out = 0.0;
      return true;
    }
    const char* q = p != end && *p == '-' ? p + 1 : p;
    if (!digit_at(q)) return reject(what, "v", "expected a number or null");
    if (*q == '0' && digit_at(q + 1)) {
      return reject(what, "v", "leading zero");
    }
    const char* stop = digits(q);
    if (stop != end && *stop == '.') {
      const char* frac = digits(stop + 1);
      if (frac == stop + 1) return reject(what, "v", "truncated fraction");
      stop = frac;
    }
    if (stop != end && (*stop == 'e' || *stop == 'E')) {
      const char* exp = stop + 1;
      if (exp != end && (*exp == '+' || *exp == '-')) ++exp;
      const char* exp_end = digits(exp);
      if (exp_end == exp) return reject(what, "v", "truncated exponent");
      stop = exp_end;
    }
    const auto [ptr, ec] =
        std::from_chars(p, stop, *out, std::chars_format::general);
    if (ec != std::errc() || ptr != stop) {
      return reject(what, "v", "out of range");
    }
    p = stop;
    return true;
  }

  const char* digits(const char* q) const {
    while (digit_at(q)) ++q;
    return q;
  }
};

}  // namespace

std::size_t encode_event_line(const Event& e, char* out) {
  char* p = put(out, "{\"ts_ns\":");
  p = put_int(p, e.ts_ns);
  p = put(p, ",\"node\":");
  p = put_int(p, e.node);
  p = put(p, ",\"seq\":");
  p = put_int(p, e.seq);
  p = put(p, ",\"kind\":\"");
  p = put(p, kKindNames[static_cast<std::size_t>(e.kind)]);
  p = put(p, "\"");
  if (e.link >= 0) {
    p = put(p, ",\"link\":");
    p = put_int(p, e.link);
  }
  p = put(p, ",\"a\":\"");
  p = put_int(p, e.a);
  p = put(p, "\",\"b\":\"");
  p = put_int(p, e.b);
  p = put(p, "\",\"v\":");
  // Precision 17 in general format is exactly what %.17g prints.
  p = std::isfinite(e.value)
          ? std::to_chars(p, p + 24, e.value, std::chars_format::general, 17)
                .ptr
          : put(p, "null");
  p = put(p, "}\n");
  return static_cast<std::size_t>(p - out);
}

bool decode_event_line(std::string_view line, Event* out, std::string* what) {
  LineDecoder d{line.data(), line.data() + line.size(), what};
  Event e;
  if (!d.expect("{\"ts_ns\":", "ts_ns") || !d.integer("ts_ns", &e.ts_ns) ||
      !d.expect(",\"node\":", "node") || !d.integer("node", &e.node) ||
      !d.expect(",\"seq\":", "seq") || !d.integer("seq", &e.seq) ||
      !d.expect(",\"kind\":\"", "kind") || !d.kind(&e.kind)) {
    return false;
  }
  if (d.take(",\"link\":")) {
    if (!d.integer("link", &e.link)) return false;
    // -1 ("not link-scoped") is spelled by omitting the key.
    if (e.link < 0) return reject(what, "link", "out of range");
  }
  if (!d.expect(",\"a\":\"", "a") || !d.quoted_u64("a", &e.a) ||
      !d.expect(",\"b\":\"", "b") || !d.quoted_u64("b", &e.b)) {
    return false;
  }
  // The wire-activity tail: `"v":0}` and the end of the line, in one step.
  if (!d.rest_is(",\"v\":0}")) {
    if (!d.expect(",\"v\":", "v") || !d.number_or_null(&e.value) ||
        !d.expect("}", "v")) {
      return false;
    }
    if (d.p != d.end) {
      return reject(what, "v", "trailing bytes after the object");
    }
  }
  *out = e;
  return true;
}

void EventLog::write_jsonl(std::ostream& os) const {
  char line[kEventLineMaxBytes];
  for (const Event& e : merged()) {
    os.write(line, static_cast<std::streamsize>(encode_event_line(e, line)));
  }
}

void EventLog::write_chrome_trace(std::ostream& os) const {
  JsonWriter w(os);
  JsonFieldWriter fields(w);
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("otherData").begin_object();
  w.key("recorded").value(recorded_);
  w.key("dropped").value(dropped_);
  w.end_object();
  w.key("traceEvents").begin_array();
  for (const Event& e : merged()) {
    w.begin_object();
    w.key("name").value(event_kind_name(e.kind));
    w.key("ph").value("i");
    w.key("s").value("t");
    w.key("ts").value(static_cast<double>(e.ts_ns) / 1000.0);
    w.key("pid").value(static_cast<std::uint64_t>(e.node));
    w.key("tid").value(0);
    w.key("args").begin_object();
    fields.field("a", e.a);
    fields.field("b", e.b);
    fields.field("v", e.value);
    if (e.link >= 0) w.key("link").value(static_cast<std::int64_t>(e.link));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

EventReader::Frame EventReader::read_line() {
  // istream::getline and ignore scan the stream buffer in bulk and stop
  // right after the newline, so nothing past the current line is consumed
  // (FIFO tailing and the caller's tellg() stay exact). The stream's state
  // bits are restored afterwards: hitting EOF here must not poison a
  // later tellg() or a later read from a growing file. Every path below
  // leaves the state good, so a stream that came in good (the common
  // case) needs no clear() at all.
  const std::ios::iostate saved = is_->rdstate();
  if (saved != std::ios::goodbit) is_->clear();
  if (buf_.empty()) buf_.resize(kInitialLineBytes + 1);  // + getline's NUL
  len_ = 0;
  Frame frame = Frame::kLine;
  for (;;) {
    const std::size_t room = buf_.size() - 1 - len_;
    is_->getline(buf_.data() + len_, static_cast<std::streamsize>(room + 1),
                 '\n');
    const auto got = static_cast<std::size_t>(is_->gcount());
    bytes_ += got;
    const std::ios::iostate state = is_->rdstate();
    if (state == std::ios::goodbit) {
      len_ += got - 1;  // the newline was extracted, not stored
      break;
    }
    is_->clear();
    len_ += got;
    if ((state & (std::ios::eofbit | std::ios::badbit)) != 0) {
      frame = len_ == 0 ? Frame::kEof : Frame::kUnterminated;
      break;
    }
    // failbit alone: the buffer filled before a newline came.
    if (len_ >= kMaxLineBytes) {
      // Skip (unstored) to the end of the offending line so the reader
      // stays usable for count-and-continue callers.
      is_->ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      bytes_ += static_cast<std::uint64_t>(is_->gcount());
      is_->clear();
      frame = Frame::kOversized;
      break;
    }
    buf_.resize(std::min(2 * (buf_.size() - 1), kMaxLineBytes) + 1);
  }
  if (saved != std::ios::goodbit) is_->clear(saved);
  return frame;
}

EventReader::Status EventReader::next(Event* out, std::string* error) {
  const auto report = [&](const std::string& what) {
    ++errors_;
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no_) + ": " + what;
    }
    return Status::kError;
  };

  for (;;) {
    const Frame frame = read_line();
    if (frame == Frame::kEof) return Status::kEof;  // last line had its '\n'
    ++line_no_;
    if (frame == Frame::kOversized) {
      return report("exceeds maximum line length (" +
                    std::to_string(kMaxLineBytes) + " bytes)");
    }
    if (frame == Frame::kUnterminated) {
      // The stream died mid-line (pipe truncation, torn tail). The
      // fragment may even parse as JSON; fail instead of trusting it.
      return report("unterminated line (truncated stream?)");
    }
    if (len_ == 0) continue;
    std::string what;
    if (!decode_event_line(std::string_view(buf_.data(), len_), out, &what)) {
      return report(what);
    }
    ++events_;
    return Status::kEvent;
  }
}

std::vector<Event> EventLog::read_jsonl(std::istream& is, std::string* error) {
  std::vector<Event> out;
  EventReader reader(is);
  Event e;
  for (;;) {
    switch (reader.next(&e, error)) {
      case EventReader::Status::kEvent:
        out.push_back(e);
        break;
      case EventReader::Status::kEof:
        return out;
      case EventReader::Status::kError:
        out.clear();
        return out;
    }
  }
}

}  // namespace paai::obs
