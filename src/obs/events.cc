#include "obs/events.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

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
  if (name.size() < 2) return std::nullopt;
  const std::int8_t i = kKindBySlot.index[kind_slot(name)];
  if (i < 0 || kKindNames[static_cast<std::size_t>(i)] != name) {
    return std::nullopt;
  }
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
// The writer formats straight into a stack buffer; the reader scans the
// same grammar once, left to right, with fixed key order and no
// whitespace. Integers convert exactly through from_chars; `v` is checked
// against the RFC 8259 number grammar and converted with the correctly
// rounded from_chars, so every accepted line is also valid strict JSON
// carrying the same values (tests/stream_test.cc fuzzes this against
// json_parse).

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

class LineScanner {
 public:
  LineScanner(std::string_view line, std::string* what)
      : p_(line.data()), end_(line.data() + line.size()), what_(what) {}

  bool fail(std::string_view field, std::string_view reason) {
    if (what_ != nullptr) {
      *what_ = std::string(field) + ": " + std::string(reason);
    }
    return false;
  }

  /// Consumes `lit` if the input continues with it.
  bool accept(std::string_view lit) {
    if (static_cast<std::size_t>(end_ - p_) < lit.size() ||
        std::memcmp(p_, lit.data(), lit.size()) != 0) {
      return false;
    }
    p_ += lit.size();
    return true;
  }

  bool expect(std::string_view lit, std::string_view field) {
    return accept(lit) ||
           fail(field, "expected '" + std::string(lit) +
                           "' (canonical key order, no whitespace)");
  }

  bool at_end() const { return p_ == end_; }

  /// A JSON integer token, -?(0|[1-9][0-9]*) with no fraction or
  /// exponent, converted exactly into T; anything T cannot hold is out of
  /// range (from_chars rejects a '-' for unsigned T).
  template <class T>
  bool integer(std::string_view field, T* out) {
    const char* q = p_ != end_ && *p_ == '-' ? p_ + 1 : p_;
    if (!digit_at(q)) return fail(field, "expected an integer");
    if (*q == '0' && digit_at(q + 1)) return fail(field, "leading zero");
    const auto [stop, ec] = std::from_chars(p_, end_, *out);
    if (ec != std::errc()) return fail(field, "out of range");
    if (stop != end_ && (*stop == '.' || *stop == 'e' || *stop == 'E')) {
      return fail(field, "not an integer");
    }
    p_ = stop;
    return true;
  }

  /// The body and closing quote of a decimal-string u64 ("a" / "b").
  bool quoted_u64(std::string_view field, std::uint64_t* out) {
    if (!digit_at(p_)) return fail(field, "expected a decimal string");
    if (*p_ == '0' && digit_at(p_ + 1)) return fail(field, "leading zero");
    const auto [stop, ec] = std::from_chars(p_, end_, *out);
    if (ec != std::errc()) return fail(field, "out of range");
    if (stop == end_ || *stop != '"') {
      return fail(field, "expected a decimal string");
    }
    p_ = stop + 1;
    return true;
  }

  /// The body and closing quote of the kind name.
  bool kind(EventKind* out) {
    const auto* close = static_cast<const char*>(
        std::memchr(p_, '"', static_cast<std::size_t>(end_ - p_)));
    if (close == nullptr) return fail("kind", "unterminated string");
    const std::string_view name(p_, static_cast<std::size_t>(close - p_));
    const auto k = event_kind_from_name(name);
    if (!k.has_value()) {
      return fail("kind", "unknown kind \"" + std::string(name) + "\"");
    }
    *out = *k;
    p_ = close + 1;
    return true;
  }

  /// An RFC 8259 number -> the correctly rounded double, or null -> 0.0
  /// (the writer's spelling of a non-finite value). A number no double
  /// can hold is out of range: the writer never emits one.
  bool number_or_null(std::string_view field, double* out) {
    if (accept("null")) {
      *out = 0.0;
      return true;
    }
    const char* q = p_ != end_ && *p_ == '-' ? p_ + 1 : p_;
    if (!digit_at(q)) return fail(field, "expected a number or null");
    if (*q == '0' && digit_at(q + 1)) return fail(field, "leading zero");
    const char* stop = digits(q);
    if (stop != end_ && *stop == '.') {
      const char* frac = digits(stop + 1);
      if (frac == stop + 1) return fail(field, "truncated fraction");
      stop = frac;
    }
    if (stop != end_ && (*stop == 'e' || *stop == 'E')) {
      const char* exp = stop + 1;
      if (exp != end_ && (*exp == '+' || *exp == '-')) ++exp;
      const char* exp_end = digits(exp);
      if (exp_end == exp) return fail(field, "truncated exponent");
      stop = exp_end;
    }
    const auto [ptr, ec] =
        std::from_chars(p_, stop, *out, std::chars_format::general);
    if (ec != std::errc() || ptr != stop) return fail(field, "out of range");
    p_ = stop;
    return true;
  }

 private:
  bool digit_at(const char* q) const {
    return q != end_ && static_cast<unsigned char>(*q - '0') < 10;
  }

  const char* digits(const char* q) const {
    while (q != end_ && static_cast<unsigned char>(*q - '0') < 10) ++q;
    return q;
  }

  const char* p_;
  const char* end_;
  std::string* what_;
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
  LineScanner s(line, what);
  Event e;
  if (!s.expect("{\"ts_ns\":", "ts_ns") || !s.integer("ts_ns", &e.ts_ns) ||
      !s.expect(",\"node\":", "node") || !s.integer("node", &e.node) ||
      !s.expect(",\"seq\":", "seq") || !s.integer("seq", &e.seq) ||
      !s.expect(",\"kind\":\"", "kind") || !s.kind(&e.kind)) {
    return false;
  }
  if (s.accept(",\"link\":")) {
    if (!s.integer("link", &e.link)) return false;
    // -1 ("not link-scoped") is spelled by omitting the key.
    if (e.link < 0) return s.fail("link", "out of range");
  }
  if (!s.expect(",\"a\":\"", "a") || !s.quoted_u64("a", &e.a) ||
      !s.expect(",\"b\":\"", "b") || !s.quoted_u64("b", &e.b) ||
      !s.expect(",\"v\":", "v") || !s.number_or_null("v", &e.value) ||
      !s.expect("}", "v")) {
    return false;
  }
  if (!s.at_end()) return s.fail("line", "trailing bytes after the object");
  *out = e;
  return true;
}

void EventLog::write_jsonl(std::ostream& os) const {
  char line[kEventLineMaxBytes];
  for (const Event& e : merged()) {
    os.write(line, static_cast<std::streamsize>(encode_event_line(e, line)));
  }
}

EventReader::Frame EventReader::read_line() {
  // istream::getline and ignore scan the stream buffer in bulk and stop
  // right after the newline, so nothing past the current line is consumed
  // (FIFO tailing and the caller's tellg() stay exact). The stream's state
  // bits are restored afterwards: hitting EOF here must not poison a
  // later tellg() or a later read from a growing file.
  const std::ios::iostate saved = is_->rdstate();
  is_->clear();
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
    is_->clear();
    if (state == std::ios::goodbit) {
      len_ += got - 1;  // the newline was extracted, not stored
      break;
    }
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
  is_->clear(saved);
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
