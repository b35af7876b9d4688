// Minimal JSON emit + strict parse, and the one strict reader/writer
// layer every persisted or untrusted document goes through.
//
// The writer is a streaming emitter with automatic comma/nesting
// management; it escapes everything RFC 8259 requires (quotes,
// backslashes, control characters) and maps non-finite doubles to null —
// NaN/Inf must never leak into a document a strict downstream parser will
// read. The parser is deliberately strict: it rejects trailing garbage,
// bad escapes, lone surrogates, unescaped control characters, leading
// zeros, and over-deep nesting, so tests can assert that every emitted
// document round-trips.
//
// On top of those, JsonFieldWriter and JsonFieldReader fix the persisted
// formats' conventions once (paai.state.v1 and paai.telemetry.v3): u64s
// travel as decimal strings so full 64-bit values survive double-typed
// parsers, doubles at %.17g, which round-trips bit-exactly; the reader
// decides whether a value is well typed and fails closed on the first
// violation, naming the member by its path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace paai::obs {

/// Returns `s` as a quoted JSON string literal (with escapes).
std::string json_quote(std::string_view s);

/// Formats a double as a JSON number token; NaN / +-Inf become "null".
std::string json_number(double v);

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object member key; must be followed by exactly one value or
  /// begin_object/begin_array.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

 private:
  void before_item();

  std::ostream& os_;
  std::vector<bool> first_;      // per open scope: no item emitted yet
  bool after_key_ = false;
};

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Object member lookup (nullptr when absent or not an object).
  const JsonValue* find(std::string_view key) const;
};

/// Strict parse of a complete JSON document. On failure returns nullopt
/// and, when `error` is non-null, a short description with the byte
/// offset.
std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error = nullptr);

/// Writes object members in the persisted formats' conventions. It speaks
/// the state-walk vocabulary (protocols/window.h StateZeroer), so a score
/// table's visit() walk writes itself through it.
class JsonFieldWriter {
 public:
  explicit JsonFieldWriter(JsonWriter& w) : w_(w) {}

  void kind(const char* kind) { w_.key("kind").value(kind); }
  void open(std::string_view name) { w_.key(name).begin_object(); }
  void close() { w_.end_object(); }
  void version(std::string_view name, int v) { w_.key(name).value(v); }
  void fixed(std::string_view name, std::uint64_t x) { field(name, x); }
  void field(std::string_view name, std::uint64_t x);
  void field(std::string_view name, double x) { w_.key(name).value(x); }
  void field(std::string_view name, const std::vector<std::uint64_t>& xs);
  void field(std::string_view name, const std::vector<double>& xs);

 private:
  JsonWriter& w_;
};

/// The persisted formats' type decisions, one per destination type:
///
///   u64          a decimal string of ASCII digits (no sign, no
///                whitespace), overflow-checked
///   int64        an integral number below 2^53 in magnitude, so a
///                rewrite is byte-identical
///   double       a finite number
///   bool, string a JSON bool / string
///
/// Each returns false and leaves `out` unspecified on a mismatch.
bool json_convert(const JsonValue& v, std::uint64_t& out);
bool json_convert(const JsonValue& v, std::int64_t& out);
bool json_convert(const JsonValue& v, double& out);
bool json_convert(const JsonValue& v, bool& out);
bool json_convert(const JsonValue& v, std::string& out);

/// Reads a JSON object member by member, through json_convert() plus
/// index() (an integral number in [0, max]) and vector fields (arrays of
/// exactly the destination's size). Every member read is required. The
/// first violation sticks and error() names it by the member's path
/// ("table.window.v", "recorded_convictions[0].link"); every later read
/// is a no-op. close() and finish() fail on any member of the
/// object that no read consumed: unknown or repeated members are
/// rejected, never skipped. The reader speaks the state-walk vocabulary
/// too (kind/open/close/version/fixed/field), so a score table's visit()
/// walk reads itself back through it.
class JsonFieldReader {
 public:
  /// Reads `doc`, which must be an object.
  explicit JsonFieldReader(const JsonValue& doc);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  /// Records `what` unless an earlier violation already stuck.
  void fail(const std::string& what);
  /// The open object's path, "" at the root, else ending in '.'.
  const std::string& path() const { return frames_.back().path; }

  template <class T>
  void field(std::string_view name, T& x) {
    const JsonValue* v = member(name);
    if (v != nullptr && !json_convert(*v, x)) mistyped(name);
  }
  template <class T>
  void field(std::string_view name, std::vector<T>& xs) {
    const JsonValue* v = array(name, xs.size());
    for (std::size_t i = 0; v != nullptr && i < xs.size(); ++i) {
      if (!json_convert(v->array[i], xs[i])) return mistyped(name);
    }
  }
  void index(std::string_view name, std::size_t& x, std::uint64_t max);
  /// A member that must read, as a T, equal to `want`.
  template <class T, class W>
  void expect(std::string_view name, const W& want) {
    T got{};
    field(name, got);
    if (ok() && got != want) fail("unsupported " + path() + std::string(name));
  }

  void kind(const char* kind) { expect<std::string>("kind", kind); }
  void version(std::string_view name, int v) {
    expect<std::int64_t>(name, v);
  }
  void fixed(std::string_view name, std::uint64_t want) {
    expect<std::uint64_t>(name, want);
  }

  /// Enters the object member `name`; close() checks it for unread
  /// members and returns to the enclosing object.
  void open(std::string_view name);
  void close();
  /// Calls each(key) once per member of the object member `name`, inside
  /// it: `each` reads the member through field(key, ...).
  void members(std::string_view name,
               const std::function<void(const std::string&)>& each);
  /// Calls each() once per item of the array member `name`, with the
  /// item (which must be an object) open.
  void items(std::string_view name, const std::function<void()>& each);

  /// Checks the root object for unread members; true when the whole
  /// read was clean.
  bool finish();

 private:
  struct Frame {
    const JsonValue* obj;
    std::string path;
    std::vector<bool> read;
  };

  const JsonValue* member(std::string_view name);
  const JsonValue* array(std::string_view name, std::size_t size);
  void push(const JsonValue* obj, std::string path);
  void pop();
  void mistyped(std::string_view name);

  std::vector<Frame> frames_;
  std::string error_;
};

}  // namespace paai::obs
