// Minimal JSON emit + strict parse, for the machine-readable bench
// results (BENCH_*.json) and the Chrome trace export.
//
// The writer is a streaming emitter with automatic comma/nesting
// management; it escapes everything RFC 8259 requires (quotes,
// backslashes, control characters) and maps non-finite doubles to null —
// NaN/Inf must never leak into a document a strict downstream parser will
// read. The parser is deliberately strict: it rejects trailing garbage,
// bad escapes, lone surrogates, unescaped control characters, leading
// zeros, and over-deep nesting, so tests can assert that every emitted
// document round-trips.
#pragma once

#include <cstdint>
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

/// Reads a u64 carried as a decimal string (the persisted formats spell
/// u64s this way so they survive double-typed parsers): ASCII digits
/// only — no sign, no whitespace — and overflow-checked. Anything else
/// returns false and leaves `*out` untouched.
bool json_u64_string(const JsonValue& v, std::uint64_t* out);

}  // namespace paai::obs
