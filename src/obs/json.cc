#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace paai::obs {

// ---------------------------------------------------------------- emit

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void JsonWriter::before_item() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) os_ << ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_item();
  os_ << '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  first_.pop_back();
  os_ << '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_item();
  os_ << '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  first_.pop_back();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  before_item();
  os_ << json_quote(name) << ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_item();
  os_ << json_quote(s);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_item();
  os_ << json_number(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_item();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_item();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_item();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_item();
  os_ << "null";
  return *this;
}

// --------------------------------------------------------------- parse

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

constexpr std::size_t kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    JsonValue v;
    if (!parse_value(v, 0)) {
      emit_error(error);
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing garbage after document");
      emit_error(error);
      return std::nullopt;
    }
    return v;
  }

 private:
  void emit_error(std::string* error) const {
    if (error != nullptr) {
      *error = message_.empty() ? "parse error" : message_;
      *error += " at byte " + std::to_string(err_pos_);
    }
  }

  bool fail(const char* msg) {
    if (message_.empty()) {
      message_ = msg;
      err_pos_ = pos_;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue& out, std::size_t depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, std::size_t depth) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail("expected ':' after object key");
      }
      ++pos_;
      JsonValue v;
      if (!parse_value(v, depth + 1)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(JsonValue& out, std::size_t depth) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!parse_value(v, depth + 1)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  bool hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("bad hex digit in \\u escape");
      }
    }
    pos_ += 4;
    return true;
  }

  void append_utf8(std::string& s, std::uint32_t cp) {
    if (cp < 0x80) {
      s.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // '"'
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_];
      const auto u = static_cast<unsigned char>(c);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (u < 0x20) return fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char e = text_[pos_];
      ++pos_;
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require a low surrogate right behind it.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("lone high surrogate");
            }
            pos_ += 2;
            std::uint32_t lo = 0;
            if (!hex4(lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) {
              return fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("invalid escape character");
      }
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size()) return fail("truncated number");
    // Integer part: no leading zeros (RFC 8259).
    if (text_[pos_] == '0') {
      ++pos_;
      if (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        return fail("leading zero in number");
      }
    } else if (text_[pos_] >= '1' && text_[pos_] <= '9') {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    } else {
      return fail("invalid number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("truncated fraction");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("truncated exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    out.kind = JsonValue::Kind::kNumber;
    const std::string token(text_.substr(start, pos_ - start));
    out.number = std::strtod(token.c_str(), nullptr);
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string message_;
  std::size_t err_pos_ = 0;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error) {
  return Parser(text).run(error);
}

// -------------------------------------------------------- field layer

void JsonFieldWriter::field(std::string_view name, std::uint64_t x) {
  w_.key(name).value(std::to_string(x));
}

void JsonFieldWriter::field(std::string_view name,
                            const std::vector<std::uint64_t>& xs) {
  w_.key(name).begin_array();
  for (const std::uint64_t x : xs) w_.value(std::to_string(x));
  w_.end_array();
}

void JsonFieldWriter::field(std::string_view name,
                            const std::vector<double>& xs) {
  w_.key(name).begin_array();
  for (const double x : xs) w_.value(x);
  w_.end_array();
}

namespace {

/// 2^53: the first integer a double no longer holds unambiguously (an
/// input of 2^53 + 1 parses to the same bits), so exact int64 values stay
/// strictly below it.
constexpr double kMaxExactInt = 9007199254740992.0;

/// Stands in for an object the reader failed to enter, so every later
/// read is a no-op on an empty frame.
const JsonValue kEmptyObject = [] {
  JsonValue v;
  v.kind = JsonValue::Kind::kObject;
  return v;
}();

}  // namespace

bool json_convert(const JsonValue& v, std::uint64_t& out) {
  const std::string& s = v.string;
  if (!v.is_string() || s.empty() ||
      s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  const char* const last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(s.data(), last, out);
  return ec == std::errc() && end == last;
}

bool json_convert(const JsonValue& v, std::int64_t& out) {
  if (!v.is_number() || v.number != std::floor(v.number) ||
      std::fabs(v.number) >= kMaxExactInt) {
    return false;
  }
  out = static_cast<std::int64_t>(v.number);
  return true;
}

bool json_convert(const JsonValue& v, double& out) {
  if (!v.is_number() || !std::isfinite(v.number)) return false;
  out = v.number;
  return true;
}

bool json_convert(const JsonValue& v, bool& out) {
  if (v.kind != JsonValue::Kind::kBool) return false;
  out = v.boolean;
  return true;
}

bool json_convert(const JsonValue& v, std::string& out) {
  if (!v.is_string()) return false;
  out = v.string;
  return true;
}

JsonFieldReader::JsonFieldReader(const JsonValue& doc) {
  if (doc.is_object()) {
    push(&doc, "");
  } else {
    push(&kEmptyObject, "");
    fail("not a JSON object");
  }
}

void JsonFieldReader::fail(const std::string& what) {
  if (error_.empty()) error_ = what;
}

const JsonValue* JsonFieldReader::member(std::string_view name) {
  if (!ok()) return nullptr;
  Frame& f = frames_.back();
  for (std::size_t i = 0; i < f.obj->object.size(); ++i) {
    if (f.obj->object[i].first == name) {
      f.read[i] = true;
      return &f.obj->object[i].second;
    }
  }
  fail("missing " + f.path + std::string(name));
  return nullptr;
}

void JsonFieldReader::mistyped(std::string_view name) {
  fail("mistyped " + path() + std::string(name));
}

const JsonValue* JsonFieldReader::array(std::string_view name,
                                        std::size_t size) {
  const JsonValue* v = member(name);
  if (v == nullptr) return nullptr;
  if (!v->is_array()) {
    mistyped(name);
    return nullptr;
  }
  if (v->array.size() != size) {
    fail("wrong shape of " + path() + std::string(name));
    return nullptr;
  }
  return v;
}

void JsonFieldReader::index(std::string_view name, std::size_t& x,
                            std::uint64_t max) {
  // The range check comes before the cast, so a hostile document never
  // reaches an undefined float-to-integer conversion. 0x1p64 is 2^64:
  // every integral double below it fits.
  const JsonValue* v = member(name);
  if (v == nullptr) return;
  const double d = v->number;
  if (!v->is_number() || !(d >= 0.0 && d < 0x1p64) || std::floor(d) != d) {
    return mistyped(name);
  }
  if (static_cast<std::uint64_t>(d) > max) {
    return fail(path() + std::string(name) + " is above " +
                std::to_string(max));
  }
  x = static_cast<std::size_t>(d);
}

void JsonFieldReader::push(const JsonValue* obj, std::string path) {
  frames_.push_back(Frame{obj, std::move(path),
                          std::vector<bool>(obj->object.size(), false)});
}

void JsonFieldReader::open(std::string_view name) {
  const JsonValue* v = member(name);
  if (v != nullptr && !v->is_object()) mistyped(name);
  push(ok() ? v : &kEmptyObject, path() + std::string(name) + ".");
}

void JsonFieldReader::pop() {
  const Frame& f = frames_.back();
  for (std::size_t i = 0; ok() && i < f.read.size(); ++i) {
    if (f.read[i]) continue;
    const auto& [key, value] = f.obj->object[i];
    const bool repeated = f.obj->find(key) != &value;
    fail((repeated ? "duplicate member " : "unknown member ") + f.path + key);
  }
  frames_.pop_back();
}

void JsonFieldReader::close() {
  if (frames_.size() > 1) pop();
}

void JsonFieldReader::members(
    std::string_view name,
    const std::function<void(const std::string&)>& each) {
  open(name);
  for (const auto& [key, value] : frames_.back().obj->object) {
    if (!ok()) break;
    each(key);
  }
  close();
}

void JsonFieldReader::items(std::string_view name,
                            const std::function<void()>& each) {
  const JsonValue* v = member(name);
  if (v == nullptr) return;
  if (!v->is_array()) return mistyped(name);
  for (std::size_t i = 0; ok() && i < v->array.size(); ++i) {
    const std::string item = std::string(name) + "[" + std::to_string(i) + "]";
    if (!v->array[i].is_object()) return mistyped(item);
    push(&v->array[i], path() + item + ".");
    each();
    pop();
  }
}

bool JsonFieldReader::finish() {
  while (!frames_.empty()) pop();
  return ok();
}

}  // namespace paai::obs
