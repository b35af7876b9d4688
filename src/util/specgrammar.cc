#include "util/specgrammar.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace paai::util {

void spec_error(const std::string& prefix, const std::string& message) {
  throw std::invalid_argument(prefix + ": " + message);
}

std::optional<double> SpecClause::get(std::string_view key) const {
  for (const auto& [k, v] : kv) {
    if (k == key) return v;
  }
  return std::nullopt;
}

double SpecClause::require(std::string_view key,
                           const std::string& err_prefix) const {
  const auto v = get(key);
  if (!v) spec_error(err_prefix, kind + " clause needs " + std::string(key) + "=");
  return *v;
}

void SpecClause::check_keys(std::initializer_list<std::string_view> allowed,
                            const std::string& err_prefix) const {
  for (const auto& [k, v] : kv) {
    (void)v;
    if (std::find(allowed.begin(), allowed.end(), k) == allowed.end()) {
      spec_error(err_prefix, "unknown key '" + k + "' in " + kind + " clause");
    }
  }
}

std::string_view spec_trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\n' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\n' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

double spec_parse_double(std::string_view text, const std::string& what,
                         const std::string& err_prefix) {
  double value = 0.0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value)) {
    spec_error(err_prefix,
               "bad number for " + what + ": '" + std::string(text) + "'");
  }
  return value;
}

std::size_t spec_parse_index(std::string_view text, const std::string& what,
                             const std::string& err_prefix) {
  std::size_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    spec_error(err_prefix,
               "bad index for " + what + ": '" + std::string(text) + "'");
  }
  return value;
}

void spec_check_probability(double value, const std::string& what,
                            const std::string& err_prefix) {
  if (!(value >= 0.0 && value <= 1.0)) {
    spec_error(err_prefix,
               what + " must be within [0, 1], got " + std::to_string(value));
  }
}

void spec_check_nonnegative(double value, const std::string& what,
                            const std::string& err_prefix) {
  if (!(value >= 0.0)) {
    spec_error(err_prefix,
               what + " must be >= 0, got " + std::to_string(value));
  }
}

std::vector<SpecClause> parse_compact_clauses(std::string_view spec,
                                              const std::string& err_prefix) {
  std::vector<SpecClause> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t semi = std::min(spec.find(';', pos), spec.size());
    const std::string_view raw = spec_trim(spec.substr(pos, semi - pos));
    pos = semi + 1;
    if (raw.empty()) continue;

    SpecClause c;
    const std::size_t at = raw.find('@');
    const std::size_t colon = raw.find(':');
    if (at == std::string_view::npos ||
        (colon != std::string_view::npos && colon < at)) {
      spec_error(err_prefix,
                 "clause '" + std::string(raw) +
                     "' does not match kind@index[:key=value,...]");
    }
    const std::size_t index_end =
        colon == std::string_view::npos ? raw.size() : colon;
    c.kind = std::string(spec_trim(raw.substr(0, at)));
    c.index = spec_parse_index(spec_trim(raw.substr(at + 1, index_end - at - 1)),
                               c.kind + " index", err_prefix);
    // A parameterless clause ("fattree@4") is legal; clause kinds with
    // mandatory keys still fail loudly via SpecClause::require().
    std::string_view rest =
        colon == std::string_view::npos ? std::string_view{}
                                        : raw.substr(colon + 1);
    std::size_t kpos = 0;
    while (kpos <= rest.size()) {
      const std::size_t comma = std::min(rest.find(',', kpos), rest.size());
      const std::string_view kv = spec_trim(rest.substr(kpos, comma - kpos));
      kpos = comma + 1;
      if (kv.empty()) continue;
      const std::size_t eq = kv.find('=');
      if (eq == std::string_view::npos) {
        spec_error(err_prefix, "expected key=value, got '" + std::string(kv) +
                                   "' in " + c.kind + " clause");
      }
      const std::string key(spec_trim(kv.substr(0, eq)));
      c.kv.emplace_back(key, spec_parse_double(spec_trim(kv.substr(eq + 1)),
                                               c.kind + " " + key,
                                               err_prefix));
    }
    out.push_back(std::move(c));
  }
  return out;
}

std::string fmt_double(double value) {
  char buffer[32];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return ec == std::errc{} ? std::string(buffer, ptr) : "0";
}

}  // namespace paai::util
