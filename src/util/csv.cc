#include "util/csv.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace paai {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(std::string value) {
  rows_.back().push_back(std::move(value));
  return *this;
}

Table& Table::num(double value, int precision) {
  return cell(fmt_num(value, precision));
}

Table& Table::integer(long long value) { return cell(std::to_string(value)); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], r[c].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << cells[c];
      if (c + 1 < cells.size()) {
        os << std::string(widths[c] - cells[c].size() + 2, ' ');
      }
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& r : rows_) emit(r);
}

void Table::print_csv(std::ostream& os) const {
  auto emit_cell = [&](const std::string& cell) {
    if (cell.find_first_of(",\"\n\r") == std::string::npos) {
      os << cell;
      return;
    }
    os << '"';
    for (const char ch : cell) {
      if (ch == '"') os << '"';
      os << ch;
    }
    os << '"';
  };
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      emit_cell(cells[c]);
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& r : rows_) emit(r);
}

void Table::print(std::ostream& os, bool csv) const {
  if (csv) {
    print_csv(os);
  } else {
    print(os);
  }
}

std::string fmt_num(double value, int precision) {
  std::ostringstream ss;
  ss.precision(precision);
  ss << value;
  return ss.str();
}

bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

std::optional<long long> parse_ll(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::size_t i = 0;
  const bool negative = text[0] == '-';
  if (negative) i = 1;
  if (i >= text.size()) return std::nullopt;
  unsigned long long magnitude = 0;
  const unsigned long long limit =
      negative ? 9223372036854775808ULL : 9223372036854775807ULL;
  for (; i < text.size(); ++i) {
    const char ch = text[i];
    if (ch < '0' || ch > '9') return std::nullopt;
    const unsigned long long digit = static_cast<unsigned long long>(ch - '0');
    if (magnitude > (limit - digit) / 10) return std::nullopt;  // overflow
    magnitude = magnitude * 10 + digit;
  }
  if (negative) {
    return static_cast<long long>(~magnitude + 1ULL);
  }
  return static_cast<long long>(magnitude);
}

namespace {

[[noreturn]] void die_bad_value(const char* what, const std::string& name,
                                const char* value) {
  std::fprintf(stderr,
               "error: invalid integer for %s %s: \"%s\" "
               "(expected base-10 digits)\n",
               what, name.c_str(), value);
  std::exit(2);
}

}  // namespace

long long flag_or_env(int argc, char** argv, const std::string& name,
                      const char* env, long long dflt) {
  if (const auto value = flag_str(argc, argv, name)) {
    const auto parsed = parse_ll(*value);
    if (!parsed) die_bad_value("flag", name, value->c_str());
    return *parsed;
  }
  if (env != nullptr) {
    if (const char* v = std::getenv(env); v != nullptr && *v != '\0') {
      const auto parsed = parse_ll(v);
      if (!parsed) die_bad_value("environment variable", env, v);
      return *parsed;
    }
  }
  return dflt;
}

std::vector<std::string> flag_all(int argc, char** argv,
                                  const std::string& name) {
  const std::string prefix = name + "=";
  std::vector<std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      values.push_back(arg.substr(prefix.size()));
    } else if (arg == name) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: flag %s requires a value\n",
                     name.c_str());
        std::exit(2);
      }
      values.emplace_back(argv[++i]);
    }
  }
  return values;
}

std::optional<std::string> flag_str(int argc, char** argv,
                                    const std::string& name) {
  auto values = flag_all(argc, argv, name);
  if (values.empty()) return std::nullopt;
  return std::move(values.front());
}

}  // namespace paai
