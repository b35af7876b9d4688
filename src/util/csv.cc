#include "util/csv.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "util/specgrammar.h"

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

namespace {

/// A malformed flag value: the reader's message already names the flag.
[[noreturn]] void exit_malformed(const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  std::exit(2);
}

}  // namespace

std::uint64_t count_flag(int argc, char** argv, const std::string& name,
                         std::uint64_t dflt) {
  const auto value = flag_str(argc, argv, name);
  try {
    return value ? util::spec_parse_index(*value, "value", name) : dflt;
  } catch (const std::invalid_argument& e) {
    exit_malformed(e);
  }
}

double real_flag(int argc, char** argv, const std::string& name,
                 double dflt) {
  const auto value = flag_str(argc, argv, name);
  try {
    return value ? util::spec_parse_double(*value, "value", name) : dflt;
  } catch (const std::invalid_argument& e) {
    exit_malformed(e);
  }
}

}  // namespace paai
