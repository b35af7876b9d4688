// Small table formatter used by every bench binary: prints aligned columns
// for human reading, or CSV when requested (so the figure series can be fed
// straight into a plotting tool).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace paai {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; fill it with cell()/num().
  Table& row();
  Table& cell(std::string value);
  Table& num(double value, int precision = 4);
  Table& integer(long long value);

  /// Renders with space-aligned columns.
  void print(std::ostream& os) const;
  /// Renders as RFC-4180 CSV: cells containing commas, quotes, or
  /// newlines are quoted (with "" escaping), everything else is emitted
  /// verbatim.
  void print_csv(std::ostream& os) const;

  /// Convenience: honours `csv` flag.
  void print(std::ostream& os, bool csv) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double compactly (strips trailing zeros).
std::string fmt_num(double value, int precision = 4);

/// True when argv contains the given flag (e.g. "--csv").
bool has_flag(int argc, char** argv, const std::string& flag);

/// Every value of a repeatable flag, in argv order: "--name=value" or
/// "--name value". "--name" as the last token (missing value) exits 2.
std::vector<std::string> flag_all(int argc, char** argv,
                                  const std::string& name);

/// The first value of --name (either form, as flag_all), else nullopt.
std::optional<std::string> flag_str(int argc, char** argv,
                                    const std::string& name);

/// The one number reader for flags: the value of --name (either form, as
/// flag_str) as a count (util::spec_parse_index: base-10 digits only, so
/// "-3", "2e3" and "all" are malformed) or a finite real
/// (util::spec_parse_double), else dflt. A malformed value prints
/// "error: <name>: ..." to stderr and exits 2 — it never becomes dflt.
std::uint64_t count_flag(int argc, char** argv, const std::string& name,
                         std::uint64_t dflt);
double real_flag(int argc, char** argv, const std::string& name,
                 double dflt);

}  // namespace paai
