// Small table formatter used by every bench binary: prints aligned columns
// for human reading, or CSV when requested (so the figure series can be fed
// straight into a plotting tool).
#pragma once

#include <cstddef>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
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

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double compactly (strips trailing zeros).
std::string fmt_num(double value, int precision = 4);

/// True when argv contains the given flag (e.g. "--csv").
bool has_flag(int argc, char** argv, const std::string& flag);

/// Strict base-10 integer parse: optional leading '-', digits only, no
/// whitespace, no trailing garbage, rejects overflow and empty input.
std::optional<long long> parse_ll(std::string_view text);

/// Returns the integer value of --name (either value form, as flag_str)
/// or env fallback, else dflt. A malformed value (e.g. PAAI_JOBS=all) is a
/// hard error: prints a diagnostic naming the offending flag/variable to
/// stderr and exits 2 — it must never silently become 0/dflt.
long long flag_or_env(int argc, char** argv, const std::string& name,
                      const char* env, long long dflt);

/// Every value of a repeatable flag, in argv order: "--name=value" or
/// "--name value". "--name" as the last token (missing value) exits 2.
std::vector<std::string> flag_all(int argc, char** argv,
                                  const std::string& name);

/// The first value of --name (either form, as flag_all), else nullopt.
std::optional<std::string> flag_str(int argc, char** argv,
                                    const std::string& name);

}  // namespace paai
