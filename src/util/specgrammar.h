// Shared compact clause grammar for declarative plan specs:
//
//   plan    := clause (';' clause)*
//   clause  := kind '@' index [':' key '=' value (',' key '=' value)*]
//
// faults::FaultPlan ("ge@2:pb=0.3,...") , adversary::AdversaryPlan
// ("stealth@4:margin=0.9"), and mesh::Topology ("fattree@8") all parse
// through this helper and nothing else, so the grammars stay lexically
// identical and their fuzz suites exercise the same code.
// The key list may be empty ("fattree@8"); kinds with mandatory keys
// reject that through SpecClause::require(). Every malformed clause
// throws std::invalid_argument with the caller's prefix and a pointed
// message — specs must fail loudly, never silently produce nonsense.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace paai::util {

/// Throws std::invalid_argument("<prefix>: <message>").
[[noreturn]] void spec_error(const std::string& prefix,
                             const std::string& message);

/// One parsed clause, kind-agnostic: index plus key=value pairs.
struct SpecClause {
  std::string kind;
  std::size_t index = 0;
  std::vector<std::pair<std::string, double>> kv;

  std::optional<double> get(std::string_view key) const;

  /// Returns the key's value or throws "<kind> clause needs <key>=".
  double require(std::string_view key, const std::string& err_prefix) const;

  /// Throws "unknown key '<k>' in <kind> clause" for any key outside
  /// `allowed`.
  void check_keys(std::initializer_list<std::string_view> allowed,
                  const std::string& err_prefix) const;
};

/// Strips ASCII whitespace from both ends.
std::string_view spec_trim(std::string_view s);

/// Parses a finite double / a size_t index, or throws with a message
/// naming `what`. An index is base-10 digits only: no sign, whitespace,
/// exponent or trailing text, and no overflow. These are also the number
/// readers of every command-line flag (count_flag/real_flag, util/csv.h).
double spec_parse_double(std::string_view text, const std::string& what,
                         const std::string& err_prefix);
std::size_t spec_parse_index(std::string_view text, const std::string& what,
                             const std::string& err_prefix);

/// Range validators: [0, 1] probabilities and non-negative quantities.
void spec_check_probability(double value, const std::string& what,
                            const std::string& err_prefix);
void spec_check_nonnegative(double value, const std::string& what,
                            const std::string& err_prefix);

/// Splits a compact spec into clauses. Empty clauses (";;", trailing ';')
/// are skipped; a clause missing '@'/':' or key=value structure throws.
std::vector<SpecClause> parse_compact_clauses(std::string_view spec,
                                              const std::string& err_prefix);

/// Shortest round-trippable rendering of a double (std::to_chars).
std::string fmt_double(double value);

}  // namespace paai::util
