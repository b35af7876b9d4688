// Seeded mutation fuzz for the strict JSON readers (obs/json.h
// JsonFieldReader): paai.state.v1 snapshots and paai.telemetry.v3 lines
// run through the same harness. Each mutant is one to three bit flips, a truncation, or
// the deletion of one object member. A reader must reject a mutant
// cleanly or accept it and rewrite it to a document that parses to the
// same value; a truncation is never accepted. Any exception other than
// the caller's clean rejection escapes and fails the test (and the
// suites run under ASan+UBSan in tools/check.sh).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace paai::fuzz {

/// Every way to delete one object member from `doc`, as (member name,
/// document without it). Relies on a compact writer format: no
/// whitespace, and no quotes or brackets inside strings.
inline std::vector<std::pair<std::string, std::string>> member_deletions(
    const std::string& doc) {
  std::vector<std::pair<std::string, std::string>> out;
  for (std::size_t i = 1; i < doc.size(); ++i) {
    if (doc[i] != '"' || (doc[i - 1] != '{' && doc[i - 1] != ',')) continue;
    const std::size_t close = doc.find('"', i + 1);
    if (close + 1 >= doc.size() || doc[close + 1] != ':') continue;
    std::size_t end = close + 2;  // one past the member's value
    int depth = 0;
    bool in_string = false;
    for (; end < doc.size(); ++end) {
      const char c = doc[end];
      if (in_string) {
        in_string = c != '"';
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{' || c == '[') {
        ++depth;
      } else if ((c == '}' || c == ']' || c == ',') && depth == 0) {
        break;
      } else if (c == '}' || c == ']') {
        --depth;
      }
    }
    std::string cut = doc;
    if (doc[i - 1] == ',') {
      cut.erase(i - 1, end - i + 1);
    } else {
      cut.erase(i, end - i + (doc[end] == ',' ? 1 : 0));
    }
    out.emplace_back(doc.substr(i + 1, close - i - 1), std::move(cut));
  }
  return out;
}

/// The canonical rewrite of the value `doc` parses to, or nullopt when
/// the reader rejects it.
using Rewrite = std::function<std::optional<std::string>(const std::string&)>;

struct Tally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
};

/// Runs `flips` bit-flip mutants, `cuts` truncations and every member
/// deletion of `doc` through `rewrite` (see the file comment). `doc`
/// itself must be accepted.
inline Tally mutation_fuzz(const std::string& doc, std::uint64_t seed,
                           const Rewrite& rewrite, int flips = 200,
                           int cuts = 40) {
  Tally tally;
  const auto check = [&](const std::string& mutant) {
    const std::optional<std::string> once = rewrite(mutant);
    if (!once) {
      ++tally.rejected;
      return false;
    }
    ++tally.accepted;
    const std::optional<std::string> twice = rewrite(*once);
    EXPECT_TRUE(twice.has_value()) << "rewrite rejected: " << *once;
    if (twice) {
      EXPECT_EQ(*twice, *once) << "mutant: " << mutant;
    }
    return true;
  };
  if (!check(doc)) {
    ADD_FAILURE() << "seed document rejected: " << doc;
    return tally;
  }
  Rng rng(seed);
  for (int round = 0; round < flips; ++round) {
    std::string flipped = doc;
    const std::uint64_t bits = 1 + rng.next_below(3);
    for (std::uint64_t b = 0; b < bits; ++b) {
      const std::size_t at = rng.next_below(flipped.size());
      flipped[at] = static_cast<char>(
          flipped[at] ^ static_cast<char>(1u << rng.next_below(8)));
    }
    check(flipped);
  }
  for (int round = 0; round < cuts; ++round) {
    const std::string cut = doc.substr(0, 1 + rng.next_below(doc.size() - 1));
    EXPECT_FALSE(check(cut)) << "truncation accepted: " << cut;
  }
  for (const auto& [member, without] : member_deletions(doc)) check(without);
  return tally;
}

}  // namespace paai::fuzz
