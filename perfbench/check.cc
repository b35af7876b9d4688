// Verdict digests and the pass/fail ledger behind `attempted`/`failed`.
#include <algorithm>
#include <cstdio>

#include "bench.h"

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::string fnv_hex(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

void put_double(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a,", v);
  *out += buf;
}

void Checker::digest(const std::string& op, const std::string& text) {
  ++attempted_;
  const std::string hex = fnv_hex(text);
  bool ok = true;
  if (has_golden()) {
    const auto it = golden_.find(op);
    if (it == golden_.end() || it->second != hex) {
      std::fprintf(stderr,
                   "perfbench: %s seed %llu op %s: digest %s, golden %s\n",
                   workload_.c_str(), static_cast<unsigned long long>(seed_),
                   op.c_str(), hex.c_str(),
                   it == golden_.end() ? "(missing)" : it->second.c_str());
      ok = false;
    }
  }
  const auto [it, inserted] = first_.emplace(op, hex);
  if (!inserted && it->second != hex) {
    std::fprintf(stderr,
                 "perfbench: %s op %s: digest %s differs from the first "
                 "round's %s\n",
                 workload_.c_str(), op.c_str(), hex.c_str(),
                 it->second.c_str());
    ok = false;
  }
  if (!ok) ++failed_;
}

void Checker::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: %s: check failed: %s\n",
                 workload_.c_str(), what.c_str());
  }
}

}  // namespace perfbench
