// Host-speed calibration (see README.md, "Host speed").
//
// On a shared host the same round's wall time drifts by up to a factor of
// two over minutes, as the host's other tenants come and go. Medians over
// one run absorb bursts, not that drift. So every timed piece of work sits
// between two passes of a fixed calibration loop, and its wall time is
// divided by how much slower than on the reference host the loop ran
// around it.
//
// Tight arithmetic loops barely notice the contention that doubles the
// program's times; code shaped like the program does. So the loop has
// four program-like parts, each timed against its own reference: an
// event queue of heap-allocated closures (as in the simulator), a
// std::map under insert/erase churn (node allocation and pointer chasing),
// sorts of random keys (mispredicted branches), and a chain of SHA-256
// compressions (as in W-OTS and HMAC). A pass's slowdown is the mean of
// the parts' slowdowns. Every part keeps its memory under 1 MiB, so the
// passes barely move the process's peak RSS.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

// Nominal time of each part, near its time on the reference host (the
// 4-core Xeon VM of README.md); a part's slowdown is its time over this.
// They fix the scale of the rescaled times and how much each part weighs
// in the mean. Changing them changes every reported time.
constexpr double kQueueRefS = 0.0160;
constexpr double kMapRefS = 0.0160;
constexpr double kSortRefS = 0.0160;
constexpr double kHashRefS = 0.0160;

std::atomic<std::uint64_t> sink{0};

std::uint64_t xorshift(std::uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

double queue_pass() {
  struct Event {
    std::uint64_t at;
    std::uint64_t seq;
    std::function<void()> fire;
    bool operator>(const Event& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  std::uint64_t x = 0x2545f4914f6cdd1dull, acc = 0, seq = 0;
  const auto t0 = Clock::now();
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> q;
  for (int i = 0; i < 16; ++i) {
    q.push({xorshift(&x) & 0xffff, seq++, [&acc, i] { acc += i; }});
  }
  for (int n = 0; n < 150000; ++n) {
    Event e = q.top();
    q.pop();
    e.fire();
    // A capture too large for std::function's inline buffer, as a link
    // delivery's packet is.
    const std::array<std::uint64_t, 6> payload = {acc, seq, 1, 2, 3, 4};
    q.push({e.at + (xorshift(&x) & 0xffff), seq++,
            [&acc, payload] { acc += payload[0] ^ payload[5]; }});
  }
  const double s = seconds_since(t0);
  sink = acc;
  return s;
}

double map_pass() {
  std::uint64_t x = 88172645463325252ull;
  const auto t0 = Clock::now();
  std::map<std::uint64_t, std::uint64_t> m;
  for (int i = 0; i < 150000; ++i) {
    m[xorshift(&x) & 0xfff] += static_cast<std::uint64_t>(i);
    if (i & 1) m.erase(m.begin());
  }
  const double s = seconds_since(t0);
  sink = m.size();
  return s;
}

std::uint32_t rotr(std::uint32_t x, int n) { return x >> n | x << (32 - n); }

/// The SHA-256 compression function (FIPS 180-4), this directory's own
/// copy, chained as a W-OTS hash chain is.
void sha256_compress(std::uint32_t state[8], const std::uint32_t block[16]) {
  static constexpr std::uint32_t kK[64] = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = block[i];
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                             ((e & f) ^ (~e & g)) + kK[i] + w[i];
    const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                             ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

double hash_pass() {
  std::uint32_t state[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::uint32_t block[16] = {};
  const auto t0 = Clock::now();
  for (std::uint32_t i = 0; i < 30000; ++i) {
    for (int j = 0; j < 8; ++j) block[j] = state[j];  // next link of the chain
    block[8] = i;
    sha256_compress(state, block);
  }
  const double s = seconds_since(t0);
  sink = state[0];
  return s;
}

double sort_pass(std::vector<std::uint32_t>& keys) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto t0 = Clock::now();
  for (int r = 0; r < 6; ++r) {
    for (std::uint32_t& k : keys) k = static_cast<std::uint32_t>(xorshift(&x));
    std::sort(keys.begin(), keys.end());
  }
  const double s = seconds_since(t0);
  sink = keys[keys.size() / 2];
  return s;
}

}  // namespace

HostSpeed::HostSpeed(std::size_t threads)
    : keys_(threads, std::vector<std::uint32_t>(std::size_t{1} << 15)) {
  slowdown_before_ = pass();
}

double HostSpeed::pass() {
  // One calibration thread per workload thread, all at once, so a
  // workload that fans out is calibrated on as many cores as it uses.
  std::vector<std::array<double, kParts>> parts(keys_.size());
  auto calibrate = [&](std::size_t t) {
    parts[t] = {queue_pass() / kQueueRefS, map_pass() / kMapRefS,
                sort_pass(keys_[t]) / kSortRefS, hash_pass() / kHashRefS};
  };
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < parts.size(); ++t) {
    helpers.emplace_back(calibrate, t);
  }
  calibrate(0);
  for (std::thread& h : helpers) h.join();

  double sum = 0.0;
  for (std::size_t i = 0; i < kParts; ++i) {
    double part = 0.0;
    for (const auto& p : parts) part += p[i];
    part /= static_cast<double>(parts.size());
    part_slowdowns_[i].push_back(part);
    sum += part;
  }
  return sum / static_cast<double>(kParts);
}

std::string HostSpeed::describe() const {
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "median slowdown x%.3f (event queue x%.3f, map x%.3f, "
                "sort x%.3f, hash x%.3f)",
                median(slowdowns_), median(part_slowdowns_[0]),
                median(part_slowdowns_[1]), median(part_slowdowns_[2]),
                median(part_slowdowns_[3]));
  return buf;
}

double HostSpeed::rescale(double wall_s) {
  const double after = pass();
  const double slowdown = (slowdown_before_ + after) / 2.0;
  slowdown_before_ = after;
  slowdowns_.push_back(slowdown);
  return wall_s / slowdown;
}

}  // namespace perfbench
