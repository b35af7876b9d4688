// Simulated time: signed 64-bit nanoseconds since simulation start.
//
// A plain integer (not std::chrono) keeps the event queue hot path free of
// template noise, but the helpers below keep call sites unit-explicit.
#pragma once

#include <cstdint>

namespace paai::sim {

using SimTime = std::int64_t;      // absolute, ns
using SimDuration = std::int64_t;  // relative, ns

constexpr SimDuration kNanosecond = 1;
constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
constexpr SimDuration kSecond = 1000 * kMillisecond;

constexpr SimDuration milliseconds(double ms) {
  return static_cast<SimDuration>(ms * static_cast<double>(kMillisecond));
}

constexpr SimDuration seconds(double s) {
  return static_cast<SimDuration>(s * static_cast<double>(kSecond));
}

constexpr double to_seconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

}  // namespace paai::sim
