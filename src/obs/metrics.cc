#include "obs/metrics.h"

namespace paai::obs {

namespace detail {

std::size_t this_thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return shard;
}

std::uint64_t CounterCells::total() const {
  std::uint64_t n = 0;
  for (const auto& s : shards) n += s.value.load(std::memory_order_relaxed);
  return n;
}

void CounterCells::reset() {
  for (auto& s : shards) s.value.store(0, std::memory_order_relaxed);
}

void GaugeCell::reset() {
  value.store(0, std::memory_order_relaxed);
  high.store(std::numeric_limits<std::int64_t>::min(),
             std::memory_order_relaxed);
}

}  // namespace detail

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<detail::CounterCells>())
             .first;
  }
  return Counter(it->second.get());
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name), std::make_unique<detail::GaugeCell>())
             .first;
  }
  return Gauge(it->second.get());
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, cells] : counters_) {
    snap.counters.push_back(CounterSnapshot{name, cells->total()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) {
    GaugeSnapshot g;
    g.name = name;
    g.value = cell->value.load(std::memory_order_relaxed);
    const std::int64_t high = cell->high.load(std::memory_order_relaxed);
    g.high = high == std::numeric_limits<std::int64_t>::min() ? g.value : high;
    snap.gauges.push_back(std::move(g));
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, cells] : counters_) cells->reset();
  for (auto& [name, cell] : gauges_) cell->reset();
}

}  // namespace paai::obs
