// Span recorder: in-memory spans at every boundary the benchmark calls,
// self time per span and per layer, and Chrome trace_event export.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bench.h"

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
  os << '"';
}

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string name,
                           const char* layer)
    : rec_(rec) {
  Span span;
  span.name = std::move(name);
  span.layer = layer;
  span.parent = rec_->stack_.empty() ? -1 : rec_->stack_.back();
  index_ = static_cast<int>(rec_->spans_.size());
  rec_->spans_.push_back(std::move(span));
  rec_->stack_.push_back(index_);
  // Stamp last, so the recorder's own bookkeeping stays outside the span.
  rec_->spans_[static_cast<std::size_t>(index_)].start_ns = now_ns();
}

SpanRecorder::Scope::~Scope() {
  const std::int64_t end = now_ns();
  rec_->spans_[static_cast<std::size_t>(index_)].end_ns = end;
  rec_->stack_.pop_back();
}

std::vector<std::int64_t> SpanRecorder::self_ns() const {
  // Children of one parent run one after another on this thread, so the
  // time they cover is the sum of their durations.
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

std::map<std::string, double> SpanRecorder::self_ms_by_layer() const {
  std::map<std::string, double> out;
  const std::vector<std::int64_t> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

void SpanRecorder::write_chrome_json(const std::string& path,
                                     const std::string& workload) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    std::fprintf(stderr, "perfbench: cannot write trace to %s\n",
                 path.c_str());
    return;
  }
  const std::vector<std::int64_t> self = self_ns();
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  char num[64];
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ',';
    os << "\n{\"name\":";
    write_json_string(os, s.name);
    os << ",\"cat\":";
    write_json_string(os, s.layer);
    std::snprintf(num, sizeof num, "%.3f",
                  static_cast<double>(s.start_ns - t0) / 1e3);
    os << ",\"ph\":\"X\",\"ts\":" << num;
    std::snprintf(num, sizeof num, "%.3f",
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << ",\"dur\":" << num << ",\"pid\":" << workload_id_
       << ",\"tid\":1,\"args\":{\"span\":" << i << ",\"parent\":" << s.parent;
    std::snprintf(num, sizeof num, "%.3f", static_cast<double>(self[i]) / 1e3);
    os << ",\"self_us\":" << num << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":";
  write_json_string(os, workload);
  os << ",\"workload_id\":" << workload_id_ << ",\"self_ms\":{";
  bool first = true;
  for (const auto& [layer, ms] : self_ms_by_layer()) {
    if (!first) os << ',';
    first = false;
    write_json_string(os, layer);
    std::snprintf(num, sizeof num, "%.6f", ms);
    os << ':' << num;
  }
  os << "}}}\n";
}

}  // namespace perfbench
