#include "stream/engine.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

namespace paai::stream {

void ScoreEngine::configure(const EngineConfig& config) {
  if (config.num_links == 0) {
    throw std::runtime_error("stream: configuration needs at least one link");
  }
  config_ = config;
  scorer_.emplace(config.protocol, config.num_links, config.blame);

  run_ended_ = false;
  recorded_.clear();
  // Sized once here so take_new_convictions() never grows them.
  convicted_before_.clear();
  convicted_before_.reserve(config.num_links);
  convicted_now_.reserve(config.num_links);
  evidence_scratch_.reserve(config.num_links);
}

bool ScoreEngine::apply_score(const obs::Event& event) {
  if (!scorer_) {
    throw std::runtime_error(
        std::string("stream: ") + obs::event_kind_name(event.kind) +
        " (node " + std::to_string(event.node) + ", seq " +
        std::to_string(event.seq) +
        ") before any run-config (configure the engine or feed a log with a "
        "run-config prologue)");
  }
  // The Scorer fills in the post-state payload the source logged; the
  // copy keeps the caller's event as read.
  obs::Event scored = event;
  return scorer_->apply(scored);
}

void ScoreEngine::apply(const obs::Event& event) {
  ++events_seen_;
  obs_ingested_.add();

  switch (event.kind) {
    case obs::EventKind::kRunConfig: {
      EngineConfig incoming;
      incoming.protocol = static_cast<protocols::ProtocolKind>(event.a);
      incoming.num_links = static_cast<std::size_t>(event.b);
      incoming.threshold = event.value;
      incoming.blame = event.link > 0
                           ? protocols::BlameSpec::decode32(event.link)
                           : protocols::BlameSpec{};
      if (!scorer_) {
        configure(incoming);
      } else if (incoming.protocol != config_.protocol ||
                 incoming.num_links != config_.num_links ||
                 incoming.blame != config_.blame ||
                 incoming.threshold != config_.threshold) {
        throw std::runtime_error(
            "stream: run-config contradicts the active configuration "
            "(mixed logs or wrong --state-in?)");
      }
      break;
    }
    case obs::EventKind::kRunEnd:
      run_ended_ = true;
      break;
    case obs::EventKind::kConviction: {
      if (event.link < 0) {
        throw std::runtime_error("stream: conviction without a link");
      }
      ConvictionRecord rec;
      rec.link = static_cast<std::size_t>(event.link);
      rec.packets = event.a;
      rec.observations = event.b;
      rec.theta = event.value;
      rec.line = stream_line_;
      recorded_.push_back(rec);
      break;
    }
    default:
      // Score events go to the Scorer. Wire activity, probe/ack
      // bookkeeping, onion decodes and lifecycle events are forensically
      // useful but score-irrelevant.
      if (!protocols::Scorer::reads(event.kind) || !apply_score(event)) {
        return;
      }
      break;
  }
  ++events_applied_;
  obs_applied_.add();
}

std::uint64_t ScoreEngine::packets_sent() const {
  return scorer_ ? scorer_->packets_sent() : 0;
}

std::uint64_t ScoreEngine::delivered() const {
  return scorer_ ? scorer_->delivered() : 0;
}

std::uint64_t ScoreEngine::observations() const {
  return scorer_ ? scorer_->observations() : 0;
}

std::vector<double> ScoreEngine::thetas() const {
  return scorer_ ? scorer_->thetas() : std::vector<double>{};
}

std::vector<std::size_t> ScoreEngine::convicted() const {
  return scorer_ ? scorer_->convicted(config_.threshold)
                 : std::vector<std::size_t>{};
}

double ScoreEngine::observed_e2e_rate() const {
  return scorer_ ? scorer_->observed_e2e_rate() : 0.0;
}

std::vector<std::size_t> ScoreEngine::take_new_convictions() {
  std::vector<std::size_t> fresh;
  if (!scorer_) return fresh;
  scorer_->convicted(config_.threshold, &convicted_now_, &evidence_scratch_);
  // Both sets ascend, so the entries are a sorted set difference; an
  // empty `fresh` never allocates.
  std::set_difference(convicted_now_.begin(), convicted_now_.end(),
                      convicted_before_.begin(), convicted_before_.end(),
                      std::back_inserter(fresh));
  convicted_before_.swap(convicted_now_);
  if (!fresh.empty()) obs_convictions_.add(fresh.size());
  return fresh;
}

std::vector<ConvictionRecord> ScoreEngine::verdict() const {
  std::vector<ConvictionRecord> out;
  if (!run_ended_) return out;
  for (const ConvictionRecord& rec : recorded_) {
    if (rec.packets != packets_sent()) continue;
    const auto same =
        std::find_if(out.begin(), out.end(), [&](const ConvictionRecord& v) {
          return v.link == rec.link;
        });
    if (same != out.end()) {
      *same = rec;
    } else {
      out.push_back(rec);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ConvictionRecord& x, const ConvictionRecord& y) {
              return x.link < y.link;
            });
  return out;
}

void ScoreEngine::restore_counters(std::uint64_t events_seen,
                                   std::uint64_t events_applied,
                                   std::uint64_t packets_sent,
                                   std::uint64_t delivered, bool run_ended,
                                   std::vector<ConvictionRecord> recorded) {
  events_seen_ = events_seen;
  events_applied_ = events_applied;
  scorer_->restore_counters(packets_sent, delivered);
  run_ended_ = run_ended;
  recorded_ = std::move(recorded);
}

void ScoreEngine::rebaseline_convictions() {
  scorer_->convicted(config_.threshold, &convicted_before_,
                     &evidence_scratch_);
}

}  // namespace paai::stream
