#include "stream/engine.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

namespace paai::stream {

namespace {

std::string describe(const obs::Event& e) {
  return std::string(obs::event_kind_name(e.kind)) +
         " (node " + std::to_string(e.node) + ", seq " +
         std::to_string(e.seq) + ")";
}

}  // namespace

void ScoreEngine::configure(const EngineConfig& config) {
  if (config.num_links == 0) {
    throw std::runtime_error("stream: configuration needs at least one link");
  }
  config_ = config;
  onion_.reset();
  prefix_.reset();
  fl_.reset();

  // The same table classes with the same calibration literals as the
  // batch source constructors (FullAckSource, which Comb1Source reuses,
  // Paai1Source, SigAckSource, Paai2Source, StatFlSource) — bit-identity
  // depends on this.
  switch (config.protocol) {
    case protocols::ProtocolKind::kFullAck:
    case protocols::ProtocolKind::kCombination1:
    case protocols::ProtocolKind::kSigAck:
      onion_.emplace(config.num_links, /*traversals=*/1.0,
                     /*probe_extra=*/2.0);
      table_ = Table::kOnion;
      break;
    case protocols::ProtocolKind::kPaai1:
      onion_.emplace(config.num_links, /*traversals=*/2.6);
      table_ = Table::kOnion;
      break;
    case protocols::ProtocolKind::kPaai2:
    case protocols::ProtocolKind::kCombination2:
      prefix_.emplace(config.num_links);
      table_ = Table::kPrefix;
      break;
    case protocols::ProtocolKind::kStatisticalFl:
      fl_.emplace(config.num_links);
      table_ = Table::kFl;
      break;
  }
  if (onion_) onion_->set_blame(config.blame);
  if (prefix_) prefix_->set_blame(config.blame);
  if (fl_) fl_->set_blame(config.blame);

  packets_sent_ = 0;
  delivered_ = 0;
  run_ended_ = false;
  recorded_.clear();
  // Sized once here so take_new_convictions() never grows them.
  convicted_before_.clear();
  convicted_before_.reserve(config.num_links);
  convicted_now_.reserve(config.num_links);
  theta_scratch_.reserve(config.num_links + 1);

  auto& reg = obs::MetricsRegistry::global();
  obs_ingested_ = reg.counter("stream.events.ingested");
  obs_applied_ = reg.counter("stream.events.applied");
  obs_convictions_ = reg.counter("stream.convictions");
}

void ScoreEngine::require_configured(const obs::Event& event) const {
  if (table_ == Table::kNone) {
    throw std::runtime_error("stream: " + describe(event) +
                             " before any run-config (configure the engine "
                             "or feed a log with a run-config prologue)");
  }
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
      if (table_ == Table::kNone) {
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
    case obs::EventKind::kDataSend:
      require_configured(event);
      ++packets_sent_;
      // Plain PAAI-2 monitors every data packet; sampled monitoring
      // (comb2) announces its trials via kSampleSelect instead.
      if (config_.protocol == protocols::ProtocolKind::kPaai2) {
        prefix_->add_data_packet();
      }
      break;
    case obs::EventKind::kSampleSelect:
      require_configured(event);
      if (config_.protocol == protocols::ProtocolKind::kCombination2) {
        prefix_->add_data_packet();
      } else {
        return;  // paai1/statfl sampling marks are informational
      }
      break;
    case obs::EventKind::kAckTimeout:
      require_configured(event);
      if (table_ == Table::kOnion &&
          config_.protocol != protocols::ProtocolKind::kPaai1) {
        // full-ack / comb1 / sigack: this round ran a probe (dynamic
        // probe_extra exposure). PAAI-1's fixed 2.6 has no probe term and
        // its batch source never calls note_probe.
        onion_->note_probe();
      } else if (table_ == Table::kFl) {
        fl_->interval_lost();
      } else {
        return;  // paai1/paai2 timeouts only gate later score events
      }
      break;
    case obs::EventKind::kScoreClean:
      require_configured(event);
      apply_score_clean(event);
      break;
    case obs::EventKind::kScoreBlame:
      require_configured(event);
      apply_score_blame(event);
      break;
    case obs::EventKind::kFlCount:
      require_configured(event);
      if (table_ != Table::kFl) {
        throw std::runtime_error("stream: " + describe(event) +
                                 " in a non-statfl stream");
      }
      if (event.link < 0 ||
          static_cast<std::size_t>(event.link) > config_.num_links) {
        throw std::runtime_error("stream: fl-count node out of range");
      }
      fl_->add_count(static_cast<std::size_t>(event.link), event.b);
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
      // Wire activity, probe/ack bookkeeping, onion decodes, lifecycle:
      // forensically useful, score-irrelevant.
      return;
  }
  ++events_applied_;
  obs_applied_.add();
}

void ScoreEngine::apply_score_clean(const obs::Event& event) {
  switch (table_) {
    case Table::kOnion:
      onion_->add_clean();
      ++delivered_;
      break;
    case Table::kPrefix:
      // b = the selected node e; a verified report proves the prefix
      // [l_0, l_{e-1}] clean.
      prefix_->add_probe(static_cast<std::size_t>(event.b),
                         /*prefix_failed=*/false);
      break;
    case Table::kFl:
      fl_->interval_reported();
      break;
    case Table::kNone:
      break;
  }
}

void ScoreEngine::apply_score_blame(const obs::Event& event) {
  switch (table_) {
    case Table::kOnion:
      if (event.link < 0 ||
          static_cast<std::size_t>(event.link) >= config_.num_links) {
        throw std::runtime_error("stream: " + describe(event) +
                                 " names an out-of-range link");
      }
      onion_->blame(static_cast<std::size_t>(event.link));
      break;
    case Table::kPrefix:
      prefix_->add_probe(static_cast<std::size_t>(event.b),
                         /*prefix_failed=*/true);
      break;
    case Table::kFl:
      throw std::runtime_error("stream: " + describe(event) +
                               " is impossible for statfl (counts, not "
                               "blames, drive its estimator)");
    case Table::kNone:
      break;
  }
}

std::uint64_t ScoreEngine::observations() const {
  switch (table_) {
    case Table::kOnion:
      return onion_->observations();
    case Table::kPrefix:
      return prefix_->probes();
    case Table::kFl:
      return fl_->intervals_reported();
    case Table::kNone:
      return 0;
  }
  return 0;
}

std::vector<double> ScoreEngine::thetas() const {
  switch (table_) {
    case Table::kOnion:
      return onion_->thetas();
    case Table::kPrefix:
      return prefix_->thetas();
    case Table::kFl:
      return fl_->thetas();
    case Table::kNone:
      return {};
  }
  return {};
}

std::vector<std::size_t> ScoreEngine::convicted() const {
  std::vector<std::size_t> out;
  std::vector<double> scratch;
  convicted(&out, &scratch);
  return out;
}

void ScoreEngine::convicted(std::vector<std::size_t>* out,
                            std::vector<double>* scratch) const {
  switch (table_) {
    case Table::kOnion:
      onion_->convicted(config_.threshold, out);
      return;
    case Table::kPrefix:
      prefix_->convicted(config_.threshold, out, scratch);
      return;
    case Table::kFl:
      fl_->convicted(config_.threshold, out, scratch);
      return;
    case Table::kNone:
      out->clear();
      return;
  }
}

double ScoreEngine::observed_e2e_rate() const {
  switch (table_) {
    case Table::kOnion: {
      // Denominators mirror the batch sources exactly: full-ack and
      // sigack rate against packets sent; paai1 and comb1 against
      // resolved observations.
      const bool per_sent =
          config_.protocol == protocols::ProtocolKind::kFullAck ||
          config_.protocol == protocols::ProtocolKind::kSigAck;
      const std::uint64_t denom =
          per_sent ? packets_sent_ : onion_->observations();
      if (denom == 0) return 0.0;
      return 1.0 -
             static_cast<double>(delivered_) / static_cast<double>(denom);
    }
    case Table::kPrefix:
      return prefix_->observed_e2e_rate();
    case Table::kFl:
      return fl_->observed_e2e_rate();
    case Table::kNone:
      return 0.0;
  }
  return 0.0;
}

std::vector<std::size_t> ScoreEngine::take_new_convictions() {
  std::vector<std::size_t> fresh;
  if (table_ == Table::kNone) return fresh;
  convicted(&convicted_now_, &theta_scratch_);
  // Both sets ascend, so the entries are a sorted set difference; an
  // empty `fresh` never allocates.
  std::set_difference(convicted_now_.begin(), convicted_now_.end(),
                      convicted_before_.begin(), convicted_before_.end(),
                      std::back_inserter(fresh));
  convicted_before_.swap(convicted_now_);
  if (!fresh.empty()) obs_convictions_.add(fresh.size());
  return fresh;
}

void ScoreEngine::restore_counters(std::uint64_t events_seen,
                                   std::uint64_t events_applied,
                                   std::uint64_t packets_sent,
                                   std::uint64_t delivered, bool run_ended,
                                   std::vector<ConvictionRecord> recorded) {
  events_seen_ = events_seen;
  events_applied_ = events_applied;
  packets_sent_ = packets_sent;
  delivered_ = delivered;
  run_ended_ = run_ended;
  recorded_ = std::move(recorded);
}

void ScoreEngine::rebaseline_convictions() {
  convicted(&convicted_before_, &theta_scratch_);
}

}  // namespace paai::stream
