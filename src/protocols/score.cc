#include "protocols/score.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace paai::protocols {

namespace {

/// The windowed half of a table's blame_convicts() evidence: one link's
/// flagrant-window count and longest hot streak from the ledger. Each
/// table's evidence view derives from it and adds its own margin,
/// estimate and persistence tally.
struct LedgerEvidence {
  const WindowLedger& ledger;
  std::size_t link;
  std::uint64_t flagrant() const { return ledger.flagrant_windows(link); }
  std::uint64_t max_streak() const { return ledger.max_streak(link); }
};

/// theta_j = max(0, 1 - S_{j+1}/S_j) over per-node counts (cumulative or
/// one window's), 0 while S_j is empty.
void count_ratio_thetas(const std::vector<double>& counts,
                        std::vector<double>* out) {
  out->assign(counts.size() - 1, 0.0);
  for (std::size_t j = 0; j + 1 < counts.size(); ++j) {
    if (counts[j] <= 0.0) continue;
    (*out)[j] = std::max(0.0, 1.0 - counts[j + 1] / counts[j]);
  }
}

}  // namespace

ScoreTable::ScoreTable(std::size_t num_links, double traversals,
                       double probe_extra)
    : s_(num_links, 0),
      traversals_(traversals),
      probe_extra_(probe_extra),
      win_s_(num_links, 0),
      blame_(num_links) {
  if (num_links == 0 || traversals <= 0.0 || probe_extra < 0.0) {
    throw std::invalid_argument("ScoreTable: bad construction parameters");
  }
  auto& reg = obs::MetricsRegistry::global();
  obs_updates_ = reg.counter("proto.score.updates");
  obs_blames_ = reg.counter("proto.score.blames");
}

double ScoreTable::effective_traversals() const {
  if (n_ == 0 || probe_extra_ == 0.0) return traversals_;
  return traversals_ + probe_extra_ * static_cast<double>(probes_) /
                           static_cast<double>(n_);
}

void ScoreTable::roll_window() {
  if (blame_.fill(n_) != 0) return;
  // Close the window: per-link sliding estimate from this window's blame
  // bins, inverted through the *current* effective exposure (replayed
  // identically by the stream engine, which sees the same counters).
  const double w = static_cast<double>(windows().width());
  const double inv_t = 1.0 / effective_traversals();
  std::vector<double> tw(s_.size());
  for (std::size_t i = 0; i < s_.size(); ++i) {
    const double b = static_cast<double>(win_s_[i]) / w;
    tw[i] = 1.0 - std::pow(1.0 - std::min(b, 1.0), inv_t);
  }
  blame_.close_window(tw);
  std::fill(win_s_.begin(), win_s_.end(), 0ULL);
}

void ScoreTable::add_clean() {
  ++n_;
  obs_updates_.add();
  roll_window();
}

void ScoreTable::blame(std::size_t link) {
  if (link >= s_.size()) {
    throw std::out_of_range("ScoreTable::blame: link index out of range");
  }
  ++n_;
  ++s_[link];
  ++win_s_[link];
  obs_updates_.add();
  obs_blames_.add();
  roll_window();
}

double ScoreTable::theta(std::size_t link) const {
  if (n_ == 0) return 0.0;
  const double blame_rate =
      static_cast<double>(s_[link]) / static_cast<double>(n_);
  // Invert 1 - (1-theta)^t = blame_rate.
  return 1.0 - std::pow(1.0 - std::min(blame_rate, 1.0),
                        1.0 / effective_traversals());
}

std::vector<double> ScoreTable::thetas() const {
  std::vector<double> out(s_.size());
  for (std::size_t i = 0; i < s_.size(); ++i) out[i] = theta(i);
  return out;
}

bool ScoreTable::margin_convicts(std::size_t link, double threshold) const {
  // Conviction requires the estimate to clear the threshold by one
  // standard error — the operational form of the paper's "converged
  // condition" (§7: the observed rate approaches its true value within a
  // small uncertainty interval before decisions are made). Without the
  // margin, early small-sample noise convicts honest links.
  const double n = static_cast<double>(n_);
  const double b = static_cast<double>(s_[link]) / n;
  const double sd_b = std::sqrt(std::max(b, 1.0 / n) * (1.0 - b) / n);
  const double sd_theta = sd_b / effective_traversals();
  return theta(link) - sd_theta > threshold;
}

std::vector<std::size_t> ScoreTable::convicted(double threshold) const {
  std::vector<std::size_t> out;
  convicted(threshold, &out);
  return out;
}

struct ScoreTable::Evidence : LedgerEvidence {
  const ScoreTable& t;
  bool margin(double threshold) const {
    return t.margin_convicts(link, threshold);
  }
  double theta() const { return t.theta(link); }
  // First-failing-hop blames are the onion tables' persistence tally.
  double tally() const { return static_cast<double>(t.s_[link]); }
};

void ScoreTable::convicted(double threshold,
                           std::vector<std::size_t>* out) const {
  out->clear();
  if (n_ == 0) return;
  for (std::size_t i = 0; i < s_.size(); ++i) {
    if (blame_.convicts(threshold, Evidence{{windows(), i}, *this})) {
      out->push_back(i);
    }
  }
}

Paai2ScoreTable::Paai2ScoreTable(std::size_t num_links)
    : s_(num_links, 0),
      sel_n_(num_links + 1, 0),
      sel_f_(num_links + 1, 0),
      win_sel_n_(num_links + 1, 0),
      win_sel_f_(num_links + 1, 0),
      blame_(num_links) {
  if (num_links == 0) {
    throw std::invalid_argument("Paai2ScoreTable: need at least one link");
  }
  auto& reg = obs::MetricsRegistry::global();
  obs_updates_ = reg.counter("proto.score.updates");
  obs_blames_ = reg.counter("proto.score.blames");
}

void Paai2ScoreTable::roll_window() {
  if (blame_.fill(probes_) != 0) return;
  // Windowed prefix-difference estimator: the selection bins are this
  // window's only. psi and the traversal exponent stay cumulative — they
  // calibrate exposure, not the time-local rate.
  std::vector<double> tw;
  estimate(win_sel_n_, win_sel_f_, &tw);
  blame_.close_window(tw);
  std::fill(win_sel_n_.begin(), win_sel_n_.end(), 0ULL);
  std::fill(win_sel_f_.begin(), win_sel_f_.end(), 0ULL);
}

void Paai2ScoreTable::add_data_packet() { ++data_packets_; }

void Paai2ScoreTable::add_probe(std::size_t selected, bool prefix_failed) {
  if (selected < 1 || selected > s_.size()) {
    throw std::out_of_range("Paai2ScoreTable::add_probe: bad selection");
  }
  ++probes_;
  ++sel_n_[selected];
  ++win_sel_n_[selected];
  obs_updates_.add();
  if (prefix_failed) {
    ++sel_f_[selected];
    ++win_sel_f_[selected];
    // The paper's scoring rule: +1 to every link in [l_0, l_{e-1}].
    for (std::size_t j = 0; j < selected; ++j) ++s_[j];
    obs_blames_.add();
  }
  roll_window();
}

double Paai2ScoreTable::observed_e2e_rate() const {
  if (data_packets_ == 0) return 0.0;
  return static_cast<double>(probes_) / static_cast<double>(data_packets_);
}

std::vector<double> Paai2ScoreTable::thetas() const {
  std::vector<double> out;
  thetas(&out);
  return out;
}

void Paai2ScoreTable::thetas(std::vector<double>* out) const {
  if (data_packets_ == 0) {
    out->assign(s_.size(), 0.0);
    return;
  }
  estimate(sel_n_, sel_f_, out);
}

void Paai2ScoreTable::estimate(const std::vector<std::uint64_t>& sel_n,
                               const std::vector<std::uint64_t>& sel_f,
                               std::vector<double>* out) const {
  const std::size_t d = s_.size();
  std::vector<double>& q = *out;
  q.assign(d + 1, 0.0);
  const double psi = observed_e2e_rate();

  // Unconditional prefix-failure probabilities q_e; carry forward when
  // a selection index has no observations yet.
  for (std::size_t e = 1; e <= d; ++e) {
    if (sel_n[e] == 0) {
      q[e] = q[e - 1];
      continue;
    }
    const double cond_fail =
        static_cast<double>(sel_f[e]) / static_cast<double>(sel_n[e]);
    q[e] = std::max(q[e - 1], psi * cond_fail);
  }

  // Per-link cycle rate from adjacent prefix differences, then down to
  // a per-traversal rate. The data packet always crosses a prefix link,
  // but the probe and the report only exist when a probe fired
  // (probability psi), so one monitored cycle exposes a prefix link to
  // ~(1 + 2 psi) traversals. theta_j overwrites q_j in place: q_j and
  // q_{j+1} are both read before the write.
  const double traversals = 1.0 + 2.0 * psi;
  for (std::size_t j = 0; j < d; ++j) {
    const double denom = 1.0 - q[j];
    const double g = denom > 0.0 ? (q[j + 1] - q[j]) / denom : 0.0;
    q[j] = 1.0 - std::pow(1.0 - std::clamp(g, 0.0, 1.0), 1.0 / traversals);
  }
  q.pop_back();
}

bool Paai2ScoreTable::margin_convicts(std::size_t link, double threshold,
                                      const std::vector<double>& th) const {
  // Same two-standard-error evidence rule as ScoreTable. The per-link
  // estimate comes from the difference of two prefix-failure estimates,
  // each a proportion over the probes whose selection hit that index, so
  // the standard error combines both selection bins (scaled by psi, since
  // q_e = psi * conditional failure rate).
  const double psi = observed_e2e_rate();
  const double traversals = 1.0 + 2.0 * psi;
  const double n_hi = static_cast<double>(sel_n_[link + 1]);
  if (n_hi < 1.0) return false;
  // q_0 is exactly zero; q_j for j >= 1 carries its own bin's noise.
  const double inv_lo =
      link == 0 ? 0.0
                : 1.0 / std::max(1.0, static_cast<double>(sel_n_[link]));
  const double sd_q = psi * 0.5 * std::sqrt(inv_lo + 1.0 / n_hi);
  const double margin = sd_q / traversals;
  return th[link] - margin > threshold;
}

std::vector<std::size_t> Paai2ScoreTable::convicted(double threshold) const {
  std::vector<std::size_t> out;
  std::vector<double> th;
  convicted(threshold, &out, &th);
  return out;
}

struct Paai2ScoreTable::Evidence : LedgerEvidence {
  const Paai2ScoreTable& t;
  const std::vector<double>& th;
  bool margin(double threshold) const {
    return t.margin_convicts(link, threshold, th);
  }
  double theta() const { return th[link]; }
  // Interval scores are PAAI-2's per-link blame tallies.
  double tally() const { return static_cast<double>(t.s_[link]); }
};

void Paai2ScoreTable::convicted(double threshold,
                                std::vector<std::size_t>* out,
                                std::vector<double>* scratch) const {
  thetas(scratch);
  out->clear();
  for (std::size_t j = 0; j < scratch->size(); ++j) {
    if (blame_.convicts(threshold, Evidence{{windows(), j}, *this, *scratch})) {
      out->push_back(j);
    }
  }
}

FlScoreTable::FlScoreTable(std::size_t num_links)
    : acc_(num_links + 1, 0.0),
      win_acc_(num_links + 1, 0.0),
      blame_(num_links) {
  if (num_links == 0) {
    throw std::invalid_argument("FlScoreTable: need at least one link");
  }
}

void FlScoreTable::roll_window() {
  if (blame_.fill(intervals_reported_) != 0) return;
  std::vector<double> tw;
  count_ratio_thetas(win_acc_, &tw);
  blame_.close_window(tw);
  std::fill(win_acc_.begin(), win_acc_.end(), 0.0);
}

void FlScoreTable::add_count(std::size_t node, std::uint64_t count) {
  if (node >= acc_.size()) {
    throw std::out_of_range("FlScoreTable::add_count: node index out of range");
  }
  acc_[node] += static_cast<double>(count);
  win_acc_[node] += static_cast<double>(count);
}

void FlScoreTable::interval_reported() {
  ++intervals_reported_;
  roll_window();
}

std::vector<double> FlScoreTable::thetas() const {
  std::vector<double> out;
  thetas(&out);
  return out;
}

void FlScoreTable::thetas(std::vector<double>* out) const {
  count_ratio_thetas(acc_, out);
}

bool FlScoreTable::margin_convicts(std::size_t link, double threshold,
                                   const std::vector<double>& th) const {
  // One-standard-error evidence rule on a ratio of Poisson-ish sampled
  // counts: Var(S_{j+1}/S_j) ~ 2 S_{j+1} / S_j^2 (both counts carry
  // sampling noise); the +1 keeps a total blackhole (S_{j+1} = 0)
  // convictable with a finite margin.
  const double sj = acc_[link];
  if (sj < 1.0) return false;
  const double sd = std::sqrt(2.0 * acc_[link + 1] + 1.0) / sj;
  return th[link] - sd > threshold;
}

std::vector<std::size_t> FlScoreTable::convicted(double threshold) const {
  std::vector<std::size_t> out;
  std::vector<double> th;
  convicted(threshold, &out, &th);
  return out;
}

struct FlScoreTable::Evidence : LedgerEvidence {
  const FlScoreTable& t;
  const std::vector<double>& th;
  bool margin(double threshold) const {
    return t.margin_convicts(link, threshold, th);
  }
  double theta() const { return th[link]; }
  // The sampled-count deficit at this hop plays the blame-tally role:
  // at least K sampled packets must have vanished here.
  double tally() const { return t.acc_[link] - t.acc_[link + 1]; }
};

void FlScoreTable::convicted(double threshold, std::vector<std::size_t>* out,
                             std::vector<double>* scratch) const {
  thetas(scratch);
  out->clear();
  for (std::size_t j = 0; j < scratch->size(); ++j) {
    if (blame_.convicts(threshold, Evidence{{windows(), j}, *this, *scratch})) {
      out->push_back(j);
    }
  }
}

double FlScoreTable::observed_e2e_rate() const {
  if (acc_[0] <= 0.0) return 0.0;
  return std::max(0.0, 1.0 - acc_.back() / acc_[0]);
}

namespace {

/// The table `protocol` scores with, calibrated.
std::variant<ScoreTable, Paai2ScoreTable, FlScoreTable> make_table(
    ProtocolKind protocol, std::size_t num_links) {
  switch (protocol) {
    case ProtocolKind::kFullAck:
    case ProtocolKind::kCombination1:
    case ProtocolKind::kSigAck:
      // A data drop on l_i is always localized there (1 traversal); a
      // lost destination ack resolves to "clean" via the onion round (the
      // data demonstrably arrived); the probe and onion legs add exposure
      // only in rounds that actually probed, hence the dynamic
      // probe_extra term (see ScoreTable).
      return ScoreTable(num_links, /*traversals=*/1.0, /*probe_extra=*/2.0);
    case ProtocolKind::kPaai1:
      // Every probed packet exposes a link to the data, probe and onion
      // legs: nominally 3 traversals, but a drop suppresses the same
      // round's downstream legs (an onion that originated upstream of l_i
      // never crosses it), leaving an effective exposure of ~2.6.
      // Calibrated so that honest links estimate at their true natural
      // rate.
      return ScoreTable(num_links, /*traversals=*/2.6);
    case ProtocolKind::kPaai2:
    case ProtocolKind::kCombination2:
      return Paai2ScoreTable(num_links);
    case ProtocolKind::kStatisticalFl:
      return FlScoreTable(num_links);
  }
  throw std::invalid_argument("Scorer: unknown protocol kind");
}

[[noreturn]] void impossible(const obs::Event& e, const char* why) {
  throw std::runtime_error(std::string(obs::event_kind_name(e.kind)) +
                           " (node " + std::to_string(e.node) + ", seq " +
                           std::to_string(e.seq) + ") " + why);
}

template <class T>
constexpr bool kOnion = std::is_same_v<T, ScoreTable>;

}  // namespace

Scorer::Scorer(ProtocolKind protocol, std::size_t num_links,
               const BlameSpec& blame)
    : protocol_(protocol), table_(make_table(protocol, num_links)) {
  std::visit([&](auto& table) { table.set_blame(blame); }, table_);
}

bool Scorer::apply_to(ScoreTable& t, obs::Event& e) {
  switch (e.kind) {
    case obs::EventKind::kDataSend:
      ++sent_;
      return true;
    case obs::EventKind::kAckTimeout:
      if (protocol_ == ProtocolKind::kPaai1) return false;
      t.note_probe();
      return true;
    case obs::EventKind::kScoreClean:
      t.add_clean();
      ++delivered_;
      e.b = t.observations();
      return true;
    case obs::EventKind::kScoreBlame: {
      if (e.link < 0 || static_cast<std::size_t>(e.link) >= t.num_links()) {
        impossible(e, "names an out-of-range link");
      }
      const auto link = static_cast<std::size_t>(e.link);
      t.blame(link);
      e.b = t.observations();
      e.value = t.theta(link);
      return true;
    }
    case obs::EventKind::kFlCount:
      impossible(e, "outside stat-FL");
    default:
      return false;
  }
}

bool Scorer::apply_to(Paai2ScoreTable& t, obs::Event& e) {
  switch (e.kind) {
    case obs::EventKind::kDataSend:
      ++sent_;
      if (protocol_ == ProtocolKind::kPaai2) t.add_data_packet();
      return true;
    case obs::EventKind::kSampleSelect:
      if (protocol_ != ProtocolKind::kCombination2) return false;
      t.add_data_packet();
      return true;
    case obs::EventKind::kScoreClean:
    case obs::EventKind::kScoreBlame:
      // b = the selected node e: a verified report proves the prefix
      // [l_0, l_{e-1}] clean, a failed or missing one blames it.
      t.add_probe(static_cast<std::size_t>(e.b),
                  e.kind == obs::EventKind::kScoreBlame);
      return true;
    case obs::EventKind::kFlCount:
      impossible(e, "outside stat-FL");
    default:
      return false;
  }
}

bool Scorer::apply_to(FlScoreTable& t, obs::Event& e) {
  switch (e.kind) {
    case obs::EventKind::kDataSend:
      ++sent_;
      return true;
    case obs::EventKind::kAckTimeout:
      t.interval_lost();
      return true;
    case obs::EventKind::kScoreClean:
      t.interval_reported();
      e.b = t.intervals_reported();
      return true;
    case obs::EventKind::kScoreBlame:
      impossible(e, "in stat-FL (counts, not blames, drive its estimator)");
    case obs::EventKind::kFlCount:
      if (e.link < 0 || static_cast<std::size_t>(e.link) > t.num_links()) {
        impossible(e, "names an out-of-range node");
      }
      t.add_count(static_cast<std::size_t>(e.link), e.b);
      return true;
    default:
      return false;
  }
}

std::uint64_t Scorer::observations() const {
  return std::visit([](const auto& table) { return table.observations(); },
                    table_);
}

std::vector<double> Scorer::thetas() const {
  return std::visit([](const auto& table) { return table.thetas(); }, table_);
}

std::vector<std::size_t> Scorer::convicted(double threshold) const {
  std::vector<std::size_t> out;
  std::vector<double> scratch;
  convicted(threshold, &out, &scratch);
  return out;
}

void Scorer::convicted(double threshold, std::vector<std::size_t>* out,
                       std::vector<double>* scratch) const {
  std::visit(
      [&](const auto& table) {
        if constexpr (kOnion<std::decay_t<decltype(table)>>) {
          table.convicted(threshold, out);
        } else {
          table.convicted(threshold, out, scratch);
        }
      },
      table_);
}

double Scorer::observed_e2e_rate() const {
  return std::visit(
      [&](const auto& table) {
        if constexpr (kOnion<std::decay_t<decltype(table)>>) {
          // Confirmed deliveries per monitored packet: full-ack and
          // sig-ack monitor every packet sent, PAAI-1 and comb1 only the
          // resolved observations.
          const bool per_sent = protocol_ == ProtocolKind::kFullAck ||
                                protocol_ == ProtocolKind::kSigAck;
          const std::uint64_t n = per_sent ? sent_ : table.observations();
          if (n == 0) return 0.0;
          return 1.0 -
                 static_cast<double>(delivered_) / static_cast<double>(n);
        } else {
          return table.observed_e2e_rate();
        }
      },
      table_);
}

}  // namespace paai::protocols
