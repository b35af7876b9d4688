#include "protocols/score.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace paai::protocols {

namespace {

constexpr double kNoMargin = std::numeric_limits<double>::infinity();

/// A record with `theta`, `sd` and `tally`, and the windowed half from
/// `ledger`: the link's flagrant-window count and longest hot streak.
LinkEvidence with_windows(const WindowLedger& ledger, std::size_t link,
                          double theta, double sd, double tally) {
  return {theta, sd, tally, ledger.flagrant_windows(link),
          ledger.max_streak(link)};
}

/// The links `spec` convicts at `threshold`, ascending, into `out`
/// (overwritten; a reused `out` stays off the heap).
void convicted_links(const BlameSpec& spec, double threshold,
                     const std::vector<LinkEvidence>& evidence,
                     std::vector<std::size_t>* out) {
  out->clear();
  for (std::size_t i = 0; i < evidence.size(); ++i) {
    if (convicts(spec, threshold, evidence[i])) out->push_back(i);
  }
}

/// A table's verdict under `spec`: its records through convicted_links().
template <class Table>
std::vector<std::size_t> verdict_of(const Table& table, const BlameSpec& spec,
                                    double threshold) {
  std::vector<LinkEvidence> evidence;
  table.evidence(&evidence);
  std::vector<std::size_t> out;
  convicted_links(spec, threshold, evidence, &out);
  return out;
}

/// PAAI-2's prefix-difference estimator over selection bins `sel_n`/
/// `sel_f` (cumulative, or one window's) at end-to-end drop rate `psi`:
/// calls put(j, theta_j) for each link in order.
///
/// q_e is the unconditional prefix-failure probability, carried forward
/// while selection index e has no observations yet. The per-link cycle
/// rate comes from adjacent prefix differences, then goes down to a
/// per-traversal rate. The data packet always crosses a prefix link, but
/// the probe and the report only exist when a probe fired (probability
/// psi), so one monitored cycle exposes a prefix link to ~(1 + 2 psi)
/// traversals. With psi = 0 (no data packet yet) every theta is 0.
template <class Put>
void prefix_difference(const std::vector<std::uint64_t>& sel_n,
                       const std::vector<std::uint64_t>& sel_f, double psi,
                       Put put) {
  const double traversals = 1.0 + 2.0 * psi;
  double q_lo = 0.0;  // q_0 is exactly zero
  for (std::size_t j = 0; j + 1 < sel_n.size(); ++j) {
    const std::size_t e = j + 1;
    double q_hi = q_lo;
    if (sel_n[e] != 0) {
      const double cond_fail =
          static_cast<double>(sel_f[e]) / static_cast<double>(sel_n[e]);
      q_hi = std::max(q_lo, psi * cond_fail);
    }
    const double denom = 1.0 - q_lo;
    const double g = denom > 0.0 ? (q_hi - q_lo) / denom : 0.0;
    put(j, 1.0 - std::pow(1.0 - std::clamp(g, 0.0, 1.0), 1.0 / traversals));
    q_lo = q_hi;
  }
}

/// theta_j = max(0, 1 - S_{j+1}/S_j) over per-node counts (cumulative or
/// one window's), 0 while S_j is empty.
double count_ratio_theta(const std::vector<double>& counts, std::size_t j) {
  if (counts[j] <= 0.0) return 0.0;
  return std::max(0.0, 1.0 - counts[j + 1] / counts[j]);
}

std::vector<double> count_ratio_thetas(const std::vector<double>& counts) {
  std::vector<double> out(counts.size() - 1);
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = count_ratio_theta(counts, j);
  }
  return out;
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

void ScoreTable::evidence(std::vector<LinkEvidence>* out) const {
  if (n_ == 0) {
    out->assign(s_.size(), kNoEvidence);
    return;
  }
  out->resize(s_.size());
  const double t = effective_traversals();
  for (std::size_t i = 0; i < s_.size(); ++i) {
    // First-failing-hop blames are the onion tables' persistence tally.
    (*out)[i] = with_windows(windows(), i, theta(i),
                             proportion_sd(n_, s_[i]) / t,
                             static_cast<double>(s_[i]));
  }
}

std::vector<std::size_t> ScoreTable::convicted(double threshold) const {
  return verdict_of(*this, blame_.spec(), threshold);
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
  std::vector<double> tw(s_.size());
  prefix_difference(win_sel_n_, win_sel_f_, observed_e2e_rate(),
                    [&](std::size_t j, double theta) { tw[j] = theta; });
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
  std::vector<double> out(s_.size());
  prefix_difference(sel_n_, sel_f_, observed_e2e_rate(),
                    [&](std::size_t j, double theta) { out[j] = theta; });
  return out;
}

void Paai2ScoreTable::evidence(std::vector<LinkEvidence>* out) const {
  out->resize(s_.size());
  const double psi = observed_e2e_rate();
  const double traversals = 1.0 + 2.0 * psi;
  prefix_difference(sel_n_, sel_f_, psi, [&](std::size_t j, double theta) {
    // theta_j differences two prefix-failure estimates, each a
    // proportion over the probes whose selection hit that index, so its
    // standard error combines both selection bins (scaled by psi, since
    // q_e = psi * conditional failure rate); q_0 is exactly zero.
    const double n_hi = static_cast<double>(sel_n_[j + 1]);
    const double inv_lo =
        j == 0 ? 0.0 : 1.0 / std::max(1.0, static_cast<double>(sel_n_[j]));
    const double sd =
        n_hi < 1.0 ? kNoMargin
                   : psi * 0.5 * std::sqrt(inv_lo + 1.0 / n_hi) / traversals;
    // Interval scores are PAAI-2's per-link blame tallies.
    (*out)[j] =
        with_windows(windows(), j, theta, sd, static_cast<double>(s_[j]));
  });
}

std::vector<std::size_t> Paai2ScoreTable::convicted(double threshold) const {
  return verdict_of(*this, blame_.spec(), threshold);
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
  blame_.close_window(count_ratio_thetas(win_acc_));
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
  return count_ratio_thetas(acc_);
}

void FlScoreTable::evidence(std::vector<LinkEvidence>* out) const {
  out->resize(num_links());
  for (std::size_t j = 0; j < num_links(); ++j) {
    // A ratio of Poisson-ish sampled counts: both carry sampling noise.
    const double sj = acc_[j];
    const double sd =
        sj < 1.0 ? kNoMargin : std::sqrt(2.0 * acc_[j + 1] + 1.0) / sj;
    // The sampled-count deficit at this hop plays the blame-tally role:
    // at least K sampled packets must have vanished here.
    (*out)[j] = with_windows(windows(), j, count_ratio_theta(acc_, j), sd,
                             acc_[j] - acc_[j + 1]);
  }
}

std::vector<std::size_t> FlScoreTable::convicted(double threshold) const {
  return verdict_of(*this, blame_.spec(), threshold);
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
    : protocol_(protocol),
      blame_(blame),
      table_(make_table(protocol, num_links)) {
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

void Scorer::evidence(std::vector<LinkEvidence>* out) const {
  std::visit([&](const auto& table) { table.evidence(out); }, table_);
}

std::vector<std::size_t> Scorer::convicted(double threshold) const {
  std::vector<std::size_t> out;
  std::vector<LinkEvidence> scratch;
  convicted(threshold, &out, &scratch);
  return out;
}

void Scorer::convicted(double threshold, std::vector<std::size_t>* out,
                       std::vector<LinkEvidence>* scratch) const {
  evidence(scratch);
  convicted_links(blame_, threshold, *scratch, out);
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
