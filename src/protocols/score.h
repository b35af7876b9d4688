// Scoring and identification (§5 "score"/"identify" phases, §6.1 phases
// 4-5, §6.2 phases 4-5).
//
// ScoreTable — used by the onion-report protocols (full-ack, PAAI-1,
// Combination 1, statistical FL). Each monitored unit (packet, probe, or
// sampled interval slot) yields either "no blame" or "blame link l_i"; the
// per-link drop score s_i over n observations estimates the link's drop
// rate. Because a blame on l_i can stem from any of the (up to) t
// traversals that crossed it during one monitored unit (data + acks +
// probes), the per-traversal rate is recovered as
//     theta_i = 1 - (1 - s_i/n)^(1/t).
// The identify phase convicts l_i when theta_i exceeds the decision
// threshold — set between the natural rate rho and the per-link threshold
// alpha (we use the midpoint, giving the symmetric eps-margins Theorem 2's
// Hoeffding analysis assumes).
//
// Paai2ScoreTable — PAAI-2's interval scoring. On a failed probe with
// selected node F_e, every link of the prefix [l_0, l_{e-1}] gains one
// point (the paper's rule). The source also knows e for every probe (it
// computes the selection predicates itself), so the same information is
// kept as per-selection counters from which per-link rates are estimated:
//     q_e      = P[prefix-e failure]           (from failures when sel == e)
//     g_j      = (q_{j+1} - q_j) / (1 - q_j)   (per-link, per-"cycle")
//     theta_j  = 1 - (1 - g_j)^(1/t)           (per traversal, t = 3)
//
// FlScoreTable — statistical FL's accumulated per-node sampled counts
// (§6.2): theta_j = 1 - S_{j+1}/S_j over the counts folded in from each
// reported interval.
//
// All three tables additionally keep a windowed view of the same axis
// (protocols/window.h): every `W` monitored units they close a window,
// compute that window's per-link sliding estimate theta_w, and feed it
// into the WindowLedger of their BlameCore. The ledger powers the
// windowed/hybrid conviction rules behind --blame (BlameSpec) — burst-
// concentrated loss whose cumulative trace rides inside the margin still
// shows up as hot or flagrant windows. The ledger is maintained in every
// mode; margin-mode verdicts never read it.
//
// Conviction is one rule for all three: evidence() fills one LinkEvidence
// record per link — the family's estimate, that estimate's standard error,
// its persistence tally and the ledger's flagrant count and max streak —
// and convicts() (window.h) decides from the records. Only the records
// differ by family; the sd formulas are tabled in docs/DETECTORS.md.
//
// Scorer — the one identify phase of a path: it picks and calibrates the
// protocol's table and maps forensic events (obs/events.h) to table
// mutations. A batch source scores by applying each event it logs;
// src/stream applies the logged events to a Scorer of its own, so a
// replay is the source's computation and agrees to the last bit.
//
// visit() lists every mutable table field by name in snapshot order, so
// src/stream writes and restores a table bit-identically with one walk.
// reset() is the same walk with a zeroing visitor.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "obs/events.h"
#include "obs/metrics.h"
#include "protocols/context.h"
#include "protocols/window.h"

namespace paai::protocols {

class ScoreTable {
 public:
  /// `traversals` = per-unit link exposure in the typical case (PAAI-1:
  /// data + probe + onion, effectively ~2.6). `probe_extra` supports
  /// protocols whose probe rounds are *conditional* (full-ack, Comb-1):
  /// each round that actually probed adds this many extra traversals, so
  /// the effective exposure is traversals + probe_extra * (probes / n).
  /// This keeps estimates calibrated even when an adversary forces every
  /// round into a probe (e.g. by blackholing destination acks) — a fixed
  /// exponent would inflate honest upstream links threefold there.
  ScoreTable(std::size_t num_links, double traversals,
             double probe_extra = 0.0);

  /// Records that the current monitored unit ran a probe round.
  void note_probe() { ++probes_; }

  /// Records one monitored unit with no localized loss.
  void add_clean();

  /// Records one monitored unit blamed on link `link`.
  void blame(std::size_t link);

  std::uint64_t observations() const { return n_; }
  std::uint64_t probes() const { return probes_; }

  /// Selects the conviction rule (see BlameSpec in protocols/window.h).
  /// Must be called before the first monitored unit when it changes the
  /// window width; throws std::logic_error otherwise.
  void set_blame(const BlameSpec& spec) { blame_.set(spec, n_); }

  /// Per-traversal drop-rate estimate for a link (0 when n == 0).
  double theta(std::size_t link) const;
  std::vector<double> thetas() const;

  /// Each link's evidence record into `out` (overwritten): sd is the
  /// binomial standard error of the blame proportion, carried through
  /// the exposure inversion; kNoEvidence for every link while n == 0.
  void evidence(std::vector<LinkEvidence>* out) const;
  /// Links convicted under the configured blame rule, ascending.
  std::vector<std::size_t> convicted(double threshold) const;

  std::size_t num_links() const { return s_.size(); }

  /// Windowed view: the ledger of closed windows and the burstiness
  /// statistic (max window blame-share over cumulative share).
  const WindowLedger& windows() const { return blame_.ledger(); }
  double burstiness(std::size_t link) const {
    return windows().burstiness(link, theta(link));
  }

  /// The state walk (protocols/window.h StateZeroer): every mutable
  /// field in paai.state.v1 order. Calibration (traversals/probe_extra/
  /// blame) is construction-time state and is not listed.
  template <class V>
  void visit(V& v) { walk(*this, v); }
  template <class V>
  void visit(V& v) const { walk(*this, v); }

  void reset() {
    StateZeroer zero;
    visit(zero);
  }

 private:
  template <class Self, class V>
  static void walk(Self& t, V& v) {
    v.kind("onion");
    v.field("s", t.s_);
    v.field("n", t.n_);
    v.field("probes", t.probes_);
    v.open("window");
    v.field("bins", t.win_s_);
    t.blame_.visit(v);
    v.close();
  }

  double effective_traversals() const;
  void roll_window();

  std::vector<std::uint64_t> s_;
  std::uint64_t n_ = 0;
  std::uint64_t probes_ = 0;
  double traversals_;
  double probe_extra_;
  std::vector<std::uint64_t> win_s_;  // current window's blame bins
  BlameCore blame_;
  obs::Counter obs_updates_;
  obs::Counter obs_blames_;
};

class Paai2ScoreTable {
 public:
  explicit Paai2ScoreTable(std::size_t num_links);

  /// Every data packet sent (probed or not) is one trial.
  void add_data_packet();

  /// Records a probe outcome: `selected` = the selected node index e in
  /// [1, d]; `prefix_failed` = the decoded report did not match the
  /// expected value (or never arrived).
  void add_probe(std::size_t selected, bool prefix_failed);

  std::uint64_t probes() const { return probes_; }
  /// Monitored units: the probes.
  std::uint64_t observations() const { return probes_; }
  std::uint64_t interval_score(std::size_t link) const { return s_[link]; }
  std::uint64_t selections(std::size_t e) const { return sel_n_[e]; }

  /// Selects the conviction rule; the probe count is the window axis.
  void set_blame(const BlameSpec& spec) { blame_.set(spec, probes_); }

  /// Per-traversal per-link estimates via the prefix-difference estimator.
  std::vector<double> thetas() const;

  /// Each link's evidence record into `out` (overwritten): sd combines
  /// the two selection bins the estimate differences; +inf (no margin)
  /// while the link's upper bin holds no probe.
  void evidence(std::vector<LinkEvidence>* out) const;
  std::vector<std::size_t> convicted(double threshold) const;

  /// End-to-end data-path drop rate psi observed by the source
  /// (probes / data packets — a probe fires exactly when the destination
  /// ack chain broke somewhere).
  double observed_e2e_rate() const;

  std::size_t num_links() const { return s_.size(); }

  const WindowLedger& windows() const { return blame_.ledger(); }
  double burstiness(std::size_t link) const {
    return windows().burstiness(link, thetas()[link]);
  }

  /// The state walk (see ScoreTable::visit); the selection vectors and
  /// their window bins hold num_links() + 1 entries.
  template <class V>
  void visit(V& v) { walk(*this, v); }
  template <class V>
  void visit(V& v) const { walk(*this, v); }

  void reset() {
    StateZeroer zero;
    visit(zero);
  }

 private:
  template <class Self, class V>
  static void walk(Self& t, V& v) {
    v.kind("prefix");
    v.field("s", t.s_);
    v.field("sel_n", t.sel_n_);
    v.field("sel_f", t.sel_f_);
    v.field("data_packets", t.data_packets_);
    v.field("probes", t.probes_);
    v.open("window");
    v.field("sel_n_bins", t.win_sel_n_);
    v.field("sel_f_bins", t.win_sel_f_);
    t.blame_.visit(v);
    v.close();
  }

  void roll_window();

  std::vector<std::uint64_t> s_;       // the paper's interval scores
  std::vector<std::uint64_t> sel_n_;   // probes with selection e   [1..d]
  std::vector<std::uint64_t> sel_f_;   // ... of which prefix-failed [1..d]
  std::uint64_t data_packets_ = 0;
  std::uint64_t probes_ = 0;
  std::vector<std::uint64_t> win_sel_n_;  // current window's bins [1..d]
  std::vector<std::uint64_t> win_sel_f_;
  BlameCore blame_;
  obs::Counter obs_updates_;
  obs::Counter obs_blames_;
};

/// Statistical FL's accumulated sampled counts (§6.2 phases 4-5): node
/// F_i counts the K_i-sampled packets it forwards per reporting interval;
/// the source folds each interval's reported counts into per-node
/// accumulators S_0..S_d and estimates theta_j = 1 - S_{j+1}/S_j.
/// Accumulation is in doubles (counts are integers, so sums stay exact
/// below 2^53) to mirror the estimator the paper's analysis assumes.
class FlScoreTable {
 public:
  explicit FlScoreTable(std::size_t num_links);

  /// Folds one node's count for a reported interval: S_node += count.
  /// The statfl source calls this for node = 0..d in ascending order,
  /// once per interval whose onion report verified end-to-end.
  void add_count(std::size_t node, std::uint64_t count);

  /// Marks a reporting interval folded in (after its d+1 add_count calls).
  void interval_reported();

  /// Marks a reporting interval abandoned (report never arrived).
  void interval_lost() { ++intervals_lost_; }

  std::uint64_t intervals_reported() const { return intervals_reported_; }
  /// Monitored units: the reported intervals.
  std::uint64_t observations() const { return intervals_reported_; }
  std::size_t num_links() const { return acc_.size() - 1; }

  /// Selects the conviction rule; reported intervals are the window axis.
  void set_blame(const BlameSpec& spec) {
    blame_.set(spec, intervals_reported_);
  }

  /// theta_j = max(0, 1 - S_{j+1}/S_j); 0 while S_j is empty.
  std::vector<double> thetas() const;

  /// Each link's evidence record into `out` (overwritten): sd is the
  /// count ratio's, Var(theta_j) ~ 2 S_{j+1} / S_j^2 with +1 so a total
  /// blackhole keeps a finite margin; +inf (no margin) while S_j < 1.
  /// The tally is the sampled-count deficit S_j - S_{j+1}.
  void evidence(std::vector<LinkEvidence>* out) const;
  std::vector<std::size_t> convicted(double threshold) const;

  /// 1 - S_d/S_0: the end-to-end drop rate the counts imply.
  double observed_e2e_rate() const;

  const WindowLedger& windows() const { return blame_.ledger(); }
  double burstiness(std::size_t link) const {
    return windows().burstiness(link, thetas()[link]);
  }

  /// The state walk (see ScoreTable::visit); the accumulators and their
  /// window sums hold num_links() + 1 doubles.
  template <class V>
  void visit(V& v) { walk(*this, v); }
  template <class V>
  void visit(V& v) const { walk(*this, v); }

  void reset() {
    StateZeroer zero;
    visit(zero);
  }

 private:
  template <class Self, class V>
  static void walk(Self& t, V& v) {
    v.kind("fl");
    v.field("acc", t.acc_);
    v.field("intervals_reported", t.intervals_reported_);
    v.field("intervals_lost", t.intervals_lost_);
    v.open("window");
    v.field("counts", t.win_acc_);
    t.blame_.visit(v);
    v.close();
  }

  void roll_window();

  std::vector<double> acc_;  // S_0..S_d, indexed by node
  std::uint64_t intervals_reported_ = 0;
  std::uint64_t intervals_lost_ = 0;
  std::vector<double> win_acc_;  // current window's per-node count sums
  BlameCore blame_;
};

/// The identify phase of one path (see the file comment). Event →
/// mutation by table family (onion: full-ack, comb1, sig-ack, PAAI-1;
/// prefix: PAAI-2, comb2; fl: stat-FL); any other kind is ignored:
///
///   data-send      all: packets sent; PAAI-2: also a trial
///   sample-select  comb2: a trial
///   ack-timeout    onion but PAAI-1: note_probe; fl: interval_lost
///   score-clean    onion: add_clean, delivered, b := observations
///                  prefix: add_probe(b, clean)
///                  fl: interval_reported, b := intervals reported
///   score-blame    onion: blame(link), b := observations, v := theta
///                  prefix: add_probe(b, failed); fl: impossible
///   fl-count       fl: add_count(link, b); onion, prefix: impossible
///
/// ":=" is post-state payload apply() writes into the event, which the
/// source then logs. A trial is a monitored data packet: plain PAAI-2
/// monitors every one, comb2 only its sampled ones. PAAI-1's ack-timeout
/// leaves the exposure alone, because its fixed 2.6 traversals already
/// count the probe leg.
class Scorer {
 public:
  Scorer(ProtocolKind protocol, std::size_t num_links,
         const BlameSpec& blame);

  /// Whether apply() can act on `kind` at all.
  static constexpr bool reads(obs::EventKind kind) {
    switch (kind) {
      case obs::EventKind::kDataSend:
      case obs::EventKind::kSampleSelect:
      case obs::EventKind::kAckTimeout:
      case obs::EventKind::kScoreClean:
      case obs::EventKind::kScoreBlame:
      case obs::EventKind::kFlCount:
        return true;
      default:
        return false;
    }
  }

  /// Applies `e` and fills in its post-state payload; returns whether it
  /// changed any state. Throws std::runtime_error on a payload this
  /// protocol cannot produce (a blame on an out-of-range link, an
  /// fl-count outside stat-FL, ...).
  bool apply(obs::Event& e) {
    if (!reads(e.kind)) return false;
    return std::visit([&](auto& table) { return apply_to(table, e); },
                      table_);
  }

  std::uint64_t packets_sent() const { return sent_; }
  /// Onion rounds that ended clean (confirmed deliveries).
  std::uint64_t delivered() const { return delivered_; }

  /// Monitored units with a resolved outcome (packets for full-ack,
  /// probes for the PAAI protocols, reported intervals for stat-FL).
  std::uint64_t observations() const;
  /// Per-traversal drop-rate estimate of each link l_0..l_{d-1}.
  std::vector<double> thetas() const;
  /// Each link's evidence record into `out` (overwritten).
  void evidence(std::vector<LinkEvidence>* out) const;
  /// Links the configured blame rule convicts at `threshold`, ascending.
  std::vector<std::size_t> convicted(double threshold) const;
  /// The same into caller-owned storage, with `scratch` for the records
  /// (both overwritten): a caller that polls every event and reuses them
  /// stays off the heap.
  void convicted(double threshold, std::vector<std::size_t>* out,
                 std::vector<LinkEvidence>* scratch) const;
  /// End-to-end data drop rate psi as the source observes it.
  double observed_e2e_rate() const;

  /// The table's state walk (see ScoreTable::visit).
  template <class V>
  void visit(V& v) {
    std::visit([&](auto& table) { table.visit(v); }, table_);
  }
  template <class V>
  void visit(V& v) const {
    std::visit([&](const auto& table) { table.visit(v); }, table_);
  }

  /// Overwrites the packet counters (snapshot restore).
  void restore_counters(std::uint64_t packets_sent, std::uint64_t delivered) {
    sent_ = packets_sent;
    delivered_ = delivered;
  }

 private:
  bool apply_to(ScoreTable& t, obs::Event& e);
  bool apply_to(Paai2ScoreTable& t, obs::Event& e);
  bool apply_to(FlScoreTable& t, obs::Event& e);

  ProtocolKind protocol_;
  BlameSpec blame_;
  std::variant<ScoreTable, Paai2ScoreTable, FlScoreTable> table_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace paai::protocols
