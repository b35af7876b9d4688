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
// into a WindowLedger. The ledger powers the windowed/hybrid conviction
// rules behind --blame (BlameSpec) — burst-concentrated loss whose
// cumulative trace rides inside the margin still shows up as hot or
// flagrant windows. The ledger is maintained in every mode; margin-mode
// verdicts never read it.
//
// All three tables are *stream-consumable*: every mutation corresponds
// 1:1 to a forensic event the protocols log (obs/events.h), the counters
// are exposed for snapshotting, and restore() rebuilds a table from a
// snapshot bit-identically — src/stream's online engine replays a
// recorded event log through these exact classes, so batch and streaming
// convictions agree to the last bit.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
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
  std::uint64_t score(std::size_t link) const { return s_[link]; }
  std::uint64_t probes() const { return probes_; }

  /// Selects the conviction rule (see BlameSpec in protocols/window.h).
  /// Must be called before the first monitored unit when it changes the
  /// window width; throws std::logic_error otherwise.
  void set_blame(const BlameSpec& spec);
  const BlameSpec& blame_spec() const { return blame_; }

  /// Legacy shim for --blame=persistent:K (PR 7 call sites/tests):
  /// K > 0 selects persistent mode, K == 0 margin mode.
  void set_persistence(std::uint64_t k);
  std::uint64_t persistence() const {
    return blame_.mode == BlameSpec::Mode::kPersistent ? blame_.k : 0;
  }

  /// Per-traversal drop-rate estimate for a link (0 when n == 0).
  double theta(std::size_t link) const;
  std::vector<double> thetas() const;

  /// Links convicted under the configured blame rule, ascending.
  std::vector<std::size_t> convicted(double threshold) const;
  /// The same into caller-owned storage (overwritten): a caller that
  /// reuses `out` across calls keeps them off the heap.
  void convicted(double threshold, std::vector<std::size_t>* out) const;

  std::size_t num_links() const { return s_.size(); }

  /// Windowed view: the ledger of closed windows, the current window's
  /// per-link blame bins, and the burstiness statistic (max window
  /// blame-share over cumulative share).
  const WindowLedger& windows() const { return ledger_; }
  const std::vector<std::uint64_t>& window_bins() const { return win_s_; }
  std::uint64_t window_fill() const { return n_ % ledger_.width(); }
  double burstiness(std::size_t link) const {
    return ledger_.burstiness(link, theta(link));
  }

  /// Rebuilds the mutable counters from a snapshot (paai.state.v1).
  /// `s.size()` must equal num_links(); throws std::invalid_argument
  /// otherwise. Calibration (traversals/probe_extra/blame) is
  /// construction-time state and is not touched. Window state is zeroed
  /// (legacy snapshots carry none); restore_window() rebuilds it.
  void restore(const std::vector<std::uint64_t>& s, std::uint64_t n,
               std::uint64_t probes);

  /// Rebuilds the window layer from a snapshot's "window" object: the
  /// current window's blame bins plus the ledger counters. Call after
  /// restore(); `bins.size()` must equal num_links().
  void restore_window(const std::vector<std::uint64_t>& bins,
                      std::uint64_t completed,
                      const std::vector<std::uint64_t>& cur_streak,
                      const std::vector<std::uint64_t>& max_streak,
                      const std::vector<std::uint64_t>& flagrant,
                      const std::vector<double>& max_theta_w,
                      const std::vector<std::vector<double>>& recent);

  void reset();

 private:
  double effective_traversals() const;
  bool margin_convicts(std::size_t link, double threshold) const;
  void roll_window();

  std::vector<std::uint64_t> s_;
  std::uint64_t n_ = 0;
  std::uint64_t probes_ = 0;
  BlameSpec blame_;
  double traversals_;
  double probe_extra_;
  std::vector<std::uint64_t> win_s_;  // current window's blame bins
  WindowLedger ledger_;
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

  std::uint64_t data_packets() const { return data_packets_; }
  std::uint64_t probes() const { return probes_; }
  std::uint64_t interval_score(std::size_t link) const { return s_[link]; }
  std::uint64_t selections(std::size_t e) const { return sel_n_[e]; }
  std::uint64_t selection_failures(std::size_t e) const { return sel_f_[e]; }

  /// Selects the conviction rule; the probe count is the window axis.
  void set_blame(const BlameSpec& spec);
  const BlameSpec& blame_spec() const { return blame_; }

  /// Per-traversal per-link estimates via the prefix-difference estimator.
  std::vector<double> thetas() const;

  std::vector<std::size_t> convicted(double threshold) const;
  /// Allocation-free form for callers that poll every event: `out` is
  /// overwritten, `scratch` holds the estimates.
  void convicted(double threshold, std::vector<std::size_t>* out,
                 std::vector<double>* scratch) const;

  /// End-to-end data-path drop rate psi observed by the source
  /// (probes / data packets — a probe fires exactly when the destination
  /// ack chain broke somewhere).
  double observed_e2e_rate() const;

  std::size_t num_links() const { return s_.size(); }

  const WindowLedger& windows() const { return ledger_; }
  const std::vector<std::uint64_t>& window_sel_n() const { return win_sel_n_; }
  const std::vector<std::uint64_t>& window_sel_f() const { return win_sel_f_; }
  std::uint64_t window_fill() const { return probes_ % ledger_.width(); }
  double burstiness(std::size_t link) const {
    return ledger_.burstiness(link, thetas()[link]);
  }

  /// Rebuilds the mutable counters from a snapshot (paai.state.v1).
  /// Vector sizes must match the construction shape; throws
  /// std::invalid_argument otherwise. Window state is zeroed;
  /// restore_window() rebuilds it.
  void restore(const std::vector<std::uint64_t>& s,
               const std::vector<std::uint64_t>& sel_n,
               const std::vector<std::uint64_t>& sel_f,
               std::uint64_t data_packets, std::uint64_t probes);

  /// Rebuilds the window layer: current-window selection bins (both
  /// sized num_links() + 1) plus the ledger counters.
  void restore_window(const std::vector<std::uint64_t>& sel_n_bins,
                      const std::vector<std::uint64_t>& sel_f_bins,
                      std::uint64_t completed,
                      const std::vector<std::uint64_t>& cur_streak,
                      const std::vector<std::uint64_t>& max_streak,
                      const std::vector<std::uint64_t>& flagrant,
                      const std::vector<double>& max_theta_w,
                      const std::vector<std::vector<double>>& recent);

  void reset();

 private:
  /// thetas() into `out` (overwritten); it holds num_links() + 1 values
  /// while the estimator runs, so a reused buffer never reallocates.
  void thetas(std::vector<double>* out) const;
  bool margin_convicts(std::size_t link, double threshold,
                       const std::vector<double>& th) const;
  void roll_window();

  std::vector<std::uint64_t> s_;       // the paper's interval scores
  std::vector<std::uint64_t> sel_n_;   // probes with selection e   [1..d]
  std::vector<std::uint64_t> sel_f_;   // ... of which prefix-failed [1..d]
  std::uint64_t data_packets_ = 0;
  std::uint64_t probes_ = 0;
  BlameSpec blame_;
  std::vector<std::uint64_t> win_sel_n_;  // current window's bins [1..d]
  std::vector<std::uint64_t> win_sel_f_;
  WindowLedger ledger_;
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

  double accumulated(std::size_t node) const { return acc_[node]; }
  std::uint64_t intervals_reported() const { return intervals_reported_; }
  std::uint64_t intervals_lost() const { return intervals_lost_; }
  std::size_t num_links() const { return acc_.size() - 1; }

  /// Selects the conviction rule; reported intervals are the window axis.
  void set_blame(const BlameSpec& spec);
  const BlameSpec& blame_spec() const { return blame_; }

  /// theta_j = max(0, 1 - S_{j+1}/S_j); 0 while S_j is empty.
  std::vector<double> thetas() const;

  /// One-standard-error evidence rule over the count ratios (see
  /// convicted() in statfl.cc history: Var(theta_j) ~ 2 S_{j+1} / S_j^2,
  /// +1 so a total blackhole stays convictable).
  std::vector<std::size_t> convicted(double threshold) const;
  /// Allocation-free form (see Paai2ScoreTable::convicted).
  void convicted(double threshold, std::vector<std::size_t>* out,
                 std::vector<double>* scratch) const;

  /// 1 - S_d/S_0: the end-to-end drop rate the counts imply.
  double observed_e2e_rate() const;

  const WindowLedger& windows() const { return ledger_; }
  const std::vector<double>& window_counts() const { return win_acc_; }
  std::uint64_t window_fill() const {
    return intervals_reported_ % ledger_.width();
  }
  double burstiness(std::size_t link) const {
    return ledger_.burstiness(link, thetas()[link]);
  }

  /// Rebuilds the accumulators from a snapshot. `acc.size()` must be
  /// num_links() + 1; throws std::invalid_argument otherwise. Window
  /// state is zeroed; restore_window() rebuilds it.
  void restore(const std::vector<double>& acc,
               std::uint64_t intervals_reported, std::uint64_t intervals_lost);

  /// Rebuilds the window layer: current-window per-node count sums
  /// (sized num_links() + 1) plus the ledger counters.
  void restore_window(const std::vector<double>& counts,
                      std::uint64_t completed,
                      const std::vector<std::uint64_t>& cur_streak,
                      const std::vector<std::uint64_t>& max_streak,
                      const std::vector<std::uint64_t>& flagrant,
                      const std::vector<double>& max_theta_w,
                      const std::vector<std::vector<double>>& recent);

  void reset();

 private:
  void thetas(std::vector<double>* out) const;
  bool margin_convicts(std::size_t link, double threshold,
                       const std::vector<double>& th) const;
  void roll_window();

  std::vector<double> acc_;  // S_0..S_d, indexed by node
  std::uint64_t intervals_reported_ = 0;
  std::uint64_t intervals_lost_ = 0;
  BlameSpec blame_;
  std::vector<double> win_acc_;  // current window's per-node count sums
  WindowLedger ledger_;
};

}  // namespace paai::protocols
