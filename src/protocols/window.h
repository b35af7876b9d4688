// Burst-aware windowed detection state shared by the three score tables
// (ScoreTable / Paai2ScoreTable / FlScoreTable), and the one conviction
// rule every table and the mesh store decide by.
//
// The cumulative estimators in score.h answer "what fraction of this
// link's traffic is lost overall?" — which is exactly the statistic an
// adaptive colluder games: by dropping only inside an honest link's
// Gilbert-Elliott bursts it keeps its cumulative theta inside the noise
// margin (bench_robustness frontier, collude-r10). The windowed layer
// keeps a second, time-local view: the monitored-unit axis is cut into
// fixed-width windows of W units, each closed window yields a
// per-link sliding estimate theta_w, and a WindowLedger accumulates
//
//   - how many closed windows were "hot"  (theta_w > kWindowHighTheta)
//     in a row (current streak + a monotone max-streak latch),
//   - how many were "flagrant"            (theta_w > kWindowFlagrantTheta),
//   - the largest theta_w ever seen (the burstiness numerator).
//
// Conviction is one record and one rule. Each table family (and the mesh
// store, mesh/score_store.h) fills a LinkEvidence per link from its own
// state: its estimate theta, that estimate's standard error sd, its
// persistence tally and the ledger's flagrant count and longest hot
// streak. convicts() decides all four --blame modes from that record
// alone; the cumulative margin rule, theta - sd > threshold, lives only
// in clears_margin(). A family guard is data in the record, never a
// branch in the rule: a link without a margin carries sd = +inf, and a
// table or mesh link with no monitored unit carries kNoEvidence. The
// ledger is maintained unconditionally — margin-mode verdicts never read
// it, which is what makes `--blame=margin` byte-identical to the
// pre-window code (tests/stream_test.cc WindowedNeverAffectsMarginMode).
//
// Each table owns its spec and ledger through one BlameCore. Table and
// ledger state is listed once, by a visit() walk over named u64/f64
// fields in snapshot order; the tables' reset() (StateZeroer) and the
// paai.state.v1 writer and reader (stream/state.cc) are visitors of that
// walk. Evidence records are derived on demand and are not state.
//
// Contracts: every ledger mutation is driven by the same table mutators
// the forensic event stream replays (src/stream bit-identity); the
// ledger's counters are plain u64s/doubles keyed by window index, so
// snapshots (paai.state.v1 "window" objects) restore them losslessly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace paai::protocols {

/// Windows whose theta_w clears this are "hot": individually unremarkable
/// but suspicious in a run. Sits above the decision threshold (0.018 is
/// the paper-calibrated midpoint of [rho=0.01, alpha=0.03]) minus the
/// small-sample slack a W=192 window carries, and above every honest
/// link's cumulative estimate in the benign sweep (max observed 0.0134).
inline constexpr double kWindowHighTheta = 0.014;

/// Windows whose theta_w clears this are "flagrant": loss so concentrated
/// that a single such window plus an above-threshold cumulative estimate
/// convicts. 2.5x the per-link threshold alpha=0.03 inverted through the
/// 2.6-traversal exponent — benign GE bursts at the frontier's cover
/// settings never reach it through PAAI-1's 1/36 sampling.
inline constexpr double kWindowFlagrantTheta = 0.045;

/// Default window width in monitored units. At the paper's 100 pps and
/// PAAI-1's p=1/36 probe sampling, 192 units ~ covers a handful of GE
/// bursts, long enough that an all-clean window reads theta_w = 0 and a
/// colluder-straddled window reads far above kWindowHighTheta.
inline constexpr std::uint64_t kDefaultWindowWidth = 192;

/// Default consecutive-hot-window requirement for --blame=hybrid.
inline constexpr std::uint64_t kDefaultHybridStreak = 4;

/// Default repetition count for --blame=persistent (PR 7's calibration).
inline constexpr std::uint64_t kDefaultPersistence = 3;

/// Upper bound on the hybrid streak K (--blame=hybrid:K).
inline constexpr std::uint64_t kMaxHybridStreak = 8;

/// Unified conviction-rule spec behind --blame. Grammar
/// (util/specgrammar lexical conventions, parsed by parse()):
///
///   blame := 'margin'
///          | 'persistent' [':' K]        K in [1, 2^20)
///          | 'windowed'   [':' W]        W in [8, 2^20)
///          | 'hybrid'     [':' K [',' W]]  K in [1, 8]
///
/// The rules (convicts() below):
///
///   margin       theta_i - sd > threshold            (paper Theorem 2)
///   persistent:K s_i >= K and theta_i > threshold    (PR 7)
///   windowed:W   margin OR (>=1 flagrant window and theta_i > threshold)
///   hybrid:K,W   windowed OR (max hot streak >= K and
///                             theta_i > kWindowHighTheta)
///
/// encode32()/decode32() pack a spec into the int32 `link` field of the
/// kRunConfig forensic event: margin = 0, and the mode tag in bits 28+
/// (1 windowed, 2 hybrid, 3 persistent) over its K and W.
struct BlameSpec {
  enum class Mode : std::uint8_t { kMargin, kPersistent, kWindowed, kHybrid };

  Mode mode = Mode::kMargin;
  std::uint64_t k = 0;                     // persistence / streak length
  std::uint64_t w = kDefaultWindowWidth;   // window width, monitored units

  static BlameSpec parse(std::string_view text);
  std::string to_string() const;

  std::int32_t encode32() const;
  static BlameSpec decode32(std::int32_t code);

  friend bool operator==(const BlameSpec& a, const BlameSpec& b) {
    return a.mode == b.mode && a.k == b.k && a.w == b.w;
  }
  friend bool operator!=(const BlameSpec& a, const BlameSpec& b) {
    return !(a == b);
  }
};

/// One link's evidence, everything convicts() reads. Each table family
/// and the mesh store fill it from their own state (docs/DETECTORS.md
/// lists each family's sd formula).
struct LinkEvidence {
  double theta = 0.0;  // the cumulative per-traversal estimate
  double sd = 0.0;     // its standard error; +inf = no margin
  double tally = 0.0;  // the persistence tally: blames, or stat-FL's
                       // sampled-count deficit at the hop
  std::uint64_t flagrant = 0;    // windows with theta_w > kWindowFlagrantTheta
  std::uint64_t max_streak = 0;  // longest run of windows above
                                 // kWindowHighTheta
};

/// The record of a link with no monitored unit: no estimate, no margin,
/// nothing to persist. No parsed blame mode convicts it (K >= 1).
inline constexpr LinkEvidence kNoEvidence{
    0.0, std::numeric_limits<double>::infinity(), 0.0, 0, 0};

/// The margin clause (paper Theorem 2): the estimate clears `threshold`
/// by one standard error — the operational form of the paper's
/// "converged condition" (§7: decide only once the observed rate is
/// within a small uncertainty interval of its true value). Without the
/// margin, early small-sample noise convicts honest links.
inline bool clears_margin(const LinkEvidence& ev, double threshold) {
  return ev.theta - ev.sd > threshold;
}

/// The one blame rule: whether `spec` convicts a link with evidence `ev`
/// at `threshold`.
bool convicts(const BlameSpec& spec, double threshold, const LinkEvidence& ev);

/// Standard error of a blame proportion b = k/n over n > 0 units, with b
/// floored at 1/n so a link with no blame yet still carries a margin.
/// The onion tables and the mesh share it.
inline double proportion_sd(std::uint64_t n, std::uint64_t k) {
  const double units = static_cast<double>(n);
  const double b = static_cast<double>(k) / units;
  return std::sqrt(std::max(b, 1.0 / units) * (1.0 - b) / units);
}

/// Per-link accumulator over *closed* windows. The owning table cuts its
/// monitored-unit axis every `width` units, computes that window's
/// per-link theta_w vector, and calls finalize(); the ledger never sees
/// the in-progress window (its fill is derivable as axis % width, so
/// snapshots only carry the table's current-window bins plus this
/// ledger's counters).
class WindowLedger {
 public:
  WindowLedger(std::size_t num_links, std::uint64_t width);

  std::uint64_t width() const { return width_; }

  /// Changes the window width. Only legal before any window closed and
  /// with an empty current window (the owner enforces axis == 0).
  void set_width(std::uint64_t width);

  /// Closes one window with the given per-link sliding estimates.
  void finalize(const std::vector<double>& theta_w);

  std::uint64_t completed() const { return completed_; }
  std::size_t num_links() const { return cur_streak_.size(); }

  std::uint64_t cur_streak(std::size_t link) const {
    return cur_streak_[link];
  }
  /// Monotone latch: longest run of consecutive hot windows ever seen.
  /// (A latch, not "last K windows", so a colluder whose bursts end
  /// before the final checkpoint still shows its streak.)
  std::uint64_t max_streak(std::size_t link) const {
    return max_streak_[link];
  }
  std::uint64_t flagrant_windows(std::size_t link) const {
    return flagrant_[link];
  }
  double max_theta_w(std::size_t link) const { return max_theta_w_[link]; }

  /// Burstiness statistic: max window blame-share over cumulative share.
  /// ~1 for steady loss, >> 1 when blame concentrates in time. 0 until a
  /// window closed or while the cumulative estimate is 0.
  double burstiness(std::size_t link, double cumulative_theta) const;

  /// The ledger's state walk, in snapshot order (the paai.state.v1
  /// "window" object after the table's bins); see StateZeroer for the
  /// visitor vocabulary. The width is construction-time state, listed
  /// as fixed: a snapshot must agree with it.
  template <class V>
  void visit(V& v) { walk(*this, v); }
  template <class V>
  void visit(V& v) const { walk(*this, v); }

 private:
  template <class Self, class V>
  static void walk(Self& l, V& v) {
    v.version("v", 2);
    v.fixed("w", l.width_);
    v.field("completed", l.completed_);
    v.field("cur_streak", l.cur_streak_);
    v.field("max_streak", l.max_streak_);
    v.field("flagrant", l.flagrant_);
    v.field("max_theta_w", l.max_theta_w_);
  }

  std::uint64_t width_;
  std::uint64_t completed_ = 0;
  std::vector<std::uint64_t> cur_streak_;
  std::vector<std::uint64_t> max_streak_;
  std::vector<std::uint64_t> flagrant_;
  std::vector<double> max_theta_w_;
};

/// The window/blame core every score table owns: the configured BlameSpec
/// plus the WindowLedger its windowed clauses read. `axis` is the owning
/// table's monitored-unit count (ScoreTable: units, Paai2ScoreTable:
/// probes, FlScoreTable: reported intervals).
class BlameCore {
 public:
  explicit BlameCore(std::size_t num_links)
      : ledger_(num_links, kDefaultWindowWidth) {}

  /// Selects the conviction rule. A width change is only legal before the
  /// first monitored unit (axis == 0); throws std::logic_error otherwise.
  void set(const BlameSpec& spec, std::uint64_t axis);
  const WindowLedger& ledger() const { return ledger_; }

  /// Units in the current, still open window.
  std::uint64_t fill(std::uint64_t axis) const {
    return axis % ledger_.width();
  }
  /// Closes a window with its per-link estimates; the owner calls it when
  /// fill(axis) drops back to 0.
  void close_window(const std::vector<double>& theta_w) {
    ledger_.finalize(theta_w);
  }

  const BlameSpec& spec() const { return spec_; }

  template <class V>
  void visit(V& v) { ledger_.visit(v); }
  template <class V>
  void visit(V& v) const { ledger_.visit(v); }

 private:
  BlameSpec spec_;
  WindowLedger ledger_;
};

/// A state walk visitor that zeroes every listed field: the tables'
/// reset(). It also documents the vocabulary every walk speaks, in
/// snapshot order:
///
///   kind(name)             the table family ("onion" | "prefix" | "fl")
///   open(name) / close()   a nested object (the "window" state)
///   version(name, v)       a fixed format version number
///   fixed(name, x)         construction-time u64 the snapshot must match
///   field(name, x)         a u64 scalar, or a u64/f64 vector whose size
///                          is fixed by construction
struct StateZeroer {
  void kind(const char*) {}
  void open(const char*) {}
  void close() {}
  void version(const char*, int) {}
  void fixed(const char*, std::uint64_t) {}
  void field(const char*, std::uint64_t& x) { x = 0; }
  template <class T>
  void field(const char*, std::vector<T>& xs) {
    std::fill(xs.begin(), xs.end(), T{});
  }
};

}  // namespace paai::protocols
