#include "protocols/window.h"

#include <stdexcept>

#include "util/specgrammar.h"

namespace paai::protocols {

namespace {

constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 20;  // K / W ceiling
constexpr std::uint64_t kMinWidth = 8;
constexpr std::int32_t kTagShift = 28;
constexpr std::int32_t kStreakShift = 20;

const std::string kPrefix = "blame spec";

std::uint64_t parse_count(std::string_view text, const std::string& what) {
  return static_cast<std::uint64_t>(util::spec_parse_index(text, what, kPrefix));
}

void check_persistence(std::uint64_t k) {
  if (k < 1 || k >= kMaxCount) {
    util::spec_error(kPrefix, "persistent K must be in [1, 2^20)");
  }
}

void check_width(std::uint64_t w) {
  if (w < kMinWidth || w >= kMaxCount) {
    util::spec_error(kPrefix, "window width W must be in [8, 2^20)");
  }
}

void check_streak(std::uint64_t k) {
  if (k < 1 || k > kMaxHybridStreak) {
    util::spec_error(kPrefix, "hybrid streak K must be in [1, 8]");
  }
}

}  // namespace

BlameSpec BlameSpec::parse(std::string_view text) {
  const std::string_view spec = util::spec_trim(text);
  const std::size_t colon = spec.find(':');
  const std::string_view head = util::spec_trim(spec.substr(0, colon));
  const std::string_view args = colon == std::string_view::npos
                                    ? std::string_view{}
                                    : util::spec_trim(spec.substr(colon + 1));

  BlameSpec out;
  if (head == "margin") {
    if (colon != std::string_view::npos) {
      util::spec_error(kPrefix, "margin mode takes no arguments");
    }
    return out;
  }
  if (head == "persistent") {
    out.mode = Mode::kPersistent;
    out.k = kDefaultPersistence;
    if (colon != std::string_view::npos) {
      out.k = parse_count(args, "persistence K");
    }
    check_persistence(out.k);
    return out;
  }
  if (head == "windowed") {
    out.mode = Mode::kWindowed;
    if (colon != std::string_view::npos) {
      out.w = parse_count(args, "window width W");
    }
    check_width(out.w);
    return out;
  }
  if (head == "hybrid") {
    out.mode = Mode::kHybrid;
    out.k = kDefaultHybridStreak;
    if (colon != std::string_view::npos) {
      const std::size_t comma = args.find(',');
      out.k = parse_count(util::spec_trim(args.substr(0, comma)), "streak K");
      if (comma != std::string_view::npos) {
        out.w = parse_count(util::spec_trim(args.substr(comma + 1)),
                            "window width W");
      }
    }
    check_streak(out.k);
    check_width(out.w);
    return out;
  }
  util::spec_error(
      kPrefix,
      "unknown mode '" + std::string(head) +
          "' (expected margin|persistent:K|windowed:W|hybrid:K,W)");
}

std::string BlameSpec::to_string() const {
  switch (mode) {
    case Mode::kMargin:
      return "margin";
    case Mode::kPersistent:
      return "persistent:" + std::to_string(k);
    case Mode::kWindowed:
      return "windowed:" + std::to_string(w);
    case Mode::kHybrid:
      return "hybrid:" + std::to_string(k) + "," + std::to_string(w);
  }
  return "margin";
}

std::int32_t BlameSpec::encode32() const {
  switch (mode) {
    case Mode::kMargin:
      return 0;
    case Mode::kPersistent:
      return static_cast<std::int32_t>((std::uint64_t{3} << kTagShift) | k);
    case Mode::kWindowed:
      return static_cast<std::int32_t>((std::uint64_t{1} << kTagShift) | w);
    case Mode::kHybrid:
      return static_cast<std::int32_t>((std::uint64_t{2} << kTagShift) |
                                       (k << kStreakShift) | w);
  }
  return 0;
}

BlameSpec BlameSpec::decode32(std::int32_t code) {
  if (code < 0) {
    util::spec_error(kPrefix, "negative wire encoding");
  }
  const std::uint64_t u = static_cast<std::uint64_t>(code);
  const std::uint64_t tag = u >> kTagShift;
  BlameSpec out;
  switch (tag) {
    case 0:
      if (u != 0) util::spec_error(kPrefix, "unknown wire encoding");
      return out;  // margin
    case 1:
      out.mode = Mode::kWindowed;
      out.w = u & (kMaxCount - 1);
      check_width(out.w);
      return out;
    case 2:
      out.mode = Mode::kHybrid;
      out.k = (u >> kStreakShift) & 0xff;
      out.w = u & (kMaxCount - 1);
      check_streak(out.k);
      check_width(out.w);
      return out;
    case 3:
      out.mode = Mode::kPersistent;
      out.k = u & (kMaxCount - 1);
      check_persistence(out.k);
      return out;
    default:
      util::spec_error(kPrefix, "unknown wire tag");
  }
}

bool convicts(const BlameSpec& spec, double threshold,
              const LinkEvidence& ev) {
  switch (spec.mode) {
    case BlameSpec::Mode::kMargin:
      return clears_margin(ev, threshold);
    case BlameSpec::Mode::kPersistent:
      // The K-repetition requirement replaces the standard-error margin
      // as the anti-noise gate: an honest link needs BOTH K blames AND an
      // above-threshold estimate to be falsely convicted, while an
      // adversary riding just inside the margin no longer escapes.
      return ev.tally >= static_cast<double>(spec.k) && ev.theta > threshold;
    case BlameSpec::Mode::kWindowed:
    case BlameSpec::Mode::kHybrid:
      // A single flagrant window plus an above-threshold cumulative
      // estimate is burst evidence the margin rule would dilute away.
      if (clears_margin(ev, threshold) ||
          (ev.flagrant >= 1 && ev.theta > threshold)) {
        return true;
      }
      // Hybrid adds the streak clause: >= K consecutive hot windows with
      // the cumulative estimate above the hot bar. The cumulative floor
      // separates a colluder (theta ~ 0.015+) from benign loss churn
      // whose windows also run hot for a while but whose lifetime
      // average stays below kWindowHighTheta.
      return spec.mode == BlameSpec::Mode::kHybrid &&
             ev.max_streak >= spec.k && ev.theta > kWindowHighTheta;
  }
  return false;
}

WindowLedger::WindowLedger(std::size_t num_links, std::uint64_t width)
    : width_(width),
      cur_streak_(num_links, 0),
      max_streak_(num_links, 0),
      flagrant_(num_links, 0),
      max_theta_w_(num_links, 0.0) {
  if (num_links == 0) {
    throw std::invalid_argument("WindowLedger: need at least one link");
  }
  check_width(width);
}

void WindowLedger::set_width(std::uint64_t width) {
  check_width(width);
  if (completed_ != 0) {
    throw std::logic_error(
        "WindowLedger::set_width: windows already closed at the old width");
  }
  width_ = width;
}

void WindowLedger::finalize(const std::vector<double>& theta_w) {
  if (theta_w.size() != num_links()) {
    throw std::invalid_argument("WindowLedger::finalize: shape mismatch");
  }
  ++completed_;
  for (std::size_t i = 0; i < theta_w.size(); ++i) {
    const double tw = theta_w[i];
    if (tw > kWindowHighTheta) {
      ++cur_streak_[i];
      if (cur_streak_[i] > max_streak_[i]) max_streak_[i] = cur_streak_[i];
    } else {
      cur_streak_[i] = 0;
    }
    if (tw > kWindowFlagrantTheta) ++flagrant_[i];
    if (tw > max_theta_w_[i]) max_theta_w_[i] = tw;
  }
}

double WindowLedger::burstiness(std::size_t link,
                                double cumulative_theta) const {
  if (completed_ == 0 || cumulative_theta <= 0.0) return 0.0;
  return max_theta_w_[link] / cumulative_theta;
}

void BlameCore::set(const BlameSpec& spec, std::uint64_t axis) {
  if (spec.w != ledger_.width()) {
    if (axis != 0) {
      throw std::logic_error("set_blame: window width change mid-run");
    }
    ledger_.set_width(spec.w);
  }
  spec_ = spec;
}

}  // namespace paai::protocols
