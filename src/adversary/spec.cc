#include "adversary/spec.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/specgrammar.h"

namespace paai::adversary {

namespace {

const std::string kPrefix = "AdversaryPlan";

[[noreturn]] void bad(const std::string& message) {
  util::spec_error(kPrefix, message);
}

void check_probability(double value, const std::string& what) {
  util::spec_check_probability(value, what, kPrefix);
}

void check_nonnegative(double value, const std::string& what) {
  util::spec_check_nonnegative(value, what, kPrefix);
}

/// Parses a value that must be a non-negative integer (node indices and
/// packet counts arrive through the shared grammar as doubles).
std::uint64_t as_count(double value, const std::string& what,
                       std::uint64_t max) {
  if (!(value >= 0.0) || value != std::floor(value) ||
      value > static_cast<double>(max)) {
    bad(what + " must be an integer in [0, " + std::to_string(max) +
        "], got " + util::fmt_double(value));
  }
  return static_cast<std::uint64_t>(value);
}

Spec spec_from_clause(const util::SpecClause& c) {
  using Kind = Spec::Kind;
  const auto require = [&c](std::string_view key) {
    return c.require(key, kPrefix);
  };
  Spec s;
  s.node = c.index;
  if (c.kind == "uniform") {
    c.check_keys({"rate"}, kPrefix);
    s.kind = Kind::kUniform;
    s.rate = require("rate");
    check_probability(s.rate, "uniform rate");
  } else if (c.kind == "type") {
    c.check_keys({"data", "probe", "ack"}, kPrefix);
    s.kind = Kind::kTypeRates;
    s.type_rates.data = c.get("data").value_or(0.0);
    s.type_rates.probe = c.get("probe").value_or(0.0);
    s.type_rates.ack = c.get("ack").value_or(0.0);
    check_probability(s.type_rates.data, "type data");
    check_probability(s.type_rates.probe, "type probe");
    check_probability(s.type_rates.ack, "type ack");
  } else if (c.kind == "ack") {
    c.check_keys({"rate"}, kPrefix);
    s.kind = Kind::kAckOnly;
    s.rate = require("rate");
    check_probability(s.rate, "ack rate");
  } else if (c.kind == "corrupt") {
    c.check_keys({"rate"}, kPrefix);
    s.kind = Kind::kCorrupt;
    s.rate = require("rate");
    check_probability(s.rate, "corrupt rate");
  } else if (c.kind == "withhold") {
    c.check_keys({"rate", "release"}, kPrefix);
    s.rate = require("rate");
    check_probability(s.rate, "withhold rate");
    const auto release =
        as_count(c.get("release").value_or(0.0), "withhold release", 1);
    s.kind = release != 0 ? Kind::kWithholdRelease : Kind::kWithholdDrop;
  } else if (c.kind == "originfilter") {
    c.check_keys({"min"}, kPrefix);
    s.kind = Kind::kOriginFilter;
    s.min_origin =
        static_cast<std::uint8_t>(as_count(require("min"),
                                           "originfilter min", 255));
  } else if (c.kind == "burst") {
    c.check_keys({"burst", "period"}, kPrefix);
    s.kind = Kind::kBurst;
    s.burst_period = static_cast<std::uint32_t>(
        as_count(require("period"), "burst period", 1u << 30));
    if (s.burst_period == 0) bad("burst period must be >= 1");
    s.burst = static_cast<std::uint32_t>(
        as_count(require("burst"), "burst burst", s.burst_period));
  } else if (c.kind == "collude") {
    c.check_keys({"rate"}, kPrefix);
    s.kind = Kind::kFaultCollude;
    s.rate = require("rate");
    check_probability(s.rate, "collude rate");
  } else if (c.kind == "stealth") {
    c.check_keys({"margin"}, kPrefix);
    s.kind = Kind::kThresholdStealth;
    s.margin = require("margin");
    check_nonnegative(s.margin, "stealth margin");
  } else if (c.kind == "probeshy") {
    c.check_keys({"rate", "cooldown"}, kPrefix);
    s.kind = Kind::kProbeShy;
    s.rate = require("rate");
    s.cooldown_s = require("cooldown");
    check_probability(s.rate, "probeshy rate");
    check_nonnegative(s.cooldown_s, "probeshy cooldown");
  } else if (c.kind == "onoff") {
    c.check_keys({"rate", "on", "off"}, kPrefix);
    s.kind = Kind::kOnOff;
    s.rate = require("rate");
    s.on_s = require("on");
    s.off_s = require("off");
    check_probability(s.rate, "onoff rate");
    check_nonnegative(s.on_s, "onoff on");
    check_nonnegative(s.off_s, "onoff off");
    if (!(s.on_s + s.off_s > 0.0)) {
      bad("onoff needs on + off > 0");
    }
  } else {
    bad("unknown clause kind '" + c.kind +
        "' (expected uniform, type, ack, corrupt, withhold, originfilter, "
        "burst, collude, stealth, probeshy, or onoff)");
  }
  return s;
}

std::string fmt(double value) { return util::fmt_double(value); }

}  // namespace

std::string Spec::to_string() const {
  std::string at = "@";
  at += std::to_string(node);
  at += ':';
  switch (kind) {
    case Kind::kUniform:
      return "uniform" + at + "rate=" + fmt(rate);
    case Kind::kTypeRates:
      return "type" + at + "data=" + fmt(type_rates.data) +
             ",probe=" + fmt(type_rates.probe) + ",ack=" + fmt(type_rates.ack);
    case Kind::kAckOnly:
      return "ack" + at + "rate=" + fmt(rate);
    case Kind::kCorrupt:
      return "corrupt" + at + "rate=" + fmt(rate);
    case Kind::kWithholdDrop:
      return "withhold" + at + "rate=" + fmt(rate) + ",release=0";
    case Kind::kWithholdRelease:
      return "withhold" + at + "rate=" + fmt(rate) + ",release=1";
    case Kind::kOriginFilter:
      return "originfilter" + at + "min=" + std::to_string(min_origin);
    case Kind::kBurst:
      return "burst" + at + "burst=" + std::to_string(burst) +
             ",period=" + std::to_string(burst_period);
    case Kind::kFaultCollude:
      return "collude" + at + "rate=" + fmt(rate);
    case Kind::kThresholdStealth:
      return "stealth" + at + "margin=" + fmt(margin);
    case Kind::kProbeShy:
      return "probeshy" + at + "rate=" + fmt(rate) +
             ",cooldown=" + fmt(cooldown_s);
    case Kind::kOnOff:
      return "onoff" + at + "rate=" + fmt(rate) + ",on=" + fmt(on_s) +
             ",off=" + fmt(off_s);
  }
  return {};
}

double Spec::mean_drop_rate(double cover_fraction,
                            double decision_threshold) const {
  switch (kind) {
    case Kind::kUniform:
    case Kind::kCorrupt:  // corrupted packets fail verification downstream
    case Kind::kWithholdDrop:
    case Kind::kWithholdRelease:
    case Kind::kProbeShy:
      return rate;
    case Kind::kTypeRates:
      return type_rates.data;
    case Kind::kAckOnly:
    case Kind::kOriginFilter:
      return 0.0;
    case Kind::kBurst:
      return burst_period == 0
                 ? 0.0
                 : static_cast<double>(burst) /
                       static_cast<double>(burst_period);
    case Kind::kFaultCollude:
      return rate * std::min(std::max(cover_fraction, 0.0), 1.0);
    case Kind::kThresholdStealth:
      return margin * decision_threshold;
    case Kind::kOnOff: {
      const double cycle = on_s + off_s;
      return cycle > 0.0 ? rate * on_s / cycle : 0.0;
    }
  }
  return 0.0;
}

AdversaryPlan AdversaryPlan::parse(std::string_view text) {
  AdversaryPlan plan;
  for (const auto& clause :
       util::parse_compact_clauses(text, kPrefix)) {
    plan.add(spec_from_clause(clause));
  }
  return plan;
}

void AdversaryPlan::add(const Spec& spec) {
  for (const auto& existing : specs) {
    if (existing.node == spec.node) {
      bad("duplicate clause for node " + std::to_string(spec.node) +
          " (at most one strategy per compromised node)");
    }
  }
  specs.push_back(spec);
}

std::string AdversaryPlan::to_string() const {
  std::string out;
  for (const auto& spec : specs) {
    if (!out.empty()) out += ';';
    out += spec.to_string();
  }
  return out;
}

std::unique_ptr<Strategy> make_strategy(const Spec& spec,
                                        const Environment& env, Rng rng) {
  using Kind = Spec::Kind;
  switch (spec.kind) {
    case Kind::kUniform:
      return make_uniform_dropper(spec.rate, rng);
    case Kind::kTypeRates:
      return make_type_rate_dropper(spec.type_rates, rng);
    case Kind::kAckOnly:
      return make_ack_dropper(spec.rate, rng);
    case Kind::kCorrupt:
      return make_corrupter(spec.rate, rng);
    case Kind::kWithholdDrop:
      return make_withholder(spec.rate, /*release_on_probe=*/false, rng);
    case Kind::kWithholdRelease:
      return make_withholder(spec.rate, /*release_on_probe=*/true, rng);
    case Kind::kOriginFilter:
      return make_origin_filter_dropper(spec.min_origin, rng);
    case Kind::kBurst:
      return make_burst_dropper(spec.burst, spec.burst_period, rng);
    case Kind::kFaultCollude:
      return make_fault_colluder(spec.rate, env, rng);
    case Kind::kThresholdStealth:
      return make_threshold_stealth_dropper(spec.margin, env, rng);
    case Kind::kProbeShy:
      return make_probe_shy_dropper(spec.rate, spec.cooldown_s, env, rng);
    case Kind::kOnOff:
      return make_on_off_dropper(spec.rate, spec.on_s, spec.off_s, rng);
  }
  return nullptr;
}

}  // namespace paai::adversary
