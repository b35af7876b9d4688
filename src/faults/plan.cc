#include "faults/plan.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/specgrammar.h"

namespace paai::faults {

namespace {

const std::string kPrefix = "FaultPlan";

[[noreturn]] void bad(const std::string& message) {
  util::spec_error(kPrefix, message);
}

void check_probability(double value, const std::string& what) {
  util::spec_check_probability(value, what, kPrefix);
}

void check_nonnegative(double value, const std::string& what) {
  util::spec_check_nonnegative(value, what, kPrefix);
}

void apply_clause(FaultPlan& plan, const util::SpecClause& c) {
  const auto require = [&c](std::string_view key) {
    return c.require(key, kPrefix);
  };
  if (c.kind == "ge") {
    c.check_keys({"pg", "pb", "g2b", "b2g"}, kPrefix);
    GilbertElliottFault f;
    f.link = c.index;
    f.params.loss_good = c.get("pg").value_or(0.0);
    f.params.loss_bad = require("pb");
    f.params.good_to_bad = require("g2b");
    f.params.bad_to_good = require("b2g");
    check_probability(f.params.loss_good, "ge pg");
    check_probability(f.params.loss_bad, "ge pb");
    check_probability(f.params.good_to_bad, "ge g2b");
    check_probability(f.params.bad_to_good, "ge b2g");
    plan.gilbert.push_back(f);
  } else if (c.kind == "set") {
    c.check_keys({"t", "loss", "lat", "jitter"}, kPrefix);
    LinkRetune r;
    r.link = c.index;
    r.at_seconds = c.get("t").value_or(0.0);
    r.loss = c.get("loss");
    r.latency_ms = c.get("lat");
    r.jitter_ms = c.get("jitter");
    check_nonnegative(r.at_seconds, "set t");
    if (!r.loss && !r.latency_ms && !r.jitter_ms) {
      bad("set clause needs at least one of loss=, lat=, jitter=");
    }
    if (r.loss) check_probability(*r.loss, "set loss");
    if (r.latency_ms) check_nonnegative(*r.latency_ms, "set lat");
    if (r.jitter_ms) check_nonnegative(*r.jitter_ms, "set jitter");
    plan.retunes.push_back(r);
  } else if (c.kind == "outage") {
    c.check_keys({"t", "dur"}, kPrefix);
    NodeOutage o;
    o.node = c.index;
    o.at_seconds = require("t");
    o.duration_seconds = require("dur");
    check_nonnegative(o.at_seconds, "outage t");
    if (!(o.duration_seconds > 0.0)) {
      bad("outage dur must be > 0, got " +
          std::to_string(o.duration_seconds));
    }
    plan.outages.push_back(o);
  } else if (c.kind == "reorder") {
    c.check_keys({"p", "delay"}, kPrefix);
    ReorderFault r;
    r.link = c.index;
    r.probability = require("p");
    r.extra_delay_ms = require("delay");
    check_probability(r.probability, "reorder p");
    check_nonnegative(r.extra_delay_ms, "reorder delay");
    plan.reorders.push_back(r);
  } else if (c.kind == "dup") {
    c.check_keys({"p"}, kPrefix);
    DuplicateFault d;
    d.link = c.index;
    d.probability = require("p");
    check_probability(d.probability, "dup p");
    plan.duplicates.push_back(d);
  } else {
    bad("unknown clause kind '" + c.kind +
        "' (expected ge, set, outage, reorder, or dup)");
  }
}

std::string fmt(double value) { return util::fmt_double(value); }

}  // namespace

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  for (const auto& clause :
       util::parse_compact_clauses(spec, kPrefix)) {
    apply_clause(plan, clause);
  }
  return plan;
}

double FaultPlan::max_latency_ms() const {
  double worst = 0.0;
  for (const auto& r : retunes) {
    if (r.latency_ms) worst = std::max(worst, *r.latency_ms);
  }
  return worst;
}

double FaultPlan::max_extra_delay_ms() const {
  double worst_jitter = 0.0;
  for (const auto& r : retunes) {
    if (r.jitter_ms) worst_jitter = std::max(worst_jitter, *r.jitter_ms);
  }
  double worst_reorder = 0.0;
  for (const auto& r : reorders) {
    worst_reorder = std::max(worst_reorder, r.extra_delay_ms);
  }
  return worst_jitter + worst_reorder;
}

std::string FaultPlan::to_string() const {
  std::string out;
  const auto clause = [&out](const std::string& text) {
    if (!out.empty()) out += ';';
    out += text;
  };
  for (const auto& g : gilbert) {
    clause("ge@" + std::to_string(g.link) + ":pg=" + fmt(g.params.loss_good) +
           ",pb=" + fmt(g.params.loss_bad) +
           ",g2b=" + fmt(g.params.good_to_bad) +
           ",b2g=" + fmt(g.params.bad_to_good));
  }
  for (const auto& r : retunes) {
    std::string text =
        "set@" + std::to_string(r.link) + ":t=" + fmt(r.at_seconds);
    if (r.loss) text += ",loss=" + fmt(*r.loss);
    if (r.latency_ms) text += ",lat=" + fmt(*r.latency_ms);
    if (r.jitter_ms) text += ",jitter=" + fmt(*r.jitter_ms);
    clause(text);
  }
  for (const auto& o : outages) {
    clause("outage@" + std::to_string(o.node) + ":t=" + fmt(o.at_seconds) +
           ",dur=" + fmt(o.duration_seconds));
  }
  for (const auto& r : reorders) {
    clause("reorder@" + std::to_string(r.link) + ":p=" + fmt(r.probability) +
           ",delay=" + fmt(r.extra_delay_ms));
  }
  for (const auto& d : duplicates) {
    clause("dup@" + std::to_string(d.link) + ":p=" + fmt(d.probability));
  }
  return out;
}

const std::vector<NamedPlan>& benign_plans() {
  // Calibration notes (paper path: d = 6, rho = 0.01, threshold 0.018,
  // 100 pps, 60k packets = 600 s):
  //  * ge-burst: stationary loss ~0.0108 on l_2 (mean burst ~6.7
  //    traversals) — bursty but time-averaged right at rho.
  //  * loss-churn: l_1 alternates 0.002/0.02 in 100-150 s segments and
  //    *ends low*, so the time average stays below the threshold at any
  //    horizon.
  //  * latency-churn: l_3's base latency walks inside the configured SLA
  //    ([0, 5] ms) with a jitter retune the provisioning rule absorbs.
  //  * node-outage: two short crashes (~250 packets total); the blame
  //    each adjacent link absorbs is ~0.3% — well under the 0.8% margin.
  //  * reorder-dup: reordering/duplication only; no loss at all beyond
  //    rho, so it isolates the protocols' tolerance of disordered
  //    delivery.
  //  * everything: all of the above at reduced intensity on disjoint
  //    links.
  static const std::vector<NamedPlan> kPlans = {
      {"ge-burst", "ge@2:pg=0.005,pb=0.3,g2b=0.003,b2g=0.15"},
      {"loss-churn",
       "set@1:t=0,loss=0.002;set@1:t=150,loss=0.02;set@1:t=300,loss=0.002;"
       "set@1:t=450,loss=0.02;set@1:t=550,loss=0.002"},
      {"latency-churn",
       "set@3:t=60,lat=4.5,jitter=0.5;set@3:t=240,lat=1;"
       "set@3:t=420,lat=4.8,jitter=1"},
      {"node-outage", "outage@3:t=120,dur=1.5;outage@2:t=360,dur=1"},
      {"reorder-dup", "reorder@1:p=0.05,delay=2;dup@4:p=0.01"},
      {"everything",
       "ge@2:pg=0.004,pb=0.2,g2b=0.002,b2g=0.2;"
       "set@1:t=100,loss=0.015;set@1:t=250,loss=0.002;"
       "outage@4:t=180,dur=1;reorder@5:p=0.02,delay=1;dup@0:p=0.005"},
  };
  return kPlans;
}

}  // namespace paai::faults
