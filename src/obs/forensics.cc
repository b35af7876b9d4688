#include "obs/forensics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace paai::obs {
namespace {

LinkForensics& link_slot(ForensicsReport& report, std::size_t link) {
  if (link >= report.links.size()) {
    const std::size_t old = report.links.size();
    report.links.resize(link + 1);
    for (std::size_t i = old; i < report.links.size(); ++i) {
      report.links[i].link = i;
    }
  }
  return report.links[link];
}

std::string format_ms(std::int64_t ts_ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "t=%.3f ms",
                static_cast<double>(ts_ns) / 1e6);
  return buf;
}

}  // namespace

ForensicsReport forensics_analyze(const std::vector<Event>& events,
                                  std::size_t max_sample_ids) {
  ForensicsReport report;
  report.total_events = events.size();

  for (const Event& e : events) {
    report.node_count =
        std::max<std::size_t>(report.node_count, std::size_t{e.node} + 1);
    ++report.kind_counts[static_cast<std::size_t>(e.kind)];

    switch (e.kind) {
      case EventKind::kRunStart:
        report.threshold = e.value;
        report.planned_packets = e.a;
        report.seed = e.b;
        break;
      case EventKind::kRunEnd:
        report.packets_sent = e.a;
        report.observations = e.b;
        break;
      case EventKind::kScoreBlame: {
        if (e.link < 0) {
          ++report.prefix_blames;
          break;
        }
        LinkForensics& lf = link_slot(report, static_cast<std::size_t>(e.link));
        ++lf.blames;
        ++lf.sample_ids_total;
        if (lf.sample_ids.size() < max_sample_ids) lf.sample_ids.push_back(e.a);
        if (lf.first_blame_ts_ns < 0) lf.first_blame_ts_ns = e.ts_ns;
        lf.trajectory.push_back(ScorePoint{e.ts_ns, e.b, e.value});
        if (lf.crossing_ts_ns < 0 && report.threshold >= 0.0 &&
            e.value > report.threshold) {
          lf.crossing_ts_ns = e.ts_ns;
        }
        break;
      }
      case EventKind::kConviction: {
        if (e.link < 0) break;
        link_slot(report, static_cast<std::size_t>(e.link));
        ConvictionRecord rec;
        rec.link = static_cast<std::size_t>(e.link);
        rec.ts_ns = e.ts_ns;
        rec.packets_sent = e.a;
        rec.observations = e.b;
        rec.theta = e.value;
        report.convictions.push_back(rec);
        break;
      }
      default:
        break;
    }
  }
  return report;
}

std::vector<const ConvictionRecord*> ForensicsReport::verdict() const {
  // Checkpoint records carry smaller packet counts (the rule `paai replay
  // --verify` uses).
  std::vector<const ConvictionRecord*> out;
  if (count(EventKind::kRunEnd) == 0) return out;
  for (auto it = convictions.rbegin(); it != convictions.rend(); ++it) {
    if (it->packets_sent == packets_sent) out.push_back(&*it);
  }
  const auto by_link = [](const ConvictionRecord* x,
                          const ConvictionRecord* y) {
    return x->link < y->link;
  };
  // Latest record first within a link, then one per link.
  std::stable_sort(out.begin(), out.end(), by_link);
  out.erase(std::unique(out.begin(), out.end(),
                        [](const ConvictionRecord* x,
                           const ConvictionRecord* y) {
                          return x->link == y->link;
                        }),
            out.end());
  return out;
}

void write_audit_trail(std::ostream& os, const ForensicsReport& report) {
  char buf[256];

  os << "forensics: " << report.total_events << " events across "
     << report.node_count << " nodes\n";
  if (report.threshold >= 0.0) {
    std::snprintf(buf, sizeof buf,
                  "run: %" PRIu64 " packets planned, seed %" PRIu64
                  ", decision threshold %.6g\n",
                  report.planned_packets, report.seed, report.threshold);
    os << buf;
  } else {
    os << "run: run-start event not retained (ring overflow?) — "
          "threshold unknown\n";
  }
  if (report.count(EventKind::kRunEnd) > 0) {
    std::snprintf(buf, sizeof buf,
                  "end: %" PRIu64 " packets sent, %" PRIu64
                  " score observations\n",
                  report.packets_sent, report.observations);
    os << buf;
  }

  std::snprintf(
      buf, sizeof buf,
      "evidence: %" PRIu64 " data sends, %" PRIu64 " samples, %" PRIu64
      " probes, %" PRIu64 " acks, %" PRIu64 " ack timeouts, %" PRIu64
      " onion decodes, %" PRIu64 " clean / %" PRIu64 " blame score updates\n",
      report.count(EventKind::kDataSend), report.count(EventKind::kSampleSelect),
      report.count(EventKind::kProbeSend), report.count(EventKind::kAckRecv),
      report.count(EventKind::kAckTimeout),
      report.count(EventKind::kOnionDecode),
      report.count(EventKind::kScoreClean),
      report.count(EventKind::kScoreBlame));
  os << buf;
  if (report.prefix_blames > 0) {
    os << "  (" << report.prefix_blames
       << " blames are prefix evidence without a single named link)\n";
  }

  // Which links the run ultimately convicted.
  const std::vector<const ConvictionRecord*> verdicts = report.verdict();
  if (report.count(EventKind::kRunEnd) == 0) {
    os << "verdict: unknown — run-end not retained (partial log or ring "
          "overflow?)\n";
  } else if (verdicts.empty()) {
    os << "verdict: no link convicted\n";
  }
  for (const ConvictionRecord* rec : verdicts) {
    std::snprintf(buf, sizeof buf,
                  "\nCONVICTED l_%zu  theta %.6g  (%s, after %" PRIu64
                  " packets, %" PRIu64 " observations)\n",
                  rec->link, rec->theta, format_ms(rec->ts_ns).c_str(),
                  rec->packets_sent, rec->observations);
    os << buf;

    if (rec->link < report.links.size()) {
      const LinkForensics& lf = report.links[rec->link];
      std::snprintf(buf, sizeof buf, "  blames: %" PRIu64, lf.blames);
      os << buf;
      if (lf.first_blame_ts_ns >= 0) {
        os << "  first at " << format_ms(lf.first_blame_ts_ns);
      }
      if (lf.crossing_ts_ns >= 0) {
        os << "  threshold crossed at " << format_ms(lf.crossing_ts_ns);
      }
      os << '\n';
      if (!lf.sample_ids.empty()) {
        os << "  blamed packet ids:";
        for (const std::uint64_t id : lf.sample_ids) {
          std::snprintf(buf, sizeof buf, " %016" PRIx64, id);
          os << buf;
        }
        if (lf.sample_ids_total > lf.sample_ids.size()) {
          os << " (+" << (lf.sample_ids_total - lf.sample_ids.size())
             << " more)";
        }
        os << '\n';
      }
      if (!lf.trajectory.empty()) {
        // A compressed score trajectory: first, a few middles, last.
        os << "  score trajectory (theta):";
        const std::size_t n = lf.trajectory.size();
        const std::size_t step = n <= 6 ? 1 : (n - 1) / 5;
        for (std::size_t i = 0; i < n; i += step) {
          std::snprintf(buf, sizeof buf, " %.4g", lf.trajectory[i].theta);
          os << buf;
        }
        if (step > 1) {
          std::snprintf(buf, sizeof buf, " ... %.4g",
                        lf.trajectory[n - 1].theta);
          os << buf;
        }
        os << '\n';
      }
    }
  }

  // Exonerated links that nonetheless accumulated evidence.
  for (const LinkForensics& lf : report.links) {
    const bool convicted =
        std::any_of(verdicts.begin(), verdicts.end(),
                    [&](const ConvictionRecord* r) { return r->link == lf.link; });
    if (convicted || lf.blames == 0) continue;
    double last_theta = lf.trajectory.empty() ? 0.0 : lf.trajectory.back().theta;
    std::snprintf(buf, sizeof buf,
                  "l_%zu: %" PRIu64 " blames, final theta %.6g — not convicted\n",
                  lf.link, lf.blames, last_theta);
    os << buf;
  }
}

}  // namespace paai::obs
