#include "stream/explain.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <istream>
#include <ostream>

#include "protocols/context.h"

namespace paai::stream {
namespace {

std::string format_ms(std::int64_t ts_ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "t=%.3f ms",
                static_cast<double>(ts_ns) / 1e6);
  return buf;
}

}  // namespace

void AuditTrail::apply(const obs::Event& event, std::uint64_t line) {
  const std::uint64_t applied = engine_.events_applied();
  engine_.set_stream_line(line);
  engine_.apply(event);
  ++events_;
  nodes_ = std::max<std::size_t>(nodes_, std::size_t{event.node} + 1);
  ++kind_counts_[static_cast<std::size_t>(event.kind)];
  // A conviction or run-end record applies before any run-config too;
  // the per-link exhibit waits for the configured shape.
  if (engine_.events_applied() == applied || !engine_.configured()) return;
  if (links_.empty()) links_.resize(engine_.config().num_links);

  if (event.kind == obs::EventKind::kScoreBlame) {
    // PAAI-2's blames name a prefix (link -1), not a link.
    const auto link = static_cast<std::size_t>(event.link);
    if (event.link < 0 || link >= links_.size()) {
      ++prefix_blames_;
    } else {
      LinkExhibit& x = links_[link];
      ++x.blames;
      if (x.sample_ids.size() < kSampleIds) x.sample_ids.push_back(event.a);
      if (x.first_blame_ns < 0) x.first_blame_ns = event.ts_ns;
      x.trajectory.push_back(engine_.thetas()[link]);
    }
  }
  for (const std::size_t link : engine_.take_new_convictions()) {
    links_[link].entered_ns = event.ts_ns;
  }
}

void AuditTrail::write(std::ostream& os) const {
  char buf[256];
  const EngineConfig& cfg = engine_.config();
  const std::string rule = "--blame=" + cfg.blame.to_string();

  os << "explain: " << events_ << " events across " << nodes_ << " nodes\n";
  std::snprintf(buf, sizeof buf,
                "run: %s on %zu links, decision threshold %.6g, %s\n",
                protocols::protocol_name(cfg.protocol), cfg.num_links,
                cfg.threshold, rule.c_str());
  os << buf;
  std::snprintf(buf, sizeof buf,
                "end: %" PRIu64 " packets sent, %" PRIu64
                " score observations%s\n",
                engine_.packets_sent(), engine_.observations(),
                engine_.run_ended() ? "" : " (no run-end in the log)");
  os << buf;
  std::snprintf(
      buf, sizeof buf,
      "evidence: %" PRIu64 " data sends, %" PRIu64 " samples, %" PRIu64
      " probes, %" PRIu64 " acks, %" PRIu64 " ack timeouts, %" PRIu64
      " onion decodes, %" PRIu64 " clean / %" PRIu64 " blame score updates\n",
      count(obs::EventKind::kDataSend), count(obs::EventKind::kSampleSelect),
      count(obs::EventKind::kProbeSend), count(obs::EventKind::kAckRecv),
      count(obs::EventKind::kAckTimeout),
      count(obs::EventKind::kOnionDecode),
      count(obs::EventKind::kScoreClean), count(obs::EventKind::kScoreBlame));
  os << buf;
  if (prefix_blames_ > 0) {
    os << "  (" << prefix_blames_
       << " blames are prefix evidence without a single named link)\n";
  }

  const std::vector<ConvictionRecord> verdict = engine_.verdict();
  if (!engine_.run_ended()) {
    os << "verdict: unknown — the log has no run-end (partial log?)\n";
  } else if (verdict.empty()) {
    os << "verdict: no link convicted\n";
  }
  std::vector<protocols::LinkEvidence> evidence;
  if (engine_.configured()) engine_.scorer().evidence(&evidence);
  // theta, sd and the margin distance of one link's record.
  const auto record = [&](std::size_t link, const char* sep) {
    const protocols::LinkEvidence ev =
        link < evidence.size() ? evidence[link] : protocols::kNoEvidence;
    std::snprintf(buf, sizeof buf, "theta %.6g%ssd %.3g%smargin %+.3g",
                  ev.theta, sep, ev.sd, sep, ev.theta - ev.sd - cfg.threshold);
    return std::string(buf);
  };
  const std::vector<std::size_t> convicted = engine_.convicted();
  for (const ConvictionRecord& rec : verdict) {
    os << "\nCONVICTED l_" << rec.link << "  " << record(rec.link, "  ");
    std::snprintf(buf, sizeof buf,
                  "  (recorded at %" PRIu64 " packets, %" PRIu64
                  " observations, line %" PRIu64 ")\n",
                  rec.packets, rec.observations, rec.line);
    os << buf;
    if (rec.link >= links_.size()) continue;
    const LinkExhibit& x = links_[rec.link];
    if (std::binary_search(convicted.begin(), convicted.end(), rec.link)) {
      os << "  " << rule << " convicts it since "
         << format_ms(x.entered_ns) << '\n';
    } else {
      os << "  " << rule << " does not convict it at run end"
         << (x.entered_ns < 0 ? "" : ", last entered at " +
                                         format_ms(x.entered_ns))
         << " (the log disagrees with itself; see paai replay --verify)\n";
    }
    // Prefix (PAAI-2) and count (stat-FL) evidence names no link.
    if (x.blames == 0) continue;
    std::snprintf(buf, sizeof buf, "  blames: %" PRIu64, x.blames);
    os << buf << "  first at " << format_ms(x.first_blame_ns) << '\n';
    os << "  blamed packet ids:";
    for (const std::uint64_t id : x.sample_ids) {
      std::snprintf(buf, sizeof buf, " %016" PRIx64, id);
      os << buf;
    }
    if (x.blames > x.sample_ids.size()) {
      os << " (+" << (x.blames - x.sample_ids.size()) << " more)";
    }
    // A compressed score trajectory: first, a few middles, last.
    os << "\n  score trajectory (theta):";
    const std::size_t n = x.trajectory.size();
    const std::size_t step = n <= 6 ? 1 : (n - 1) / 5;
    for (std::size_t i = 0; i < n; i += step) {
      std::snprintf(buf, sizeof buf, " %.4g", x.trajectory[i]);
      os << buf;
    }
    if (step > 1) {
      std::snprintf(buf, sizeof buf, " ... %.4g", x.trajectory[n - 1]);
      os << buf;
    }
    os << '\n';
  }

  // Every other link, acquitted under the configured rule.
  for (std::size_t link = 0; link < evidence.size(); ++link) {
    if (std::any_of(verdict.begin(), verdict.end(),
                    [&](const ConvictionRecord& r) { return r.link == link; })) {
      continue;
    }
    os << "l_" << link << ": " << record(link, ", ");
    if (link < links_.size() && links_[link].blames > 0) {
      os << ", " << links_[link].blames << " blames";
    }
    os << " — not convicted under " << rule << '\n';
  }
}

bool read_audit_trail(std::istream& in, AuditTrail& trail,
                      std::string* error) {
  obs::EventReader reader(in);
  obs::Event event;
  for (;;) {
    const obs::EventReader::Status status = reader.next(&event, error);
    if (status == obs::EventReader::Status::kEof) break;
    if (status == obs::EventReader::Status::kError) return false;
    try {
      trail.apply(event, reader.line());
    } catch (const std::exception& e) {
      *error = "line " + std::to_string(reader.line()) + ": " + e.what();
      return false;
    }
  }
  if (!trail.engine().configured()) {
    *error = "the log carries no run-config (truncated or not an event log?)";
    return false;
  }
  return true;
}

}  // namespace paai::stream
