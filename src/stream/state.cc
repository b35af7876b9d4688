#include "stream/state.h"

#include <ostream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace paai::stream {

namespace {

/// Bounds on the snapshot integers that select or size things: the
/// protocol id, the link count (no path this engine scores comes near
/// 2^16 links; the bound keeps a corrupted count from sizing the tables)
/// and a conviction record's link (any exactly representable integer).
constexpr std::uint64_t kMaxProtocol =
    static_cast<std::uint64_t>(protocols::ProtocolKind::kSigAck);
constexpr std::uint64_t kMaxLinks = 65536;
constexpr std::uint64_t kMaxRecordLink = std::uint64_t{1} << 53;

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = "paai.state.v1: " + what;
  return false;
}

}  // namespace

void write_state(std::ostream& os, const ScoreEngine& engine) {
  const EngineConfig& cfg = engine.config();
  obs::JsonWriter w(os);
  obs::JsonFieldWriter fields(w);
  w.begin_object();
  w.key("schema").value(kStateSchema);
  w.key("protocol").value(static_cast<std::int64_t>(cfg.protocol));
  w.key("protocol_name").value(protocols::protocol_name(cfg.protocol));
  w.key("links").value(static_cast<std::int64_t>(cfg.num_links));
  w.key("threshold").value(cfg.threshold);
  w.key("blame").value(cfg.blame.to_string());
  fields.field("events_seen", engine.events_seen());
  fields.field("events_applied", engine.events_applied());
  fields.field("packets_sent", engine.packets_sent());
  fields.field("delivered", engine.delivered());
  w.key("run_ended").value(engine.run_ended());

  w.key("recorded_convictions").begin_array();
  for (const ConvictionRecord& rec : engine.recorded_convictions()) {
    w.begin_object();
    w.key("link").value(static_cast<std::int64_t>(rec.link));
    fields.field("packets", rec.packets);
    fields.field("observations", rec.observations);
    fields.field("theta", rec.theta);
    fields.field("line", rec.line);
    w.end_object();
  }
  w.end_array();

  fields.open("table");
  engine.visit_table(fields);
  fields.close();
  w.end_object();
}

std::string state_to_string(const ScoreEngine& engine) {
  std::ostringstream os;
  write_state(os, engine);
  return os.str();
}

bool load_state(std::string_view json, ScoreEngine* engine,
                std::string* error) {
  std::string parse_error;
  const auto doc = obs::json_parse(json, &parse_error);
  if (!doc.has_value()) return fail(error, parse_error);

  obs::JsonFieldReader r(*doc);
  EngineConfig cfg;
  std::size_t protocol = 0;
  std::string blame;
  r.expect<std::string>("schema", kStateSchema);
  r.index("protocol", protocol, kMaxProtocol);
  cfg.protocol = static_cast<protocols::ProtocolKind>(protocol);
  r.expect<std::string>("protocol_name",
                        protocols::protocol_name(cfg.protocol));
  r.index("links", cfg.num_links, kMaxLinks);
  r.field("threshold", cfg.threshold);
  r.field("blame", blame);
  if (!r.ok()) return fail(error, r.error());
  try {
    cfg.blame = protocols::BlameSpec::parse(blame);
  } catch (const std::invalid_argument&) {
    return fail(error, "malformed blame spec");
  }
  if (cfg.num_links == 0) return fail(error, "links must be positive");
  engine->configure(cfg);

  std::uint64_t events_seen = 0, events_applied = 0;
  std::uint64_t packets_sent = 0, delivered = 0;
  bool run_ended = false;
  std::vector<ConvictionRecord> recorded;
  r.field("events_seen", events_seen);
  r.field("events_applied", events_applied);
  r.field("packets_sent", packets_sent);
  r.field("delivered", delivered);
  r.field("run_ended", run_ended);
  r.items("recorded_convictions", [&] {
    ConvictionRecord rec;
    r.index("link", rec.link, kMaxRecordLink);
    r.field("packets", rec.packets);
    r.field("observations", rec.observations);
    r.field("theta", rec.theta);
    r.field("line", rec.line);
    recorded.push_back(rec);
  });
  r.open("table");
  engine->visit_table(r);
  r.close();
  if (!r.finish()) return fail(error, r.error());

  engine->restore_counters(events_seen, events_applied, packets_sent,
                           delivered, run_ended, std::move(recorded));
  engine->rebaseline_convictions();
  return true;
}

}  // namespace paai::stream
