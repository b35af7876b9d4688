#include "stream/state.h"

#include <cmath>
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
constexpr double kMaxProtocol =
    static_cast<double>(protocols::ProtocolKind::kSigAck);
constexpr double kMaxLinks = 65536.0;
constexpr double kMaxRecordLink = 9007199254740992.0;  // 2^53

/// A JSON number holding an integer in [0, max]; the range check comes
/// before the cast, so a hostile document never reaches undefined
/// float-to-integer conversion.
bool parse_index(const obs::JsonValue* v, double max, std::size_t* out) {
  if (v == nullptr || !v->is_number() || !(v->number >= 0.0) ||
      v->number > max || std::floor(v->number) != v->number) {
    return false;
  }
  *out = static_cast<std::size_t>(v->number);
  return true;
}

bool fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = "paai.state.v1: " + what;
  return false;
}

/// Writes each field of a state walk (protocols/window.h StateZeroer
/// vocabulary) as one JSON member: u64s as decimal strings, doubles at
/// %.17g.
class FieldWriter {
 public:
  explicit FieldWriter(obs::JsonWriter& w) : w_(w) {}

  void kind(const char* kind) { w_.key("kind").value(kind); }
  void open(const char* name) { w_.key(name).begin_object(); }
  void close() { w_.end_object(); }
  void version(const char* name, int v) {
    w_.key(name).value(static_cast<std::int64_t>(v));
  }
  void fixed(const char* name, std::uint64_t x) { field(name, x); }
  void field(const char* name, std::uint64_t x) {
    w_.key(name).value(std::to_string(x));
  }
  void field(const char* name, double x) { w_.key(name).value(x); }
  void field(const char* name, const std::vector<std::uint64_t>& xs) {
    w_.key(name).begin_array();
    for (const std::uint64_t x : xs) w_.value(std::to_string(x));
    w_.end_array();
  }
  void field(const char* name, const std::vector<double>& xs) {
    w_.key(name);
    doubles(xs);
  }
  void field(const char* name, const std::vector<std::vector<double>>& rings,
             std::size_t /*cap*/) {
    w_.key(name).begin_array();
    for (const std::vector<double>& ring : rings) doubles(ring);
    w_.end_array();
  }

 private:
  void doubles(const std::vector<double>& xs) {
    w_.begin_array();
    for (const double x : xs) w_.value(x);
    w_.end_array();
  }

  obs::JsonWriter& w_;
};

/// Reads each field of a state walk from a JSON object straight into its
/// destination. Every field is required, and every vector must already
/// have the size it must be read at (the configured table's constructed
/// size); the first violation stops the walk and is reported by error()
/// (empty while the walk is clean), naming the field by its path.
class FieldReader {
 public:
  FieldReader(const obs::JsonValue& obj, std::string path)
      : obj_(&obj), base_(std::move(path)), path_(base_) {}

  const std::string& error() const { return error_; }

  void kind(const char* kind) {
    const obs::JsonValue* v = member("kind");
    if (v == nullptr) return;
    if (!v->is_string()) return mistyped("kind");
    if (v->string != kind) fail(path_ + "kind does not match the protocol");
  }
  void open(const char* name) {
    const obs::JsonValue* v = member(name);
    if (v == nullptr) return;
    if (!v->is_object()) return mistyped(name);
    outer_ = obj_;
    obj_ = v;
    path_ += std::string(name) + ".";
  }
  void close() {
    if (!error_.empty()) return;
    obj_ = outer_;
    path_ = base_;
  }
  void version(const char* name, int v) {
    const obs::JsonValue* x = member(name);
    if (x != nullptr &&
        (!x->is_number() || x->number != static_cast<double>(v))) {
      fail("unsupported " + path_ + name);
    }
  }
  void fixed(const char* name, std::uint64_t expect) {
    std::uint64_t x = 0;
    field(name, x);
    if (error_.empty() && x != expect) {
      fail(path_ + name + " contradicts the blame spec");
    }
  }
  void field(const char* name, std::uint64_t& x) {
    const obs::JsonValue* v = member(name);
    if (v != nullptr && !obs::json_u64_string(*v, &x)) mistyped(name);
  }
  void field(const char* name, double& x) {
    const obs::JsonValue* v = member(name);
    if (v == nullptr) return;
    if (!v->is_number()) return mistyped(name);
    x = v->number;
  }
  void field(const char* name, std::vector<std::uint64_t>& xs) {
    const obs::JsonValue* v = array(name, xs.size());
    for (std::size_t i = 0; v != nullptr && i < xs.size(); ++i) {
      if (!obs::json_u64_string(v->array[i], &xs[i])) {
        return mistyped(name);
      }
    }
  }
  void field(const char* name, std::vector<double>& xs) {
    const obs::JsonValue* v = array(name, xs.size());
    for (std::size_t i = 0; v != nullptr && i < xs.size(); ++i) {
      if (!v->array[i].is_number()) return mistyped(name);
      xs[i] = v->array[i].number;
    }
  }
  void field(const char* name, std::vector<std::vector<double>>& rings,
             std::size_t cap) {
    const obs::JsonValue* v = array(name, rings.size());
    for (std::size_t i = 0; v != nullptr && i < rings.size(); ++i) {
      const obs::JsonValue& ring = v->array[i];
      if (!ring.is_array()) return mistyped(name);
      if (ring.array.size() > cap) return shape(name);
      rings[i].clear();
      for (const obs::JsonValue& x : ring.array) {
        if (!x.is_number()) return mistyped(name);
        rings[i].push_back(x.number);
      }
    }
  }

 private:
  /// The named member, or nullptr (and the walk fails) when it is absent
  /// or an earlier field already failed.
  const obs::JsonValue* member(const char* name) {
    if (!error_.empty()) return nullptr;
    const obs::JsonValue* v = obj_->find(name);
    if (v == nullptr) fail("missing " + path_ + name);
    return v;
  }
  /// The named member as an array of exactly `size` items, or nullptr.
  const obs::JsonValue* array(const char* name, std::size_t size) {
    const obs::JsonValue* v = member(name);
    if (v == nullptr) return nullptr;
    if (!v->is_array()) {
      mistyped(name);
      return nullptr;
    }
    if (v->array.size() != size) {
      shape(name);
      return nullptr;
    }
    return v;
  }
  void mistyped(const char* name) { fail("mistyped " + path_ + name); }
  void shape(const char* name) { fail("wrong shape of " + path_ + name); }
  void fail(const std::string& what) {
    if (error_.empty()) error_ = what;
  }

  const obs::JsonValue* obj_;
  const obs::JsonValue* outer_ = nullptr;
  std::string base_;
  std::string path_;
  std::string error_;
};

}  // namespace

void write_state(std::ostream& os, const ScoreEngine& engine) {
  const EngineConfig& cfg = engine.config();
  obs::JsonWriter w(os);
  FieldWriter fields(w);
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

  w.key("table").begin_object();
  engine.visit_table(fields);
  w.end_object();
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
  if (!doc->is_object()) return fail(error, "not a JSON object");

  const obs::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kStateSchema) {
    return fail(error, "missing or unsupported schema (want paai.state.v1)");
  }

  EngineConfig cfg;
  std::size_t protocol = 0;
  const obs::JsonValue* threshold = doc->find("threshold");
  if (!parse_index(doc->find("protocol"), kMaxProtocol, &protocol) ||
      !parse_index(doc->find("links"), kMaxLinks, &cfg.num_links) ||
      threshold == nullptr || !threshold->is_number()) {
    return fail(error, "missing or mistyped protocol/links/threshold");
  }
  cfg.protocol = static_cast<protocols::ProtocolKind>(protocol);
  cfg.threshold = threshold->number;
  const obs::JsonValue* blame = doc->find("blame");
  if (blame == nullptr || !blame->is_string()) {
    return fail(error, "missing or mistyped blame spec");
  }
  try {
    cfg.blame = protocols::BlameSpec::parse(blame->string);
  } catch (const std::invalid_argument&) {
    return fail(error, "malformed blame spec");
  }
  if (cfg.num_links == 0) return fail(error, "links must be positive");
  engine->configure(cfg);

  std::uint64_t events_seen = 0, events_applied = 0;
  std::uint64_t packets_sent = 0, delivered = 0;
  FieldReader top(*doc, "");
  top.field("events_seen", events_seen);
  top.field("events_applied", events_applied);
  top.field("packets_sent", packets_sent);
  top.field("delivered", delivered);
  if (!top.error().empty()) return fail(error, top.error());
  const obs::JsonValue* run_ended = doc->find("run_ended");
  if (run_ended == nullptr || run_ended->kind != obs::JsonValue::Kind::kBool) {
    return fail(error, "missing or mistyped run_ended");
  }

  std::vector<ConvictionRecord> recorded;
  const obs::JsonValue* recs = doc->find("recorded_convictions");
  if (recs == nullptr || !recs->is_array()) {
    return fail(error, "missing recorded_convictions");
  }
  for (const obs::JsonValue& item : recs->array) {
    ConvictionRecord rec;
    if (!parse_index(item.find("link"), kMaxRecordLink, &rec.link)) {
      return fail(error, "mistyped recorded_convictions[].link");
    }
    FieldReader fields(item, "recorded_convictions[].");
    fields.field("packets", rec.packets);
    fields.field("observations", rec.observations);
    fields.field("theta", rec.theta);
    fields.field("line", rec.line);
    if (!fields.error().empty()) return fail(error, fields.error());
    recorded.push_back(rec);
  }

  const obs::JsonValue* table = doc->find("table");
  if (table == nullptr || !table->is_object()) {
    return fail(error, "missing table");
  }
  FieldReader fields(*table, "table.");
  engine->visit_table(fields);
  if (!fields.error().empty()) return fail(error, fields.error());

  engine->restore_counters(events_seen, events_applied, packets_sent,
                           delivered, run_ended->boolean,
                           std::move(recorded));
  engine->rebaseline_convictions();
  return true;
}

}  // namespace paai::stream
