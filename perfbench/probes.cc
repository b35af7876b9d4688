// Outside-in layer probes: each per-layer metric is measured by calling
// one module's public functions from here, on inputs shaped like the
// workloads' (d = 6, the protocols' message sizes, real stream bytes,
// the fat-tree link count). Every probe warms up before it is timed and
// reports the median of several timed batches.
#include <algorithm>
#include <cstdio>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "bench.h"
#include "crypto/keystore.h"
#include "crypto/provider.h"
#include "crypto/wots.h"
#include "exec/shard_plan.h"
#include "mesh/score_store.h"
#include "mesh/topology.h"
#include "net/onion.h"
#include "net/packet.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "protocols/paai1.h"
#include "protocols/paai2.h"
#include "protocols/score.h"
#include "runner/experiment.h"
#include "runner/montecarlo.h"
#include "runner/producer.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "stream/engine.h"
#include "stream/service.h"
#include "stream/state.h"

namespace perfbench {

namespace {

namespace crypto = paai::crypto;
namespace protocols = paai::protocols;
namespace runner = paai::runner;
namespace sim = paai::sim;
using paai::Bytes;
using paai::ByteView;
using protocols::ProtocolKind;

/// Fixed inputs: count metrics must repeat exactly whatever --seed is.
constexpr std::uint64_t kProbeSeed = 1;
constexpr std::size_t kD = 6;
constexpr int kBatches = 5;

volatile std::uint64_t g_sink = 0;

/// Runs `batch()` once to warm up, then kBatches timed times; returns the
/// median per-op time in nanoseconds (`ops` = operations per batch).
template <class F>
double median_ns_per_op(std::size_t ops, F&& batch) {
  batch();
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    batch();
    per_op.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
  }
  return median(per_op);
}

// -------------------------------------------------------------------- sim

/// Self-rescheduling handler whose capture is the size of a link delivery
/// (PacketEnv + pointer), at a constant queue depth.
struct DispatchLoop {
  static constexpr std::size_t kDepth = 16;  // measured high-water is <= 32
  sim::Simulator simulator;
  paai::Rng rng{kProbeSeed};
  std::uint64_t remaining = 0;
  std::uint64_t acc = 0;

  void schedule(const sim::PacketEnv& env) {
    const auto delay = static_cast<sim::SimDuration>(rng.next_below(5000000));
    simulator.after(delay, [this, env] {
      acc += env.wire_size;
      if (remaining > 0) {
        --remaining;
        schedule(env);
      }
    });
  }
};

double probe_dispatch_ns() {
  constexpr std::uint64_t kEvents = 400000;
  const sim::PacketEnv env{std::make_shared<const Bytes>(Bytes(19, 1)), 19,
                           sim::Direction::kToDest};
  return median_ns_per_op(kEvents, [&] {
    DispatchLoop loop;
    loop.remaining = kEvents - DispatchLoop::kDepth;
    for (std::size_t i = 0; i < DispatchLoop::kDepth; ++i) loop.schedule(env);
    loop.simulator.run();
    g_sink = g_sink + loop.acc;
  });
}

class Forwarder : public sim::Agent {
 public:
  void on_packet(const sim::PacketEnv& env) override { node().forward(env); }
};

class Sink : public sim::Agent {
 public:
  void on_packet(const sim::PacketEnv& env) override {
    received += env.wire_size > 0 ? 1 : 0;
  }
  std::uint64_t received = 0;
};

double probe_forward_hop_ns() {
  constexpr std::uint64_t kPackets = 60000;
  constexpr std::uint64_t kInFlight = 8;
  return median_ns_per_op(kPackets * kD, [&] {
    sim::Simulator simulator;
    sim::PathConfig pc;
    pc.length = kD;
    pc.natural_loss = 0.0;
    pc.seed = kProbeSeed;
    sim::PathNetwork net(simulator, pc);
    net.node(0).attach_agent(std::make_unique<Sink>());
    for (std::size_t i = 1; i < kD; ++i) {
      net.node(i).attach_agent(std::make_unique<Forwarder>());
    }
    auto sink = std::make_unique<Sink>();
    Sink* dest = sink.get();
    net.node(kD).attach_agent(std::move(sink));
    paai::net::DataPacket pkt;  // smallest packet: header only
    const auto wire = std::make_shared<const Bytes>(pkt.encode());
    for (std::uint64_t sent = 0; sent < kPackets; sent += kInFlight) {
      for (std::uint64_t k = 0; k < kInFlight; ++k) {
        net.source().originate(sim::Direction::kToDest, wire, wire->size());
      }
      simulator.run();
    }
    if (dest->received != kPackets) {
      throw std::runtime_error("forward probe lost packets");
    }
  });
}

// ----------------------------------------------------------------- crypto

/// Message sizes the protocols feed each primitive at d = 6.
struct MessageMix {
  std::vector<Bytes> hash;  // data-packet headers (19 B)
  std::vector<Bytes> mac;   // dest-ack id (16 B) + onion layers 1..6
  std::vector<Bytes> prf;   // packet id, challenge seed, probe bytes
  Bytes report;             // PAAI-2 layered report (17 B)
};

MessageMix message_mix() {
  MessageMix m;
  for (std::uint64_t seq = 0; seq < 8; ++seq) {
    paai::net::DataPacket pkt;
    pkt.seq = seq;
    pkt.timestamp_ns = 1000000 * seq;
    m.hash.push_back(pkt.encode());
  }
  m.mac.push_back(Bytes(16, 0x11));
  const std::size_t layer =
      paai::net::onion_layer_overhead(1 + 16) - crypto::kMacSize;
  for (std::size_t k = 0; k < kD; ++k) {
    m.mac.push_back(Bytes(layer + k * paai::net::onion_layer_overhead(17), 0x22));
  }
  m.prf = {Bytes(16, 0x33), Bytes(24, 0x44), Bytes(27, 0x55)};
  m.report = Bytes(protocols::kPaai2ReportSize, 0x66);
  return m;
}

void probe_crypto(std::map<std::string, double>& out, SpanRecorder* spans) {
  const MessageMix mix = message_mix();
  const crypto::Key key = crypto::test_master_key(kProbeSeed);
  for (const bool real : {false, true}) {
    const auto provider =
        crypto::make_crypto(real ? crypto::CryptoKind::kReal
                                 : crypto::CryptoKind::kFast);
    const crypto::CryptoProvider& c = *provider;
    const std::string p = real ? "crypto.real." : "crypto.fast.";
    const std::size_t reps = real ? 4000 : 40000;
    MaybeSpan group(spans, real ? "crypto.real" : "crypto.fast", "crypto");
    {
      MaybeSpan span(spans, p + "hash", "crypto");
      out[p + "hash_ns"] = median_ns_per_op(reps * mix.hash.size(), [&] {
        std::uint64_t acc = 0;
        for (std::size_t r = 0; r < reps; ++r) {
          for (const Bytes& m : mix.hash) acc += c.hash(m)[0];
        }
        g_sink = g_sink + acc;
      });
    }
    {
      MaybeSpan span(spans, p + "mac", "crypto");
      out[p + "mac_ns"] = median_ns_per_op(reps * mix.mac.size(), [&] {
        std::uint64_t acc = 0;
        for (std::size_t r = 0; r < reps; ++r) {
          for (const Bytes& m : mix.mac) acc += c.mac(key, m)[0];
        }
        g_sink = g_sink + acc;
      });
    }
    {
      MaybeSpan span(spans, p + "prf", "crypto");
      out[p + "prf_ns"] = median_ns_per_op(reps * mix.prf.size(), [&] {
        std::uint64_t acc = 0;
        for (std::size_t r = 0; r < reps; ++r) {
          for (const Bytes& m : mix.prf) acc += c.prf(key, m);
        }
        g_sink = g_sink + acc;
      });
    }
    {
      MaybeSpan span(spans, p + "encrypt", "crypto");
      out[p + "encrypt_ns"] = median_ns_per_op(reps, [&] {
        std::uint64_t acc = 0;
        for (std::size_t r = 0; r < reps; ++r) {
          acc += c.encrypt(key, r, mix.report)[0];
        }
        g_sink = g_sink + acc;
      });
    }
    if (real) {
      MaybeSpan span(spans, p + "decrypt", "crypto");
      out[p + "decrypt_ns"] = median_ns_per_op(reps, [&] {
        std::uint64_t acc = 0;
        for (std::size_t r = 0; r < reps; ++r) {
          acc += c.decrypt(key, r, mix.report)[0];
        }
        g_sink = g_sink + acc;
      });
    }
  }

  // W-OTS over the sig-ack signed content (node index + packet id).
  MaybeSpan group(spans, "crypto.wots", "crypto");
  constexpr std::size_t kOps = 20;
  const Bytes content(17, 0x77);
  const crypto::WotsPublicKey pk = crypto::wots_public_key(key, 0);
  const Bytes sig = crypto::wots_sign(key, 0, content);
  {
    MaybeSpan span(spans, "crypto.wots.keygen", "crypto");
    out["crypto.wots.keygen_us"] =
        median_ns_per_op(kOps, [&] {
          for (std::size_t i = 0; i < kOps; ++i) {
            g_sink = g_sink + crypto::wots_public_key(key, i)[0];
          }
        }) / 1e3;
  }
  {
    MaybeSpan span(spans, "crypto.wots.sign", "crypto");
    out["crypto.wots.sign_us"] =
        median_ns_per_op(kOps, [&] {
          for (std::size_t i = 0; i < kOps; ++i) {
            g_sink = g_sink + crypto::wots_sign(key, i, content)[0];
          }
        }) / 1e3;
  }
  {
    MaybeSpan span(spans, "crypto.wots.verify", "crypto");
    out["crypto.wots.verify_us"] =
        median_ns_per_op(kOps, [&] {
          for (std::size_t i = 0; i < kOps; ++i) {
            if (!crypto::wots_verify(pk, content, sig)) {
              throw std::runtime_error("wots probe: signature rejected");
            }
          }
        }) / 1e3;
  }
}

// -------------------------------------------------------------------- net

void probe_onion(std::map<std::string, double>& out, SpanRecorder* spans) {
  const crypto::KeyStore keys(crypto::test_master_key(kProbeSeed), kD);
  std::vector<crypto::Key> key_vec(kD + 1);
  for (std::size_t i = 1; i <= kD; ++i) key_vec[i] = keys.node_key(i);
  paai::net::DataPacket pkt;
  pkt.seq = 42;
  for (const bool real : {false, true}) {
    const auto provider =
        crypto::make_crypto(real ? crypto::CryptoKind::kReal
                                 : crypto::CryptoKind::kFast);
    const crypto::CryptoProvider& c = *provider;
    const paai::net::PacketId id = pkt.id(c);
    std::vector<Bytes> reports(kD + 1);
    for (std::size_t i = 1; i <= kD; ++i) {
      reports[i] = protocols::paai1_local_report(i, id);
    }
    // inner[i] = the onion node i receives from downstream (i < d).
    std::vector<Bytes> inner(kD + 1);
    inner[kD - 1] = paai::net::onion_originate(
        c, key_vec[kD], static_cast<std::uint8_t>(kD), reports[kD]);
    for (std::size_t i = kD - 1; i >= 2; --i) {
      inner[i - 1] = paai::net::onion_wrap(
          c, key_vec[i], static_cast<std::uint8_t>(i), reports[i], inner[i]);
    }
    const Bytes full = paai::net::onion_wrap(c, key_vec[1], 1, reports[1],
                                             inner[1]);
    const std::string p = real ? "net.onion.real." : "net.onion.fast.";
    const std::size_t reps = real ? 3000 : 30000;
    MaybeSpan group(spans, real ? "net.onion.real" : "net.onion.fast", "net");
    {
      MaybeSpan span(spans, p + "originate", "net");
      out[p + "originate_ns"] = median_ns_per_op(reps, [&] {
        std::uint64_t acc = 0;
        for (std::size_t r = 0; r < reps; ++r) {
          acc += paai::net::onion_originate(c, key_vec[kD],
                                            static_cast<std::uint8_t>(kD),
                                            reports[kD])
                     .size();
        }
        g_sink = g_sink + acc;
      });
    }
    {
      MaybeSpan span(spans, p + "wrap", "net");
      out[p + "wrap_ns"] = median_ns_per_op(reps * (kD - 1), [&] {
        std::uint64_t acc = 0;
        for (std::size_t r = 0; r < reps; ++r) {
          for (std::size_t i = kD - 1; i >= 1; --i) {
            acc += paai::net::onion_wrap(c, key_vec[i],
                                         static_cast<std::uint8_t>(i),
                                         reports[i], inner[i])
                       .size();
          }
        }
        g_sink = g_sink + acc;
      });
    }
    {
      MaybeSpan span(spans, p + "verify", "net");
      const std::size_t vreps = reps / 4;
      out[p + "verify_us"] =
          median_ns_per_op(vreps, [&] {
            for (std::size_t r = 0; r < vreps; ++r) {
              const auto res = paai::net::onion_verify(
                  c, key_vec, kD, full, [&id](std::uint8_t i, ByteView rep) {
                    return protocols::paai1_report_ok(i, rep, id);
                  });
              if (!res.complete || res.valid_layers != kD) {
                throw std::runtime_error("onion probe: verify failed");
              }
            }
          }) / 1e3;
    }
  }
}

// -------------------------------------------------- streams and tables

struct ProbeStream {
  ProtocolKind kind;
  const char* family;
  std::string jsonl;
  std::vector<paai::obs::Event> events;
};

std::vector<ProbeStream> probe_streams(SpanRecorder* spans) {
  MaybeSpan span(spans, "run_experiment_to_stream", "runner");
  std::vector<ProbeStream> out;
  const struct {
    ProtocolKind kind;
    const char* family;
  } families[] = {{ProtocolKind::kPaai1, "onion"},
                  {ProtocolKind::kPaai2, "prefix"},
                  {ProtocolKind::kStatisticalFl, "fl"}};
  for (const auto& f : families) {
    std::ostringstream os;
    const auto r = runner::run_experiment_to_stream(
        runner::paper_config(f.kind, 10000, kProbeSeed), os);
    if (r.events_dropped != 0) {
      throw std::runtime_error("probe stream dropped events");
    }
    ProbeStream s{f.kind, f.family, os.str(), {}};
    std::istringstream is(s.jsonl);
    std::string error;
    s.events = paai::obs::EventLog::read_jsonl(is, &error);
    if (s.events.empty()) throw std::runtime_error("probe stream: " + error);
    out.push_back(std::move(s));
  }
  return out;
}

/// One recorded score-table mutation: op code plus its arguments.
struct Mutation {
  std::uint8_t op;
  std::uint32_t arg;
  std::uint64_t value;
};

/// The mutation mix the stream engine derives from each family's events
/// (see the mapping in stream/engine.h).
std::vector<Mutation> mutations(const ProbeStream& s) {
  using paai::obs::EventKind;
  std::vector<Mutation> m;
  for (const auto& e : s.events) {
    const auto link = static_cast<std::uint32_t>(e.link < 0 ? 0 : e.link);
    if (s.kind == ProtocolKind::kPaai1) {
      if (e.kind == EventKind::kScoreClean) m.push_back({0, 0, 0});
      if (e.kind == EventKind::kScoreBlame) m.push_back({1, link, 0});
    } else if (s.kind == ProtocolKind::kPaai2) {
      if (e.kind == EventKind::kDataSend) m.push_back({0, 0, 0});
      if (e.kind == EventKind::kScoreClean) {
        m.push_back({1, static_cast<std::uint32_t>(e.b), 0});
      }
      if (e.kind == EventKind::kScoreBlame) {
        m.push_back({2, static_cast<std::uint32_t>(e.b), 0});
      }
    } else {
      if (e.kind == EventKind::kFlCount) m.push_back({0, link, e.b});
      if (e.kind == EventKind::kScoreClean) m.push_back({1, 0, 0});
      if (e.kind == EventKind::kAckTimeout) m.push_back({2, 0, 0});
    }
  }
  return m;
}

template <class Table>
std::uint64_t verdict(const Table& t) {
  std::uint64_t acc = t.thetas().size() + t.convicted(0.018).size();
  for (std::size_t l = 0; l < t.num_links(); ++l) {
    acc += static_cast<std::uint64_t>(t.burstiness(l) * 1e6);
  }
  return acc;
}

void probe_score(std::map<std::string, double>& out,
                 const std::vector<ProbeStream>& streams,
                 SpanRecorder* spans) {
  MaybeSpan group(spans, "protocols.score", "protocols");
  constexpr std::size_t kTarget = 300000;  // mutations per timed batch
  protocols::ScoreTable onion(kD, 2.6);
  protocols::Paai2ScoreTable prefix(kD);
  protocols::FlScoreTable fl(kD);
  for (const ProbeStream& s : streams) {
    const std::vector<Mutation> mix = mutations(s);
    if (mix.empty()) throw std::runtime_error("score probe: no mutations");
    const std::size_t reps = std::max<std::size_t>(1, kTarget / mix.size());
    const std::string name = std::string("protocols.score.") + s.family;
    MaybeSpan span(spans, name + "_apply", "protocols");
    if (s.kind == ProtocolKind::kPaai1) {
      out[name + "_apply_ns"] = median_ns_per_op(reps * mix.size(), [&] {
        for (std::size_t r = 0; r < reps; ++r) {
          protocols::ScoreTable t(kD, 2.6);
          for (const Mutation& m : mix) {
            if (m.op == 0) {
              t.add_clean();
            } else {
              t.blame(m.arg);
            }
          }
          g_sink = g_sink + t.observations();
          if (r == 0) onion = t;
        }
      });
    } else if (s.kind == ProtocolKind::kPaai2) {
      out[name + "_apply_ns"] = median_ns_per_op(reps * mix.size(), [&] {
        for (std::size_t r = 0; r < reps; ++r) {
          protocols::Paai2ScoreTable t(kD);
          for (const Mutation& m : mix) {
            if (m.op == 0) {
              t.add_data_packet();
            } else {
              t.add_probe(m.arg, m.op == 2);
            }
          }
          g_sink = g_sink + t.probes();
          if (r == 0) prefix = t;
        }
      });
    } else {
      out[name + "_apply_ns"] = median_ns_per_op(reps * mix.size(), [&] {
        for (std::size_t r = 0; r < reps; ++r) {
          protocols::FlScoreTable t(kD);
          for (const Mutation& m : mix) {
            if (m.op == 0) {
              t.add_count(m.arg, m.value);
            } else if (m.op == 1) {
              t.interval_reported();
            } else {
              t.interval_lost();
            }
          }
          g_sink = g_sink + t.intervals_reported();
          if (r == 0) fl = t;
        }
      });
    }
  }
  MaybeSpan span(spans, "protocols.score.verdict", "protocols");
  constexpr std::size_t kReps = 20000;
  out["protocols.score.verdict_ns"] = median_ns_per_op(3 * kReps, [&] {
    std::uint64_t acc = 0;
    for (std::size_t r = 0; r < kReps; ++r) {
      acc += verdict(onion) + verdict(prefix) + verdict(fl);
    }
    g_sink = g_sink + acc;
  });
}

void probe_stream(std::map<std::string, double>& out,
                  const std::vector<ProbeStream>& streams,
                  SpanRecorder* spans) {
  MaybeSpan group(spans, "stream", "stream");
  std::size_t total_events = 0, total_bytes = 0;
  for (const ProbeStream& s : streams) {
    total_events += s.events.size();
    total_bytes += s.jsonl.size();
  }
  {
    MaybeSpan span(spans, "stream.parse", "obs");
    out["stream.parse_ns_per_event"] = median_ns_per_op(total_events, [&] {
      for (const ProbeStream& s : streams) {
        MemBuf buf(s.jsonl.data(), s.jsonl.size());
        std::istream is(&buf);
        paai::obs::EventReader reader(is);
        paai::obs::Event e;
        while (reader.next(&e) == paai::obs::EventReader::Status::kEvent) {
        }
        if (reader.events() != s.events.size()) {
          throw std::runtime_error("parse probe: event count mismatch");
        }
      }
    });
  }
  std::vector<paai::stream::ScoreEngine> warm(streams.size());
  {
    MaybeSpan span(spans, "stream.apply", "stream");
    out["stream.apply_ns_per_event"] = median_ns_per_op(total_events, [&] {
      for (std::size_t i = 0; i < streams.size(); ++i) {
        paai::stream::ScoreEngine engine;
        for (const auto& e : streams[i].events) engine.apply(e);
        g_sink = g_sink + engine.events_applied();
        warm[i] = std::move(engine);
      }
    });
  }
  {
    // Stall timers in serve_stream run only while an observer is on.
    MaybeSpan span(spans, "stream.serve_stalls", "stream");
    auto& registry = paai::obs::MetricsRegistry::global();
    const bool was_enabled = registry.enabled();
    registry.set_enabled(true);
    double wall = 0.0, parse = 0.0, apply = 0.0;
    std::ostream no_log(nullptr);
    for (const ProbeStream& s : streams) {
      paai::stream::ScoreEngine engine;
      MemBuf buf(s.jsonl.data(), s.jsonl.size());
      std::istream is(&buf);
      const auto r =
          paai::stream::serve_stream(engine, is, no_log, paai::stream::ServeConfig{});
      wall += r.wall_seconds * 1e9;
      parse += static_cast<double>(r.parse_stall_ns);
      apply += static_cast<double>(r.apply_stall_ns);
    }
    registry.set_enabled(was_enabled);
    out["stream.parse_stall_share"] = parse / wall;
    out["stream.apply_stall_share"] = apply / wall;
  }
  std::vector<std::string> snaps;
  for (const auto& engine : warm) {
    snaps.push_back(paai::stream::state_to_string(engine));
  }
  constexpr std::size_t kReps = 200;
  {
    MaybeSpan span(spans, "stream.snapshot_write", "stream");
    out["stream.snapshot_write_us"] =
        median_ns_per_op(kReps * warm.size(), [&] {
          for (std::size_t r = 0; r < kReps; ++r) {
            for (const auto& engine : warm) {
              g_sink = g_sink + paai::stream::state_to_string(engine).size();
            }
          }
        }) / 1e3;
  }
  {
    MaybeSpan span(spans, "stream.snapshot_restore", "stream");
    out["stream.snapshot_restore_us"] =
        median_ns_per_op(kReps * snaps.size(), [&] {
          for (std::size_t r = 0; r < kReps; ++r) {
            for (const std::string& snap : snaps) {
              paai::stream::ScoreEngine engine;
              std::string error;
              if (!paai::stream::load_state(snap, &engine, &error)) {
                throw std::runtime_error("restore probe: " + error);
              }
            }
          }
        }) / 1e3;
  }
  std::size_t snap_bytes = 0;
  for (const std::string& snap : snaps) snap_bytes += snap.size();
  out["stream.snapshot_bytes"] = static_cast<double>(snap_bytes);
  out["stream.bytes_per_event"] =
      static_cast<double>(total_bytes) / static_cast<double>(total_events);
}

void probe_export(std::map<std::string, double>& out, SpanRecorder* spans) {
  MaybeSpan span(spans, "obs.export", "obs");
  runner::ExperimentConfig cfg =
      runner::paper_config(ProtocolKind::kPaai1, 5000, kProbeSeed);
  paai::obs::EventLog log(std::size_t{1} << 17);
  cfg.path.events = &log;
  (void)runner::run_experiment(cfg);
  if (log.dropped() != 0) throw std::runtime_error("export probe dropped");
  out["obs.export_ns_per_event"] = median_ns_per_op(log.retained(), [&] {
    std::ostringstream os;
    log.write_jsonl(os);
    g_sink = g_sink + os.str().size();
  });
}

// ----------------------------------------------------------------- runner

void probe_runner(std::map<std::string, double>& out, SpanRecorder* spans) {
  struct Case {
    ProtocolKind kind;
    const char* name;
    crypto::CryptoKind crypto;
    std::uint64_t packets;
  };
  const Case cases[] = {
      {ProtocolKind::kFullAck, "fullack", crypto::CryptoKind::kFast, 10000},
      {ProtocolKind::kPaai1, "paai1", crypto::CryptoKind::kFast, 10000},
      {ProtocolKind::kPaai2, "paai2", crypto::CryptoKind::kFast, 10000},
      {ProtocolKind::kSigAck, "sigack", crypto::CryptoKind::kReal, 100},
      {ProtocolKind::kPaai1, "paai1", crypto::CryptoKind::kReal, 4000},
      {ProtocolKind::kPaai2, "paai2", crypto::CryptoKind::kReal, 3000},
  };
  for (const Case& c : cases) {
    const bool real = c.crypto == crypto::CryptoKind::kReal;
    const std::string name = std::string("runner.") + c.name +
                             (real ? ".real" : ".fast");
    MaybeSpan group(spans, name, "runner");
    runner::ExperimentConfig cfg =
        runner::paper_config(c.kind, c.packets, kProbeSeed);
    cfg.crypto = c.crypto;
    if (real) cfg.params.send_rate_pps = 500.0;
    runner::ExperimentConfig warm = cfg;
    warm.params.total_packets = c.packets / 10;
    (void)runner::run_experiment(warm);
    std::vector<double> us;
    runner::ExperimentResult r;
    for (int rep = 0; rep < 3; ++rep) {
      MaybeSpan span(spans, "run_experiment", "runner");
      const auto t0 = Clock::now();
      r = runner::run_experiment(cfg);
      us.push_back(seconds_since(t0) * 1e6 /
                   static_cast<double>(r.packets_sent));
    }
    out[name + ".us_per_packet"] = median(us);
    if (!real) {
      out[std::string("runner.") + c.name + ".events_per_packet"] =
          static_cast<double>(r.events_processed) /
          static_cast<double>(r.packets_sent);
    }
  }
}

// ------------------------------------------------------------ exec, mesh

void probe_exec(std::map<std::string, double>& out, SpanRecorder* spans) {
  MaybeSpan span(spans, "exec.run_monte_carlo", "exec");
  runner::MonteCarloConfig mc;
  mc.base = runner::paper_config(ProtocolKind::kPaai1, 3000, 0);
  mc.base.checkpoints = {3000};
  mc.runs = 8;
  mc.seed0 = 1000 + kProbeSeed;
  mc.jobs = 2;
  const auto r = runner::run_monte_carlo(mc);
  out["exec.utilization"] = r.exec.utilization();
  out["exec.queue_wait_ms"] = r.exec.queue_wait_seconds.mean() * 1e3;
}

void probe_mesh(std::map<std::string, double>& out, SpanRecorder* spans,
                std::size_t workload_paths) {
  MaybeSpan group(spans, "mesh", "mesh");
  paai::mesh::Topology topo = paai::mesh::Topology::parse("fattree@16");
  paai::mesh::PathSet paths;
  {
    MaybeSpan span(spans, "mesh.topology_build", "mesh");
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      topo = paai::mesh::Topology::parse("fattree@16");
      paths = topo.enumerate_paths(workload_paths, 7 + kProbeSeed);
      ms.push_back(seconds_since(t0) * 1e3);
    }
    out["mesh.topology_build_ms"] = median(ms);
  }
  // One tile shard shaped like the stat engine's: the same tile width,
  // every path's hops, 8 checkpoint rounds.
  constexpr std::size_t kRounds = 8;
  const std::size_t links = topo.num_links();
  const std::size_t tile =
      workload_paths / paai::exec::fixed_tile_count(workload_paths);
  paai::mesh::ScoreShard shard(links, kRounds);
  paai::Rng rng(kProbeSeed);
  for (std::size_t i = 0; i < tile; ++i) {
    const std::uint32_t* pl = paths.links(i);
    for (std::size_t j = 0; j < paths.length(i); ++j) {
      std::uint64_t blames = 0;
      for (std::size_t r = 0; r < kRounds; ++r) {
        const std::uint64_t drops = rng.binomial(250, 0.01);
        shard.add_window(pl[j], r, 250, drops);
        blames += drops;
      }
      shard.add(pl[j], 250 * kRounds, blames, static_cast<std::uint32_t>(i),
                false);
    }
  }
  paai::mesh::GlobalScoreStore store(links, kRounds);
  {
    MaybeSpan span(spans, "mesh.absorb", "mesh");
    constexpr std::size_t kReps = 200;
    out["mesh.absorb_us"] =
        median_ns_per_op(kReps, [&] {
          for (std::size_t r = 0; r < kReps; ++r) store.absorb(shard);
        }) / 1e3;
  }
  {
    MaybeSpan span(spans, "mesh.convict", "mesh");
    const protocols::BlameSpec margin = protocols::BlameSpec::parse("margin");
    constexpr std::size_t kReps = 50;
    out["mesh.convict_us"] =
        median_ns_per_op(kReps, [&] {
          for (std::size_t r = 0; r < kReps; ++r) {
            std::uint64_t n = 0;
            for (std::size_t l = 0; l < links; ++l) {
              n += store.convicts(l, 0.02, margin) ? 1 : 0;
            }
            g_sink = g_sink + n;
          }
        }) / 1e3;
  }
  out["mesh.store_bytes"] = static_cast<double>(store.memory_bytes());
}

}  // namespace

void run_probes(std::map<std::string, double>& metrics, SpanRecorder* spans) {
  MaybeSpan root(spans, "probes", "bench");
  {
    MaybeSpan span(spans, "sim.dispatch", "sim");
    metrics["sim.dispatch_ns"] = probe_dispatch_ns();
  }
  {
    MaybeSpan span(spans, "sim.forward_hop", "sim");
    metrics["sim.forward_hop_ns"] = probe_forward_hop_ns();
  }
  probe_crypto(metrics, spans);
  probe_onion(metrics, spans);
  const std::vector<ProbeStream> streams = probe_streams(spans);
  probe_score(metrics, streams, spans);
  probe_stream(metrics, streams, spans);
  probe_export(metrics, spans);
  probe_runner(metrics, spans);
  probe_exec(metrics, spans);
  probe_mesh(metrics, spans, kMeshPaths);
}

}  // namespace perfbench
