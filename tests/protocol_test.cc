// Parameterized end-to-end localization sweep: every protocol must
// localize a data-dropping compromised node at every path position, and
// convict nothing on clean paths — across path lengths.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>

#include "adversary/spec.h"
#include "crypto/keystore.h"
#include "obs/events.h"
#include "protocols/agent.h"
#include "protocols/factory.h"
#include "runner/experiment.h"
#include "sim/simulator.h"

namespace paai::runner {
namespace {

using protocols::ProtocolKind;

std::uint64_t packets_for(ProtocolKind kind) {
  // Enough traffic for a strong (0.5 data-drop) adversary to stand out.
  switch (kind) {
    case ProtocolKind::kFullAck:
      return 2500;
    case ProtocolKind::kPaai1:
      return 20000;
    case ProtocolKind::kPaai2:
      return 25000;
    case ProtocolKind::kCombination1:
      return 25000;
    case ProtocolKind::kCombination2:
      return 90000;
    case ProtocolKind::kStatisticalFl:
      return 40000;
    case ProtocolKind::kSigAck:
      return 2500;  // W-OTS is CPU-heavy; full-ack-like detection speed
  }
  return 20000;
}

ExperimentConfig sweep_config(ProtocolKind kind, std::uint64_t seed) {
  ExperimentConfig cfg = paper_config(kind, packets_for(kind), seed);
  cfg.link_faults.clear();
  // Faster sampling keeps the sweep quick while exercising the same code.
  // Statistical FL samples everything here: at its paper-setting p the
  // protocol needs ~1e7 packets to converge (that slowness is the point
  // of the comparison, and the benches show it); the localization sweep
  // only checks correctness of the machinery.
  cfg.params.probe_probability = 1.0 / 9.0;
  cfg.params.fl_sampling = 1.0;
  cfg.params.fl_interval_packets = 300;
  cfg.params.send_rate_pps = 500.0;
  return cfg;
}

std::string protocol_ident(ProtocolKind kind) {
  std::string name = protocols::protocol_name(kind);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

std::string localization_name(
    const ::testing::TestParamInfo<std::tuple<ProtocolKind, std::size_t>>&
        info) {
  return protocol_ident(std::get<0>(info.param)) + "_F" +
         std::to_string(std::get<1>(info.param));
}

std::string protocol_only_name(
    const ::testing::TestParamInfo<ProtocolKind>& info) {
  return protocol_ident(info.param);
}

class Localization
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, std::size_t>> {
};

TEST_P(Localization, DataDropperIsLocalizedToItsDownstreamLink) {
  const ProtocolKind kind = std::get<0>(GetParam());
  const std::size_t z = std::get<1>(GetParam());
  ExperimentConfig cfg = sweep_config(kind, 1000 + z);
  AdversarySpec spec;
  spec.node = z;
  spec.kind = AdversarySpec::Kind::kTypeRates;
  spec.type_rates.data = 0.5;
  cfg.adversaries.push_back(spec);

  const ExperimentResult result = run_experiment(cfg);
  // A node dropping data while pretending honesty in the ack machinery
  // charges its downstream link l_z.
  ASSERT_FALSE(result.final_convicted.empty())
      << protocols::protocol_name(kind) << " missed the adversary at F_"
      << z;
  for (const std::size_t link : result.final_convicted) {
    EXPECT_TRUE(link == z || link + 1 == z)
        << protocols::protocol_name(kind) << " convicted non-adjacent l_"
        << link << " for adversary at F_" << z;
  }
  EXPECT_NE(std::find(result.final_convicted.begin(),
                      result.final_convicted.end(), z),
            result.final_convicted.end())
      << protocols::protocol_name(kind) << " did not convict l_" << z;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAllPositions, Localization,
    ::testing::Combine(
        ::testing::Values(ProtocolKind::kFullAck, ProtocolKind::kPaai1,
                          ProtocolKind::kPaai2, ProtocolKind::kCombination1,
                          ProtocolKind::kCombination2,
                          ProtocolKind::kStatisticalFl,
                          ProtocolKind::kSigAck),
        ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{4}, std::size_t{5})),
    localization_name);

class CleanPath : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(CleanPath, NaturalLossAloneConvictsNothing) {
  ExperimentConfig cfg = sweep_config(GetParam(), 77);
  const ExperimentResult result = run_experiment(cfg);
  EXPECT_TRUE(result.final_convicted.empty())
      << protocols::protocol_name(GetParam()) << " falsely convicted "
      << result.final_convicted.size() << " link(s)";
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, CleanPath,
    ::testing::Values(ProtocolKind::kFullAck, ProtocolKind::kPaai1,
                      ProtocolKind::kPaai2, ProtocolKind::kCombination1,
                      ProtocolKind::kCombination2,
                      ProtocolKind::kStatisticalFl, ProtocolKind::kSigAck),
    protocol_only_name);

class PathLengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PathLengths, Paai1LocalizesOnDifferentPathLengths) {
  const std::size_t d = GetParam();
  ExperimentConfig cfg = sweep_config(ProtocolKind::kPaai1, 300 + d);
  cfg.path.length = d;
  const std::size_t z = d / 2;
  AdversarySpec spec;
  spec.node = z;
  spec.kind = AdversarySpec::Kind::kTypeRates;
  spec.type_rates.data = 0.5;
  cfg.adversaries.push_back(spec);

  const ExperimentResult result = run_experiment(cfg);
  ASSERT_FALSE(result.final_convicted.empty());
  EXPECT_EQ(result.final_convicted.front(), z);
}

INSTANTIATE_TEST_SUITE_P(Lengths, PathLengths,
                         ::testing::Values(std::size_t{2}, std::size_t{3},
                                           std::size_t{4}, std::size_t{8},
                                           std::size_t{12}));

TEST(Protocol, LooseClockSyncDoesNotCauseFalsePositives) {
  ExperimentConfig cfg = sweep_config(ProtocolKind::kPaai1, 55);
  cfg.path.max_clock_error_ms = 2.0;
  const ExperimentResult result = run_experiment(cfg);
  EXPECT_TRUE(result.final_convicted.empty());
  // Healthy delivery despite skewed clocks: freshness windows must admit
  // all honest transit times.
  EXPECT_LT(result.observed_e2e_rate, 0.2);
}

TEST(Protocol, DeterministicForSeed) {
  ExperimentConfig cfg = paper_config(ProtocolKind::kFullAck, 1500, 9);
  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_EQ(a.final_thetas, b.final_thetas);
  EXPECT_EQ(a.observations, b.observations);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(Protocol, RealAndFastCryptoAgreeOnOutcome) {
  for (const auto kind : {ProtocolKind::kFullAck, ProtocolKind::kPaai1}) {
    ExperimentConfig cfg = sweep_config(kind, 31);
    AdversarySpec spec;
    spec.node = 3;
    spec.kind = AdversarySpec::Kind::kTypeRates;
    spec.type_rates.data = 0.5;
    cfg.adversaries.push_back(spec);
    cfg.params.total_packets = packets_for(kind) / 2;

    cfg.crypto = crypto::CryptoKind::kReal;
    const ExperimentResult real = run_experiment(cfg);
    cfg.crypto = crypto::CryptoKind::kFast;
    const ExperimentResult fast = run_experiment(cfg);
    ASSERT_FALSE(real.final_convicted.empty());
    ASSERT_FALSE(fast.final_convicted.empty());
    EXPECT_EQ(real.final_convicted.front(), 3u);
    EXPECT_EQ(fast.final_convicted.front(), 3u);
  }
}

// Cross-commit pin: a digest of every observable output of one small run
// per protocol (and per protocol branch an adversary or ablation switch
// reaches) — counters, checkpoints, verdict, thetas and overhead ratios
// as exact hex floats, and the exported event-stream bytes. The expected
// digests were recorded from the code as it stood before the protocol
// agents were folded onto shared skeletons; a refactor that moves one
// originate(), log_event() or timer by a single event fails here.
struct GoldenCase {
  const char* name;
  ProtocolKind kind;
  std::uint64_t packets;
  std::function<void(ExperimentConfig&)> tweak;
  const char* digest;
};

void PrintTo(const GoldenCase& gc, std::ostream* os) { *os << gc.name; }

AdversarySpec adversary_of(AdversarySpec::Kind kind, double rate) {
  AdversarySpec spec;
  spec.node = 3;
  spec.kind = kind;
  spec.rate = rate;
  return spec;
}

std::string hex_float(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

class GoldenRun : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenRun, OutputsMatchRecordedDigest) {
  const GoldenCase& gc = GetParam();
  ExperimentConfig cfg = paper_config(gc.kind, gc.packets, 4242);
  cfg.checkpoints = {gc.packets / 4, gc.packets / 2, gc.packets};
  if (gc.tweak) gc.tweak(cfg);
  obs::EventLog log(static_cast<std::size_t>(gc.packets) * 16 + 4096);
  cfg.path.events = &log;
  const ExperimentResult r = run_experiment(cfg);
  ASSERT_EQ(log.dropped(), 0u);

  std::ostringstream summary;
  summary << "sent=" << r.packets_sent << " obs=" << r.observations
          << " events=" << r.events_processed
          << " crossings=" << r.data_link_crossings << " checkpoints=";
  for (const auto& cp : r.checkpoints) {
    summary << cp.packets << ":";
    for (const std::size_t l : cp.convicted) summary << l << ",";
    summary << ";";
  }
  summary << " convicted=";
  for (const std::size_t l : r.final_convicted) summary << l << ",";
  summary << " thetas=";
  for (const double t : r.final_thetas) summary << hex_float(t) << ",";
  summary << " overhead=" << hex_float(r.overhead_bytes_ratio) << "/"
          << hex_float(r.overhead_packets_ratio);
  std::ostringstream jsonl;
  log.write_jsonl(jsonl);

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(
                    fnv1a(summary.str() + "\n" + jsonl.str())));
  EXPECT_EQ(std::string(digest), gc.digest)
      << summary.str() << " jsonl_bytes=" << jsonl.str().size();
}

INSTANTIATE_TEST_SUITE_P(
    Protocol, GoldenRun,
    ::testing::Values(
        GoldenCase{"full_ack", ProtocolKind::kFullAck, 600, nullptr,
                   "d35c27c075dee663"},
        GoldenCase{"PAAI_1", ProtocolKind::kPaai1, 2500, nullptr, "10b1fd4b5d185276"},
        GoldenCase{"PAAI_2", ProtocolKind::kPaai2, 1500, nullptr, "21ba5d5adfc123ce"},
        GoldenCase{"combination_1", ProtocolKind::kCombination1, 3000,
                   nullptr, "55216aea2161741b"},
        GoldenCase{"combination_2", ProtocolKind::kCombination2, 4000,
                   nullptr, "c35bbf981d131c07"},
        GoldenCase{"statistical_FL", ProtocolKind::kStatisticalFl, 2000,
                   [](ExperimentConfig& c) {
                     c.params.fl_sampling = 0.25;
                   },
                   "9e849e4c7d1bd63f"},
        GoldenCase{"sig_ack", ProtocolKind::kSigAck, 300, nullptr,
                   "2a444670d42a5ec2"},
        GoldenCase{"PAAI_1_independent_acks", ProtocolKind::kPaai1, 2500,
                   [](ExperimentConfig& c) {
                     c.params.paai1_independent_acks = true;
                   },
                   "01652edde4c02e1f"},
        GoldenCase{"PAAI_1_authenticated_probes", ProtocolKind::kPaai1, 2500,
                   [](ExperimentConfig& c) {
                     c.params.authenticated_probes = true;
                   },
                   "c88722cf3333e89b"},
        GoldenCase{"PAAI_1_dropper", ProtocolKind::kPaai1, 2500,
                   [](ExperimentConfig& c) {
                     c.adversaries.push_back(
                         adversary_of(AdversarySpec::Kind::kUniform, 0.3));
                   },
                   "4722b07b9e0c73cb"},
        GoldenCase{"full_ack_withholder", ProtocolKind::kFullAck, 600,
                   [](ExperimentConfig& c) {
                     c.adversaries.push_back(adversary_of(
                         AdversarySpec::Kind::kWithholdRelease, 0.3));
                   },
                   "e2aaf5d9ff9a6219"},
        GoldenCase{"full_ack_corrupter", ProtocolKind::kFullAck, 600,
                   [](ExperimentConfig& c) {
                     c.adversaries.push_back(
                         adversary_of(AdversarySpec::Kind::kCorrupt, 0.3));
                   },
                   "debd9994583ae951"},
        GoldenCase{"PAAI_2_withholder", ProtocolKind::kPaai2, 1500,
                   [](ExperimentConfig& c) {
                     c.adversaries.push_back(adversary_of(
                         AdversarySpec::Kind::kWithholdRelease, 0.3));
                   },
                   "2757f7614126d133"},
        GoldenCase{"PAAI_2_corrupter", ProtocolKind::kPaai2, 1500,
                   [](ExperimentConfig& c) {
                     c.adversaries.push_back(
                         adversary_of(AdversarySpec::Kind::kCorrupt, 0.3));
                   },
                   "5ea27ecc7c0f04bb"}),
    [](const ::testing::TestParamInfo<GoldenCase>& golden) {
      return std::string(golden.param.name);
    });

// Hash-once pin: the source computes H(m) and sets it on the wire
// buffer; honest relays and the destination read it. A counting decorator
// over the provider sees every hash() that is actually computed.
class CountingCrypto final : public crypto::CryptoProvider {
 public:
  explicit CountingCrypto(std::unique_ptr<crypto::CryptoProvider> inner)
      : inner_(std::move(inner)) {}

  std::array<std::uint8_t, 32> hash(ByteView message) const override {
    ++hashes_;
    return inner_->hash(message);
  }
  crypto::Mac mac(const crypto::Key& key, ByteView message) const override {
    return inner_->mac(key, message);
  }
  std::uint64_t prf(const crypto::Key& key, ByteView message) const override {
    return inner_->prf(key, message);
  }
  Bytes encrypt(const crypto::Key& key, std::uint64_t nonce,
                ByteView plaintext) const override {
    return inner_->encrypt(key, nonce, plaintext);
  }
  Bytes decrypt(const crypto::Key& key, std::uint64_t nonce,
                ByteView ciphertext) const override {
    return inner_->decrypt(key, nonce, ciphertext);
  }

  std::uint64_t hashes() const { return hashes_; }

 private:
  std::unique_ptr<crypto::CryptoProvider> inner_;
  mutable std::uint64_t hashes_ = 0;
};

/// One run of `cfg` on a counting provider: {hash() calls, packets sent}.
/// The config's link faults only move loss rates and are not applied.
std::pair<std::uint64_t, std::uint64_t> count_hashes(
    const ExperimentConfig& cfg) {
  sim::Simulator simulator;
  sim::PathNetwork net(simulator, cfg.path);
  const CountingCrypto counting(crypto::make_crypto(cfg.crypto));
  const crypto::KeyStore keys(crypto::test_master_key(cfg.path.seed),
                              net.length());
  const protocols::ProtocolContext ctx(counting, keys, net, cfg.params);
  Rng rng(cfg.path.seed);
  std::vector<std::unique_ptr<adversary::Strategy>> owned;
  std::vector<adversary::Strategy*> by_node(net.length() + 1, nullptr);
  for (const auto& spec : cfg.adversaries) {
    owned.push_back(adversary::make_strategy(spec, adversary::Environment{},
                                             rng.fork(owned.size() + 1)));
    by_node.at(spec.node) = owned.back().get();
  }
  const protocols::Scorer& source =
      protocols::install_protocol(cfg.protocol, ctx, net, by_node);
  net.start_agents();
  simulator.run();
  return {counting.hashes(), source.packets_sent()};
}

TEST(HashOnce, CleanRunHashesOncePerPacketSent) {
  for (const auto kind :
       {ProtocolKind::kFullAck, ProtocolKind::kPaai1, ProtocolKind::kPaai2,
        ProtocolKind::kCombination1, ProtocolKind::kCombination2,
        ProtocolKind::kStatisticalFl, ProtocolKind::kSigAck}) {
    const auto [hashes, sent] = count_hashes(paper_config(kind, 300, 7));
    EXPECT_EQ(sent, 300u) << protocols::protocol_name(kind);
    EXPECT_EQ(hashes, sent) << protocols::protocol_name(kind);
  }
}

TEST(HashOnce, CorruptedCopiesAreRehashed) {
  for (const auto kind : {ProtocolKind::kFullAck, ProtocolKind::kPaai2}) {
    ExperimentConfig cfg = paper_config(kind, 300, 7);
    cfg.adversaries.push_back(adversary_of(AdversarySpec::Kind::kCorrupt, 0.3));
    const auto [hashes, sent] = count_hashes(cfg);
    EXPECT_GT(hashes, sent) << protocols::protocol_name(kind);
  }
}

TEST(HashOnce, RepointedEnvelopeIsHashedNotServedTheStaleId) {
  const ExperimentConfig cfg = paper_config(ProtocolKind::kFullAck, 1, 7);
  sim::Simulator simulator;
  sim::PathNetwork net(simulator, cfg.path);
  const CountingCrypto counting(crypto::make_crypto(cfg.crypto));
  const crypto::KeyStore keys(crypto::test_master_key(cfg.path.seed),
                              net.length());
  const protocols::ProtocolContext ctx(counting, keys, net, cfg.params);

  net::DataPacket first;
  first.seq = 1;
  net::DataPacket second;
  second.seq = 2;
  const net::PacketId first_id = first.id(counting);
  const net::PacketId second_id = second.id(counting);
  ASSERT_NE(first_id, second_id);

  sim::PacketEnv env = protocols::envelope(first, sim::Direction::kToDest);
  env.wire.set_id(first_id);
  // The id lives on the buffer, so re-pointing a copy of the envelope at a
  // buffer rebuilt from bytes leaves the copy without one.
  sim::PacketEnv copy = env;
  copy.wire = sim::Wire(second.encode());
  EXPECT_EQ(copy.wire.id(), nullptr);
  ASSERT_NE(env.wire.id(), nullptr);

  const std::uint64_t before = counting.hashes();
  const auto carried = protocols::decode_fresh(ctx, net.node(1), env);
  ASSERT_TRUE(carried.has_value());
  EXPECT_EQ(carried->id, first_id);
  EXPECT_EQ(counting.hashes(), before);  // read off the buffer

  const auto fresh = protocols::decode_fresh(ctx, net.node(1), copy);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh->id, second_id);
  EXPECT_EQ(counting.hashes(), before + 1);  // hashed, not the stale id
}

}  // namespace
}  // namespace paai::runner
