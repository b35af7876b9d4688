// PAAI-2 (§6.2): probabilistic sampling of *which node* acknowledges.
//
// Phase 1 — the destination acks every data packet (a_d = [H(m)]_{K_d});
//   relays store H(m) and keep a copy of a_d when it passes.
// Phase 2 — if a_d goes missing, the source probes with a random
//   challenge Z. Each node evaluates a PRF_{K_i} predicate T_i over the
//   probe that fires with probability 1/(d-i+1); the *selected* node is
//   the first that fires, which makes the selection uniform on {1..d} and
//   — because the PRF is keyed per node — invisible to everyone else.
// Phase 3 — the selected node F_e returns an *encrypted* report
//   A_e = E_{K_e}([e || c || a_d]_{K_e}); every upstream node re-encrypts
//   (A_i = E_{K_i}(A_{i+1})) or, if itself sampled, overwrites with its
//   own report. Acks therefore have constant size and are unlinkable to
//   the selected node (the obliviousness property). The overwrite rule is
//   also a defense: a forged ack injected downstream of F_e gets replaced
//   with the truth as it passes F_e.
// Phase 4 — the source (which can evaluate every predicate itself) peels
//   E_{K_1}..E_{K_e} and compares against the two expected tags (a_d seen
//   / not seen). A mismatch or a missing report means at least one drop
//   in [l_0, l_{e-1}]: each link of that prefix gains a score point.
// Phase 5 — per-link rates are recovered from adjacent prefix-failure
//   differences (see Paai2ScoreTable) and compared to the threshold.
#pragma once

#include "crypto/sampler.h"
#include "protocols/agent.h"
#include "protocols/relay_base.h"

namespace paai::protocols {

struct Paai2Round {
  bool probed = false;
  std::size_t selected = 0;
  sim::Wire probe_wire;  // the probe as sent
};

class Paai2Source : public SourceAgent<Paai2Source, Paai2Round> {
 public:
  explicit Paai2Source(const ProtocolContext& ctx)
      : Paai2Source(ctx, /*sampled_mode=*/false) {}

 protected:
  /// sampled_mode = Combination 2 (§10): only a K_d-keyed sampled fraction
  /// of the traffic is monitored at all.
  Paai2Source(const ProtocolContext& ctx, bool sampled_mode);

 private:
  friend SourceAgent;

  bool before_send(const net::PacketId& id, std::uint64_t seq);
  void after_send(const net::PacketId& id, std::uint64_t seq, bool monitored);
  void on_ack_timeout(const net::PacketId& id);
  void on_probe_timeout(const net::PacketId& id);
  void on_dest_ack(const net::DestAck& ack);
  void on_report(const net::ReportAck& ack);

  bool sampled_mode_;
  crypto::SecureSampler monitor_sampler_;
  std::uint64_t challenge_counter_ = 0;
};

/// Combination 2 uses this relay unchanged: an early state release on
/// ack sight, which §10 hints at, is unsound — relays cannot
/// authenticate a_d (see the note in on_packet).
class Paai2Relay final : public RelayBase {
 public:
  explicit Paai2Relay(const ProtocolContext& ctx)
      : RelayBase(ctx), pending_(nullptr) {}

  void start() override;
  void on_packet(const sim::PacketEnv& env) override;

 private:
  struct RState {
    bool have_ad = false;
    bool probe_seen = false;
    bool sampled = false;
    bool responded = false;
    crypto::Mac ad_tag{};
    // The probe as received; empty (an empty view) when none was
    // recorded, e.g. after a replayed data packet reset the entry.
    sim::Wire probe_wire;
  };

  void on_wait_timeout(const net::PacketId& id);
  void send_own_report(const net::PacketId& id, RState& st);

  PendingStore<RState> pending_;
};

class Paai2Destination : public sim::Agent {
 public:
  explicit Paai2Destination(const ProtocolContext& ctx)
      : Paai2Destination(ctx, /*ack_only_sampled=*/false) {}

  void start() override;
  void on_packet(const sim::PacketEnv& env) override;

 protected:
  Paai2Destination(const ProtocolContext& ctx, bool ack_only_sampled);

 private:
  struct DState {};

  const ProtocolContext& ctx_;
  bool ack_only_sampled_;
  crypto::SecureSampler monitor_sampler_;
  PendingStore<DState> pending_;
};

/// Authenticator [i || c]_{K_i}: MAC over the node index and the full
/// probe bytes. Scoring depends only on this part.
crypto::Mac paai2_report_tag(const crypto::CryptoProvider& crypto,
                             const crypto::Key& key, std::size_t index,
                             ByteView probe_bytes);

/// Fixed-size report plaintext: [i || c]_{K_i} || flag || a_d-tag.
/// The destination-ack copy rides *alongside* the MAC, not inside it: a
/// node stores a_d without being able to authenticate it, so folding its
/// value into the MAC would let an adversary corrupt passing acks and
/// thereby invalidate honest nodes' reports (incriminating the honest
/// prefix). The source scores on the authenticator alone.
constexpr std::size_t kPaai2ReportSize = crypto::kMacSize + 1 + crypto::kMacSize;
Bytes paai2_report_plaintext(const crypto::CryptoProvider& crypto,
                             const crypto::Key& key, std::size_t index,
                             ByteView probe_bytes,
                             const crypto::Mac* ad_tag);

/// Per-layer encryption nonce, derived from the packet id and the node
/// index so that source and node agree without extra wire bytes.
std::uint64_t paai2_layer_nonce(const net::PacketId& id, std::size_t index);

}  // namespace paai::protocols
