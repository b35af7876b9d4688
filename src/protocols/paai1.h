// PAAI-1 (§6.1): probabilistic sampling of *which data packets* to probe.
//
// Phase 1 — the source sends m = <data || timestamp>; each node checks
//   freshness, stores H(m), and forwards. The source's secure-sampling
//   algorithm (a PRF keyed with a source-private key) marks m for probing
//   with probability p; nothing on the wire reveals the decision.
// Phase 2 — for a sampled packet, the source sends the probe c = H(m)
//   after a delay that *exceeds* the freshness window, so a node cannot
//   withhold m until it learns whether m is monitored (§5).
// Phase 3 — nodes holding H(m) return an onion report; a node whose
//   downstream stayed silent past its wait-timer originates the report.
// Phase 4/5 — the source verifies the onion, blames the link after the
//   last valid layer, and convicts links whose estimated drop rate
//   exceeds the threshold.
//
// Wait-timer nesting: node F_i waits r_i + slack. Because the r_i bounds
// differ by two hop latencies plus a per-hop allowance, a downstream
// node's timed-out report always arrives before its upstream neighbour's
// own timer fires — honest nodes never race each other into
// mislocalization (asserted by tests/paai1_test.cc).
#pragma once

#include "crypto/sampler.h"
#include "protocols/agent.h"
#include "protocols/relay_base.h"

namespace paai::protocols {

class Paai1Source final : public SourceAgent<Paai1Source> {
 public:
  explicit Paai1Source(const ProtocolContext& ctx)
      : SourceAgent(ctx, ProtocolKind::kPaai1),
        sampler_(ctx.crypto(), ctx.keys().source_sampling_key(),
                 ctx.params().probe_probability) {}

 private:
  friend SourceAgent;

  bool before_send(const net::PacketId&, std::uint64_t) { return false; }
  void after_send(const net::PacketId& id, std::uint64_t seq, bool);
  void send_probe_for(const net::PacketId& id);
  void on_probe_timeout(const net::PacketId& id);
  void on_report(const net::ReportAck& ack);
  void on_independent_report(const net::ReportAck& ack);

  crypto::SecureSampler sampler_;
};

class Paai1Relay final : public OnionRelay {
 public:
  explicit Paai1Relay(const ProtocolContext& ctx)
      : OnionRelay(ctx, /*paai1=*/true) {}
};

class Paai1Destination final : public sim::Agent {
 public:
  explicit Paai1Destination(const ProtocolContext& ctx)
      : ctx_(ctx), pending_(nullptr) {}

  void start() override;
  void on_packet(const sim::PacketEnv& env) override;

 private:
  struct DState {};

  const ProtocolContext& ctx_;
  PendingStore<DState> pending_;
};

/// The PAAI-1 local report R_i = <i || H(m)> (uniform for relays and D).
Bytes paai1_local_report(std::size_t index, const net::PacketId& id);

/// Checks a received layer's report against R_i = <i || H(m)>.
bool paai1_report_ok(std::uint8_t index, ByteView report,
                     const net::PacketId& id);

/// Independent-ack ablation mode: a free-standing per-node ack
/// <i || [i || H(m)]_{K_i}> (no onion nesting).
Bytes paai1_independent_report(const crypto::CryptoProvider& crypto,
                               const crypto::Key& key, std::size_t index,
                               const net::PacketId& id);

/// Footnote-7 probe authentication: builds the MAC chain the source
/// attaches (tag i = [i || H(m) || Z]_{K_i} at offset (i-1)*8) and the
/// check each node applies before acting on a probe.
Bytes build_probe_auth(const ProtocolContext& ctx, const net::Probe& probe);
bool verify_probe_auth(const ProtocolContext& ctx, const net::Probe& probe,
                       std::size_t index);

}  // namespace paai::protocols
