// The asymmetric-cryptography AAI variant (footnote 1).
//
// "A fairly simple AAI protocol that employs asymmetric key cryptography
// exists ... protocols employing asymmetric key cryptography are generally
// undesirable due to their high per-packet computation and communication
// overhead."
//
// We build it so that claim can be measured instead of assumed. Structure
// mirrors the full-ack scheme, but every acknowledgement is a one-time
// hash-based signature (W-OTS, crypto/wots.h) instead of a MAC:
//   * the destination signs an ack for every data packet;
//   * on a miss, the source probes and every state-holding node answers
//     with an *independently signed* report (signatures are publicly
//     verifiable and unforgeable by other nodes, so no onion nesting is
//     needed for authenticity — though, as bench_ablation shows for
//     independent acks generally, suppression-based framing returns; the
//     asymmetric variant inherits that weakness too);
//   * per-ack key index = the packet sequence number, with the verifier
//     reconstructing the expected one-time public key from the node's
//     registered seed (standing in for Merkle-tree key registration).
//
// The measured price (bench_asymmetric): ~2.1 KB of signature per ack —
// two orders of magnitude over the 8-byte MACs — plus ~10^3 hash
// compressions per signing/verification.
#pragma once

#include "crypto/wots.h"
#include "protocols/agent.h"
#include "protocols/relay_base.h"

namespace paai::protocols {

class SigAckSource final : public SourceAgent<SigAckSource> {
 public:
  explicit SigAckSource(const ProtocolContext& ctx)
      : SourceAgent(ctx, ProtocolKind::kSigAck) {}

 private:
  friend SourceAgent;

  bool before_send(const net::PacketId& id, std::uint64_t seq);
  void after_send(const net::PacketId& id, std::uint64_t seq, bool);
  void on_probe_timeout(const net::PacketId& id);
  void on_report(const net::ReportAck& ack);
};

class SigAckRelay final : public RelayBase {
 public:
  explicit SigAckRelay(const ProtocolContext& ctx)
      : RelayBase(ctx), pending_(nullptr) {}

  void start() override;
  void on_packet(const sim::PacketEnv& env) override;

 private:
  struct RState {
    std::uint64_t seq = 0;
  };

  PendingStore<RState> pending_;
};

class SigAckDestination final : public sim::Agent {
 public:
  explicit SigAckDestination(const ProtocolContext& ctx)
      : ctx_(ctx), pending_(nullptr) {}

  void start() override;
  void on_packet(const sim::PacketEnv& env) override;

 private:
  struct DState {
    std::uint64_t seq = 0;
  };

  const ProtocolContext& ctx_;
  PendingStore<DState> pending_;
};

/// Signed report <i || seq || WOTS-sig over (i || H(m))>; the signing key
/// is (node seed, seq).
Bytes sigack_report(const crypto::Key& node_seed, std::size_t index,
                    std::uint64_t seq, const net::PacketId& id);

/// Verifies a signed report against the reconstructed one-time public key;
/// on success returns the signer's index.
std::optional<std::size_t> sigack_verify(const ProtocolContext& ctx,
                                         ByteView report,
                                         const net::PacketId& id);

}  // namespace paai::protocols
