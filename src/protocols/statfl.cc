#include "protocols/statfl.h"

#include <cmath>

#include "crypto/sampler.h"
#include "util/wire.h"

namespace paai::protocols {

namespace {

constexpr int kMaxRequestAttempts = 4;

}  // namespace

bool statfl_counts(const ProtocolContext& ctx, std::size_t index,
                   const net::PacketId& id) {
  const crypto::Key& key = index == 0
                               ? ctx.keys().source_sampling_key()
                               : ctx.keys().fl_sampling_key(index);
  const crypto::SecureSampler sampler(ctx.crypto(), key,
                                      ctx.params().fl_sampling);
  return sampler.sampled(ByteView(id.data(), id.size()));
}

Bytes statfl_local_report(std::size_t index, std::uint64_t interval,
                          std::uint64_t count) {
  WireWriter w(1 + 8 + 4);
  w.u8(static_cast<std::uint8_t>(index));
  w.u64(interval);
  w.u32(static_cast<std::uint32_t>(count));
  return std::move(w).take();
}

// ---------------------------------------------------------------- source

bool StatFlSource::before_send(const net::PacketId& id, std::uint64_t) {
  const bool counted = statfl_counts(ctx_, 0, id);
  if (counted) ++own_count_;
  return counted;
}

void StatFlSource::after_send(const net::PacketId& id, std::uint64_t seq,
                              bool counted) {
  if (counted) record(obs::EventKind::kSampleSelect, id, seq);
  if (scorer_.packets_sent() % ctx_.params().fl_interval_packets != 0) {
    return;
  }
  // Close the interval. The request trails the interval's last data
  // packet by a timer slack so that even with per-hop jitter it cannot
  // overtake it — node snapshots stay race-free.
  const std::uint64_t closing = interval_++;
  awaiting_ = closing;
  awaiting_active_ = true;
  awaiting_own_count_ = own_count_;
  own_count_ = 0;
  node().sim().after(ctx_.timer_slack(),
                     [this, closing] { request_report(closing, 0); });
}

void StatFlSource::request_report(std::uint64_t interval, int attempt) {
  if (!awaiting_active_ || awaiting_ != interval) return;
  if (attempt >= kMaxRequestAttempts) {
    awaiting_active_ = false;
    // a = interval, b = attempts — the interval's report never arrived.
    record(obs::EventKind::kAckTimeout, interval,
           static_cast<std::uint64_t>(attempt));
    return;
  }
  net::FlRequest req;
  req.interval = interval;
  originate(node(), sim::Direction::kToDest, req);
  // a = interval, b = attempt — the FL report request plays probe here.
  record(obs::EventKind::kProbeSend, interval,
         static_cast<std::uint64_t>(attempt));
  node().sim().after(ctx_.r0() + 2 * ctx_.timer_slack(),
                     [this, interval, attempt] {
                       request_report(interval, attempt + 1);
                     });
}

void StatFlSource::on_fl_report(const net::FlReport& report) {
  if (!awaiting_active_ || report.interval != awaiting_) return;
  record(obs::EventKind::kAckRecv, report.interval, /*b=*/2);

  std::vector<std::uint64_t> counts(ctx_.d() + 1, 0);
  const std::uint64_t interval = report.interval;
  const auto result = net::onion_verify(
      ctx_.crypto(), ctx_.key_vector(), ctx_.d(),
      ByteView(report.report.data(), report.report.size()),
      [&](std::uint8_t i, ByteView r) {
        WireReader rd(r);
        std::uint8_t idx = 0;
        std::uint64_t iv = 0;
        std::uint32_t count = 0;
        if (!rd.u8(idx) || !rd.u64(iv) || !rd.u32(count) || !rd.done()) {
          return false;
        }
        if (idx != i || iv != interval) return false;
        counts[i] = count;
        return true;
      });

  record(obs::EventKind::kOnionDecode, report.interval, result.valid_layers);
  if (result.valid_layers < ctx_.d()) {
    // Broken or truncated onion: wait for a retransmission to bring a
    // complete one; the attempt counter bounds the wait.
    return;
  }

  counts[0] = awaiting_own_count_;
  for (std::size_t i = 0; i <= ctx_.d(); ++i) {
    // One kFlCount per node, in ascending order, so a stream consumer
    // can rebuild the accumulators without decoding the onion itself.
    record(obs::EventKind::kFlCount, report.interval, counts[i],
           static_cast<std::int32_t>(i));
  }
  awaiting_active_ = false;
  // a = interval; the Scorer sets b = intervals folded in so far.
  record(obs::EventKind::kScoreClean, report.interval);
}

// ----------------------------------------------------------------- relay

void StatFlRelay::on_packet(const sim::PacketEnv& env) {
  const auto type = net::peek_type(env.view());
  if (!type) return;

  switch (*type) {
    case net::PacketType::kData: {
      const auto data = decode_fresh(ctx(), node(), env);
      if (!data) return;
      if (statfl_counts(ctx(), node().index(), data->id)) ++count_;
      relay(env);
      break;
    }
    case net::PacketType::kFlRequest: {
      const auto req = net::FlRequest::decode(env.view());
      if (!req) return;
      if (snapshot_interval_ != req->interval) {
        // First request for this interval: snapshot and reset the counter
        // (retransmitted requests reuse the snapshot).
        snapshot_ = count_;
        count_ = 0;
        snapshot_interval_ = req->interval;
      }
      relay(env);
      break;
    }
    case net::PacketType::kFlReport: {
      const auto report = net::FlReport::decode(env.view());
      if (!report || report->interval != snapshot_interval_) return;
      const Bytes local =
          statfl_local_report(node().index(), snapshot_interval_, snapshot_);
      net::FlReport wrapped;
      wrapped.interval = report->interval;
      wrapped.report = onion_layer(
          ctx(), node().index(), ByteView(local.data(), local.size()),
          ByteView(report->report.data(), report->report.size()));
      relay(envelope(wrapped, sim::Direction::kToSource));
      break;
    }
    default:
      relay(env);
      break;
  }
}

// ----------------------------------------------------------- destination

void StatFlDestination::on_packet(const sim::PacketEnv& env) {
  const auto type = net::peek_type(env.view());
  if (!type) return;

  if (*type == net::PacketType::kData) {
    const auto data = decode_fresh(ctx_, node(), env);
    if (!data) return;
    if (statfl_counts(ctx_, ctx_.d(), data->id)) ++count_;
  } else if (*type == net::PacketType::kFlRequest) {
    const auto req = net::FlRequest::decode(env.view());
    if (!req) return;
    // The destination snapshots and immediately originates the onion.
    // Retransmitted requests re-originate from the same snapshot.
    if (last_interval_ != req->interval) {
      last_snapshot_ = count_;
      count_ = 0;
      last_interval_ = req->interval;
    }
    const Bytes local =
        statfl_local_report(ctx_.d(), req->interval, last_snapshot_);
    net::FlReport report;
    report.interval = req->interval;
    report.report =
        onion_layer(ctx_, ctx_.d(), ByteView(local.data(), local.size()));
    originate(node(), sim::Direction::kToSource, report);
  }
}

}  // namespace paai::protocols
