#include "netsim/reliable_channel.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/bytes.hpp"

namespace dmfsgd::netsim {

namespace {

constexpr auto kFarFuture = std::chrono::steady_clock::time_point::max();

}  // namespace

std::vector<std::byte> EncodeReliableData(std::uint64_t seq,
                                          std::uint64_t cumulative_ack,
                                          std::uint64_t sack_bitmap,
                                          std::span<const std::byte> payload) {
  if (payload.empty()) {
    throw std::invalid_argument("EncodeReliableData: empty payload");
  }
  common::ByteWriter out(kReliableDataHeaderBytes + payload.size());
  out.U8(kReliableData);
  out.U64(seq);
  out.U64(cumulative_ack);
  out.U64(sack_bitmap);
  out.U32(static_cast<std::uint32_t>(payload.size()));
  out.Bytes(payload);
  return out.Take();
}

std::vector<std::byte> EncodeReliableAck(std::uint64_t cumulative_ack,
                                         std::uint64_t sack_bitmap) {
  common::ByteWriter out(kReliableAckFrameBytes);
  out.U8(kReliableAck);
  out.U64(cumulative_ack);
  out.U64(sack_bitmap);
  return out.Take();
}

ReliableFrameView DecodeReliableFrame(std::span<const std::byte> bytes) {
  common::ByteReader reader(bytes);
  ReliableFrameView view;
  view.type = reader.U8();
  if (view.type == kReliableAck) {
    if (bytes.size() != kReliableAckFrameBytes) {
      throw common::DecodeError(
          "DecodeReliableFrame: ack frame has the wrong length");
    }
    view.cumulative_ack = reader.U64();
    view.sack_bitmap = reader.U64();
    return view;
  }
  if (view.type != kReliableData) {
    throw common::DecodeError("DecodeReliableFrame: unknown frame type");
  }
  if (bytes.size() <= kReliableDataHeaderBytes) {
    // A header with no payload is as malformed as a truncated header: Send
    // never accepts empty frames, so nothing legitimate encodes this way.
    throw common::DecodeError("DecodeReliableFrame: truncated data frame");
  }
  view.seq = reader.U64();
  if (view.seq == 0) {
    throw common::DecodeError("DecodeReliableFrame: data frame with seq 0");
  }
  view.cumulative_ack = reader.U64();
  view.sack_bitmap = reader.U64();
  if (reader.U32() != bytes.size() - kReliableDataHeaderBytes) {
    // A torn tail would otherwise pass as a shorter valid payload.
    throw common::DecodeError(
        "DecodeReliableFrame: payload length does not match the frame");
  }
  view.payload = reader.Bytes(bytes.size() - kReliableDataHeaderBytes);
  return view;
}

// ------------------------------------------------------------------------

ReliableInterShardChannel::ReliableInterShardChannel(
    InterShardChannel& inner, ReliableChannelOptions options)
    : inner_(&inner), options_(options), jitter_(options.seed) {
  if (options_.initial_rto_ms <= 0 || options_.max_rto_ms <= 0 ||
      options_.ack_delay_ms <= 0) {
    throw std::invalid_argument(
        "ReliableInterShardChannel: timer intervals must be positive");
  }
  // Written so NaN fails: a NaN backoff or jitter reaches RtoFor's integer
  // conversion, which is undefined for NaN.
  if (!(options_.backoff >= 1.0)) {
    throw std::invalid_argument(
        "ReliableInterShardChannel: backoff must be >= 1");
  }
  if (!(options_.jitter_frac >= 0.0 && options_.jitter_frac < 1.0)) {
    throw std::invalid_argument(
        "ReliableInterShardChannel: jitter_frac must be in [0, 1)");
  }
  if (inner_->MaxFrameBytes() <= kReliableDataHeaderBytes) {
    throw std::invalid_argument(
        "ReliableInterShardChannel: inner frame budget leaves no payload room");
  }
  peers_.resize(inner_->ProcessCount());
}

std::pair<std::uint64_t, std::uint64_t>
ReliableInterShardChannel::AckStateFor(const PeerState& peer) const {
  std::uint64_t sack = 0;
  for (const std::uint64_t seq : peer.beyond) {
    const std::uint64_t offset = seq - peer.cumulative - 1;
    if (offset >= 64) {
      break;  // beyond is ordered; the rest are past the bitmap window
    }
    sack |= std::uint64_t{1} << offset;
  }
  return {peer.cumulative, sack};
}

void ReliableInterShardChannel::ApplyAck(PeerState& peer,
                                         std::uint64_t cumulative,
                                         std::uint64_t sack_bitmap) {
  bool advanced = false;
  auto it = peer.unacked.begin();
  while (it != peer.unacked.end() && it->first <= cumulative) {
    it = peer.unacked.erase(it);
    advanced = true;
  }
  for (std::uint64_t bit = 0; bit < 64 && sack_bitmap >> bit; ++bit) {
    if ((sack_bitmap >> bit) & 1u) {
      advanced |= peer.unacked.erase(cumulative + 1 + bit) > 0;
    }
  }
  if (advanced) {
    ++liveness_epoch_;
  }
}

ReliableInterShardChannel::Clock::duration ReliableInterShardChannel::RtoFor(
    int attempts) {
  double rto_ms = static_cast<double>(options_.initial_rto_ms);
  for (int a = 0; a < attempts && rto_ms < options_.max_rto_ms; ++a) {
    rto_ms *= options_.backoff;
  }
  rto_ms = std::min(rto_ms, static_cast<double>(options_.max_rto_ms));
  // Deterministic jitter (seeded stream): ±jitter_frac, never below 1 ms.
  rto_ms *= 1.0 + options_.jitter_frac * (2.0 * jitter_.Uniform() - 1.0);
  return std::chrono::milliseconds(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(rto_ms)));
}

void ReliableInterShardChannel::SendWrapped(std::size_t to_process,
                                            std::uint64_t seq,
                                            std::span<const std::byte> payload) {
  PeerState& peer = peers_[to_process];
  const auto [cumulative, sack] = AckStateFor(peer);
  inner_->Send(to_process, EncodeReliableData(seq, cumulative, sack, payload));
  peer.ack_pending = false;  // the data frame piggybacked the freshest ack
}

void ReliableInterShardChannel::Send(std::size_t to_process,
                                     std::span<const std::byte> frame) {
  RequireSendable(to_process, frame);
  (void)PumpTimers(Clock::now());
  PeerState& peer = peers_[to_process];
  const std::uint64_t seq = peer.next_seq++;
  PendingFrame pending;
  pending.payload.assign(frame.begin(), frame.end());
  pending.attempts = 1;
  pending.deadline = Clock::now() + RtoFor(0);
  SendWrapped(to_process, seq, pending.payload);
  peer.unacked.emplace(seq, std::move(pending));
  ++peer.frames_sent;
}

ReliableInterShardChannel::Clock::time_point
ReliableInterShardChannel::PumpTimers(Clock::time_point now) {
  Clock::time_point next = kFarFuture;
  for (std::size_t p = 0; p < peers_.size(); ++p) {
    if (p == ProcessIndex()) {
      continue;
    }
    PeerState& peer = peers_[p];
    for (auto& [seq, pending] : peer.unacked) {
      if (pending.deadline <= now) {
        SendWrapped(p, seq, pending.payload);
        pending.deadline = now + RtoFor(pending.attempts);
        ++pending.attempts;
        ++peer.retransmits;
      }
      next = std::min(next, pending.deadline);
    }
    if (peer.ack_pending) {
      if (peer.ack_deadline <= now) {
        const auto [cumulative, sack] = AckStateFor(peer);
        inner_->Send(p, EncodeReliableAck(cumulative, sack));
        peer.ack_pending = false;
        ++standalone_acks_sent_;
      } else {
        next = std::min(next, peer.ack_deadline);
      }
    }
  }
  return next;
}

std::optional<InterShardFrame> ReliableInterShardChannel::ProcessIncoming(
    const InterShardFrame& raw) {
  PeerState& peer = peers_[raw.from_process];
  ReliableFrameView view;
  try {
    view = DecodeReliableFrame(raw.bytes);
  } catch (const common::DecodeError&) {
    ++malformed_frames_;
    return std::nullopt;
  }
  peer.heard = true;
  peer.last_heard = Clock::now();
  ApplyAck(peer, view.cumulative_ack, view.sack_bitmap);
  if (view.type == kReliableAck) {
    return std::nullopt;  // pure ack: no frame to surface
  }
  const bool duplicate =
      view.seq <= peer.cumulative || peer.beyond.count(view.seq) > 0;
  // Schedule an ack either way: a duplicate means our previous ack was
  // lost (or is still in flight), and re-acking is what stops the
  // sender's retransmit timer.
  if (!peer.ack_pending) {
    peer.ack_pending = true;
    peer.ack_deadline =
        Clock::now() + std::chrono::milliseconds(options_.ack_delay_ms);
  }
  if (duplicate) {
    ++peer.duplicates;
    return std::nullopt;
  }
  if (view.seq == peer.cumulative + 1) {
    ++peer.cumulative;
    while (!peer.beyond.empty() &&
           *peer.beyond.begin() == peer.cumulative + 1) {
      peer.beyond.erase(peer.beyond.begin());
      ++peer.cumulative;
    }
  } else {
    peer.beyond.insert(view.seq);
  }
  ++peer.frames_received;
  ++liveness_epoch_;
  return InterShardFrame{
      raw.from_process,
      std::vector<std::byte>(view.payload.begin(), view.payload.end())};
}

std::optional<InterShardFrame> ReliableInterShardChannel::Receive(
    int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (!ready_.empty()) {
      InterShardFrame frame = std::move(ready_.front());
      ready_.pop_front();
      return frame;
    }
    const auto now = Clock::now();
    const Clock::time_point next_timer = PumpTimers(now);
    // Wait only until the earlier of the caller's deadline and the next
    // retransmit/ack timer, so a blocked gather still drives the pumps.
    const Clock::time_point wake = std::min(deadline, next_timer);
    const auto wait_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        wake - now);
    auto raw = inner_->Receive(
        static_cast<int>(std::clamp<std::int64_t>(wait_ms.count(), 0, 1000)));
    if (!raw.has_value()) {
      if (Clock::now() >= deadline) {
        return std::nullopt;
      }
      continue;
    }
    if (auto frame = ProcessIncoming(*raw)) {
      return frame;
    }
  }
}

bool ReliableInterShardChannel::Flush(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto now = Clock::now();
    // A flushing endpoint is going quiet: there is no future data frame to
    // piggyback an ack on, so the usual ack delay only stalls the peer's own
    // settle. Expire pending acks now and let PumpTimers ship them.
    for (std::size_t p = 0; p < peers_.size(); ++p) {
      if (p != ProcessIndex() && peers_[p].ack_pending) {
        peers_[p].ack_deadline = now;
      }
    }
    const Clock::time_point next_timer = PumpTimers(now);
    bool busy = false;
    for (const PeerState& peer : peers_) {
      busy |= !peer.unacked.empty() || peer.ack_pending;
    }
    if (!busy) {
      return true;
    }
    if (now >= deadline) {
      return false;
    }
    const Clock::time_point wake = std::min(deadline, next_timer);
    const auto wait_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
        wake - now);
    auto raw = inner_->Receive(
        static_cast<int>(std::clamp<std::int64_t>(wait_ms.count(), 0, 1000)));
    if (raw.has_value()) {
      if (auto frame = ProcessIncoming(*raw)) {
        ready_.push_back(std::move(*frame));
      }
    }
  }
}

ChannelDiagnostics ReliableInterShardChannel::Diagnostics() const {
  ChannelDiagnostics diagnostics = inner_->Diagnostics();
  diagnostics.peers.resize(peers_.size());
  const auto now = Clock::now();
  for (std::size_t p = 0; p < peers_.size(); ++p) {
    const PeerState& peer = peers_[p];
    PeerChannelStats& stats = diagnostics.peers[p];
    stats.frames_sent = peer.frames_sent;
    stats.frames_received = peer.frames_received;
    stats.retransmits = peer.retransmits;
    stats.duplicates_suppressed = peer.duplicates;
    stats.unacked_frames = peer.unacked.size();
    stats.seconds_since_heard =
        peer.heard ? std::chrono::duration<double>(now - peer.last_heard).count()
                   : -1.0;
  }
  return diagnostics;
}

std::size_t ReliableInterShardChannel::UnackedFrames(std::size_t peer) const {
  return peers_.at(peer).unacked.size();
}

std::uint64_t ReliableInterShardChannel::Retransmits() const noexcept {
  std::uint64_t total = 0;
  for (const PeerState& peer : peers_) {
    total += peer.retransmits;
  }
  return total;
}

std::uint64_t ReliableInterShardChannel::DuplicatesSuppressed() const noexcept {
  std::uint64_t total = 0;
  for (const PeerState& peer : peers_) {
    total += peer.duplicates;
  }
  return total;
}

}  // namespace dmfsgd::netsim
