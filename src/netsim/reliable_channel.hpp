// Reliability decorator for inter-shard transport (DESIGN.md §15).
//
// InterShardChannel backends move frames but do not promise delivery: a
// genuinely lossy link (multi-host UDP, injected faults) loses datagrams,
// duplicates them, and reorders them.  ReliableInterShardChannel wraps any
// backend and restores the one property the window protocol cannot supply
// itself — every sent frame is eventually delivered exactly once:
//
//   * per-peer-pair sequence numbers   every data frame to a peer carries a
//     monotonically increasing seq; the receiver suppresses duplicates and
//     tracks which seqs arrived.
//   * cumulative + selective acks      every frame (data or standalone ack)
//     carries the highest seq S with all of 1..S received plus a 64-bit
//     bitmap of seqs S+1..S+64, so one reordered loss does not force the
//     whole tail to retransmit.  Acks piggyback on data frames; when the
//     receiver has nothing to send, a standalone ack flushes after
//     ack_delay_ms.
//   * timeout-driven retransmission    unacked frames resend after an RTO
//     that backs off exponentially (initial_rto_ms · kRtoGrowth^attempts,
//     capped at kMaxRtoMs) with deterministic seeded jitter (±kRtoJitter)
//     so two peers retransmitting at each other do not phase-lock.
//
// The window protocol already tolerates reordering and duplication, so the
// layer deliberately does NOT resequence: a frame is delivered the moment it
// first arrives, in whatever order the network produced.  What it adds is
// loss recovery and exactly-once delivery — which together make a
// distributed drain over a lossy link bit-identical to the lossless run.
//
// Single-threaded by design: one runtime thread owns the channel, and all
// timers (retransmit, delayed ack) are serviced inside Send and Receive —
// no background thread, no locks, deterministic fault handling in tests.
//
// Liveness: the decorator exposes LivenessEpoch(), which advances whenever
// a peer's cumulative ack moves or a new data frame arrives.  ShardRuntime
// re-arms its stall timeout on every advance, so a slow peer that is still
// draining retransmissions is "live" and only a peer whose acks stop
// advancing for the full stall timeout trips StallError.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "netsim/inter_shard_channel.hpp"

namespace dmfsgd::netsim {

/// The RTO schedule's fixed shape: each failed attempt multiplies the RTO
/// by kRtoGrowth up to kMaxRtoMs, and every RTO is scaled by a uniform
/// factor in [1 - kRtoJitter, 1 + kRtoJitter) drawn from a stream seeded
/// with kRtoJitterSeed.  The runtime's ShardRuntimeOptions::stall_timeout_s
/// must comfortably exceed kMaxRtoMs — stall detection only declares a peer
/// dead after a full timeout with no ack progress, so the two compose:
/// retransmission keeps a live-but-lossy peer's acks advancing, and the
/// stall timer fires only for a genuinely dead one.
inline constexpr int kMaxRtoMs = 2000;
inline constexpr double kRtoGrowth = 2.0;
inline constexpr double kRtoJitter = 0.25;
inline constexpr std::uint64_t kRtoJitterSeed = 0x715cu;

/// Tuning knobs of the reliability layer.  Defaults suit loopback and LAN
/// links; a WAN deployment raises initial_rto_ms toward its RTT.
struct ReliableChannelOptions {
  int initial_rto_ms = 40;    ///< first retransmit timeout per frame
  int ack_delay_ms = 20;      ///< standalone-ack flush delay when idle
};

/// Header layout shared by the encoder, the decoder, and the codec tests.
/// Data frame:  [u8 kReliableData][u64 seq][u64 ack][u64 sack][u32 len][payload]
/// Standalone ack:   [u8 kReliableAck][u64 ack][u64 sack]
/// `ack` is cumulative (all of 1..ack received); `sack` bit b set means seq
/// ack+1+b was also received.  `len` is the exact payload byte count: a
/// torn or padded frame would otherwise decode as a shorter-but-valid
/// payload, so the decoder insists on it and rejects any mismatch.  Type
/// bytes sit outside the window protocol's range (1-2) and the result
/// fold's (16-17), but that is irrelevant on the wire: the reliability
/// header wraps those payloads entirely.
inline constexpr std::uint8_t kReliableData = 0x51;
inline constexpr std::uint8_t kReliableAck = 0x52;
inline constexpr std::size_t kReliableDataHeaderBytes = 1 + 8 + 8 + 8 + 4;
inline constexpr std::size_t kReliableAckFrameBytes = 1 + 8 + 8;

/// Decoded reliability header; `payload` views into the decoded buffer for
/// data frames and is empty for standalone acks.
struct ReliableFrameView {
  std::uint8_t type = 0;
  std::uint64_t seq = 0;  ///< data frames only
  std::uint64_t cumulative_ack = 0;
  std::uint64_t sack_bitmap = 0;
  std::span<const std::byte> payload;
};

/// Encodes a data frame: header + payload.  Requires payload non-empty.
[[nodiscard]] std::vector<std::byte> EncodeReliableData(
    std::uint64_t seq, std::uint64_t cumulative_ack, std::uint64_t sack_bitmap,
    std::span<const std::byte> payload);

/// Encodes a standalone ack frame.
[[nodiscard]] std::vector<std::byte> EncodeReliableAck(
    std::uint64_t cumulative_ack, std::uint64_t sack_bitmap);

/// Decodes either frame kind.  Throws common::DecodeError on an empty frame,
/// an unknown type byte, an ack of the wrong length, a truncated header, a
/// data frame with an empty payload, seq 0 or a length field that disagrees
/// with the frame — a malformed frame must reject loudly, never misparse.
[[nodiscard]] ReliableFrameView DecodeReliableFrame(
    std::span<const std::byte> bytes);

/// Reliability decorator over any InterShardChannel.  `inner` must outlive
/// this object.  Not thread-safe: one thread owns Send and Receive (the
/// shard runtime's single drain thread), which is also what lets the timer
/// pump run without locks.
class ReliableInterShardChannel final : public InterShardChannel {
 public:
  explicit ReliableInterShardChannel(
      InterShardChannel& inner,
      ReliableChannelOptions options = ReliableChannelOptions());

  [[nodiscard]] std::size_t ProcessCount() const noexcept override {
    return inner_->ProcessCount();
  }
  [[nodiscard]] std::size_t ProcessIndex() const noexcept override {
    return inner_->ProcessIndex();
  }
  /// Ships one frame reliably: assigns the next seq toward `to_process`,
  /// records it for retransmission until acked, and piggybacks the current
  /// ack state for that peer.  Also services due timers.
  void Send(std::size_t to_process, std::span<const std::byte> frame) override;
  /// Returns the next new (never-seen) frame, servicing retransmissions,
  /// acks and duplicate suppression while it waits.  std::nullopt on
  /// timeout — which, unlike the raw backends, does NOT mean the link is
  /// idle: retransmissions may still be in flight (see LivenessEpoch).
  [[nodiscard]] std::optional<InterShardFrame> Receive(int timeout_ms) override;
  [[nodiscard]] const char* Name() const noexcept override {
    return "reliable";
  }
  /// The inner budget minus the data header this layer prepends.
  [[nodiscard]] std::size_t MaxFrameBytes() const noexcept override {
    return inner_->MaxFrameBytes() - kReliableDataHeaderBytes;
  }
  [[nodiscard]] ChannelDiagnostics Diagnostics() const override;
  [[nodiscard]] std::uint64_t LivenessEpoch() const noexcept override {
    return liveness_epoch_;
  }
  /// Retransmits and acks until every unacked frame is acknowledged and
  /// every delayed ack has shipped (false on timeout).  Data frames that
  /// arrive meanwhile queue for the next Receive.
  bool Flush(int timeout_ms) override;

  /// Frames accepted but not yet acked by `peer` (retransmission backlog).
  [[nodiscard]] std::size_t UnackedFrames(std::size_t peer) const;
  /// Total retransmissions across all peers.
  [[nodiscard]] std::uint64_t Retransmits() const noexcept;
  /// Received frames suppressed as duplicates across all peers.
  [[nodiscard]] std::uint64_t DuplicatesSuppressed() const noexcept;
  /// Standalone ack frames sent (piggybacked acks are free).
  [[nodiscard]] std::uint64_t StandaloneAcksSent() const noexcept {
    return standalone_acks_sent_;
  }
  /// Inner-channel frames whose reliability header failed to decode.
  [[nodiscard]] std::uint64_t MalformedFrames() const noexcept {
    return malformed_frames_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct PendingFrame {
    std::vector<std::byte> payload;  ///< original caller bytes, unwrapped
    Clock::time_point deadline;
    int attempts = 0;
  };
  struct PeerState {
    // Sender side (this → peer).
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, PendingFrame> unacked;  ///< seq → frame
    std::uint64_t frames_sent = 0;
    std::uint64_t retransmits = 0;
    // Receiver side (peer → this).
    std::uint64_t cumulative = 0;          ///< all of 1..cumulative delivered
    std::set<std::uint64_t> beyond;        ///< received out of order
    std::uint64_t frames_received = 0;
    std::uint64_t duplicates = 0;
    bool ack_pending = false;
    Clock::time_point ack_deadline{};
    bool heard = false;
    Clock::time_point last_heard{};
  };

  /// Current (cumulative, sack) ack pair to advertise toward `peer`.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> AckStateFor(
      const PeerState& peer) const;
  /// Applies a peer's ack report to our unacked buffer; advances the
  /// liveness epoch when anything newly acks.
  void ApplyAck(PeerState& peer, std::uint64_t cumulative,
                std::uint64_t sack_bitmap);
  /// Retransmits due frames and flushes due standalone acks; returns the
  /// next timer deadline (or a far-future time when no timer is armed).
  Clock::time_point PumpTimers(Clock::time_point now);
  /// Decodes one inner frame, applies its ack state, suppresses duplicates
  /// and schedules acks; returns the unwrapped frame when it is new data.
  [[nodiscard]] std::optional<InterShardFrame> ProcessIncoming(
      const InterShardFrame& raw);
  /// Jittered RTO for the given attempt count.
  [[nodiscard]] Clock::duration RtoFor(int attempts);
  void SendWrapped(std::size_t to_process, std::uint64_t seq,
                   std::span<const std::byte> payload);

  InterShardChannel* inner_;
  ReliableChannelOptions options_;
  common::Rng jitter_;
  std::vector<PeerState> peers_;
  std::deque<InterShardFrame> ready_;  ///< new data surfaced while flushing
  std::uint64_t liveness_epoch_ = 0;
  std::uint64_t standalone_acks_sent_ = 0;
  std::uint64_t malformed_frames_ = 0;
};

}  // namespace dmfsgd::netsim
