// Deterministic fault injection for inter-shard transport (DESIGN.md §15).
//
// FaultInjectingInterShardChannel wraps any InterShardChannel and perturbs
// frames on their way through: drop, duplicate, and reorder (hold one frame
// and release it after the next one toward the same peer).  Every
// decision is a function of (seed, direction, frame ordinal) drawn from a
// per-direction seeded common::Rng stream — never of wall-clock time — so
// the same seed injects the same fault pattern on every run, which is what
// lets the lossy parity tests assert bit-identical results.
//
// The injector sits UNDER the reliability layer in the intended stack
//
//     ShardRuntime → ReliableInterShardChannel
//                  → FaultInjectingInterShardChannel → Loopback/Udp
//
// so injected duplicates are suppressed and injected drops repaired one
// layer up.  It also runs without the reliable layer (tests, demos); to keep
// the lock-step window barrier from wedging in that configuration, reorder
// holds additionally flush on a short timer serviced by both Send and
// Receive.
//
// Kill switch: `kill_after_frames = k` blackholes the endpoint after it has
// sent k frames — subsequent sends vanish and all further receives are
// swallowed, simulating a crashed process for StallError tests.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "netsim/inter_shard_channel.hpp"

namespace dmfsgd::netsim {

/// Fault rates for one direction of traffic.  Rates are independent
/// per-frame probabilities in [0, 1]; a frame suffers at most one fault,
/// checked in the order drop, duplicate, reorder.
struct FaultSpec {
  double drop_rate = 0.0;       ///< frame vanishes
  double duplicate_rate = 0.0;  ///< frame is delivered twice
  double reorder_rate = 0.0;    ///< frame is held and swapped with the next
};

struct FaultChannelOptions {
  FaultSpec outbound;  ///< faults applied to frames this endpoint sends
  FaultSpec inbound;   ///< faults applied to frames this endpoint receives
  /// After this endpoint has sent this many frames, it goes dark: sends are
  /// swallowed and receives return nothing.  0 disables the kill switch.
  std::uint64_t kill_after_frames = 0;
  std::uint64_t seed = 0xfa017u;  ///< root of the per-direction fault streams
};

/// Seeded, deterministic fault-injection decorator.  `inner` must outlive
/// this object.  Not thread-safe (same single-owner contract as the
/// reliability layer).
class FaultInjectingInterShardChannel final : public InterShardChannel {
 public:
  explicit FaultInjectingInterShardChannel(
      InterShardChannel& inner, FaultChannelOptions options = FaultChannelOptions());

  [[nodiscard]] std::size_t ProcessCount() const noexcept override {
    return inner_->ProcessCount();
  }
  [[nodiscard]] std::size_t ProcessIndex() const noexcept override {
    return inner_->ProcessIndex();
  }
  void Send(std::size_t to_process, std::span<const std::byte> frame) override;
  [[nodiscard]] std::optional<InterShardFrame> Receive(int timeout_ms) override;
  [[nodiscard]] const char* Name() const noexcept override { return "fault"; }
  [[nodiscard]] std::size_t MaxFrameBytes() const noexcept override {
    return inner_->MaxFrameBytes();
  }
  [[nodiscard]] ChannelDiagnostics Diagnostics() const override {
    return inner_->Diagnostics();
  }
  [[nodiscard]] std::uint64_t LivenessEpoch() const noexcept override {
    return inner_->LivenessEpoch();
  }
  /// Releases every held frame (reorder holds have nothing left to swap
  /// with), then forwards to the inner channel.  A killed endpoint
  /// discards its holds instead — a dead process ships nothing.
  bool Flush(int timeout_ms) override;

  /// True once the kill switch has tripped.
  [[nodiscard]] bool Killed() const noexcept { return killed_; }
  [[nodiscard]] std::uint64_t FramesDropped() const noexcept {
    return frames_dropped_;
  }
  [[nodiscard]] std::uint64_t FramesDuplicated() const noexcept {
    return frames_duplicated_;
  }
  [[nodiscard]] std::uint64_t FramesReordered() const noexcept {
    return frames_reordered_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  enum class Fault { kNone, kDrop, kDuplicate, kReorder };

  struct HeldFrame {
    std::size_t to_process = 0;
    std::vector<std::byte> bytes;
    Clock::time_point release;
  };

  /// Draws the fault (if any) for the next frame in `direction`'s stream.
  [[nodiscard]] Fault Draw(common::Rng& rng, const FaultSpec& spec);
  /// Ships held outbound frames whose release time passed.
  void FlushHeld(Clock::time_point now);

  InterShardChannel* inner_;
  FaultChannelOptions options_;
  std::vector<common::Rng> out_streams_;  ///< one per destination process
  std::vector<common::Rng> in_streams_;   ///< one per source process
  std::deque<HeldFrame> held_;            ///< outbound frames in the hold box
  std::deque<InterShardFrame> inbound_ready_;  ///< duplicated inbound copies
  std::optional<InterShardFrame> inbound_held_;  ///< inbound reorder hold
  std::uint64_t frames_sent_ = 0;
  bool killed_ = false;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_duplicated_ = 0;
  std::uint64_t frames_reordered_ = 0;
};

}  // namespace dmfsgd::netsim
