// Multi-process windowed drain of a ShardedEventQueue (DESIGN.md §12).
//
// Each participating process owns a contiguous shard range of one replicated
// ShardedEventQueue (every process performs the same deterministic
// construction, then drains only its own shards).  ShardRuntime runs the
// conservative-window loop in lock step across processes:
//
//   1. propose  — every process broadcasts the earliest pending event time
//                 of each shard it owns; everyone assembles the same global
//                 min vector, so everyone computes the same window horizons
//                 (ShardedEventQueue::ConservativeWindowEnds, per-shard-pair
//                 lookaheads) and the same termination decision.
//   2. drain    — every process drains its owned shards for the window.
//                 Cross-shard events bound for a peer's shard were stamped
//                 by ScheduleRemote with the source lane's sequence.
//   3. barrier  — every process sends every peer exactly one event batch
//                 (chunked if large, possibly empty): receiving all peers'
//                 batches both delivers the remote events and *is* the
//                 window barrier.  Stamps make injection order irrelevant.
//
// Because shard-local event sequences, lane sequence numbers and per-owner
// handler state are all pure functions of the same construction and the
// same delivered events, a distributed drain is bit-identical to the
// single-process windowed drain of the same queue — window for window,
// event for event.  With ProcessCount() == 1 the runtime degenerates to the
// in-process drain and never touches the channel.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "netsim/event_queue.hpp"
#include "netsim/inter_shard_channel.hpp"

namespace dmfsgd::common {
class ThreadPool;
}

namespace dmfsgd::netsim {

/// Validated at ShardRuntime construction: receive_poll_ms and
/// stall_timeout_s must be positive (std::invalid_argument otherwise).
struct ShardRuntimeOptions {
  int receive_poll_ms = 50;  ///< per-Receive wait while gathering
  /// Give up (throw StallError) after this long with neither a frame nor
  /// liveness progress from the channel.  When the channel is a
  /// ReliableInterShardChannel, set this comfortably above its max_rto_ms:
  /// retransmission keeps a live-but-lossy peer's acks advancing (which
  /// re-arms this timeout via LivenessEpoch), so the stall timer fires only
  /// for a peer that is genuinely gone — not one mid-backoff.
  double stall_timeout_s = 60.0;
  /// Byte budget per event-batch frame.  The default fills whole datagrams;
  /// a multi-host deployment tunes this toward the path MTU (~1400) to
  /// avoid IP fragmentation, which is when envelope coalescing visibly
  /// shrinks the frame count.  Clamped to [256, channel.MaxFrameBytes()] —
  /// the channel's budget, not the constant, since a reliability decorator
  /// reserves header room out of every frame.
  std::size_t max_frame_bytes = kMaxFrameBytes;
};

/// A peer went silent past the stall timeout.  Unlike the bare
/// runtime_error it replaces, the error carries enough to diagnose *which*
/// peer died and *what* the transport saw: the window and gather phase the
/// runtime was blocked in, per-peer protocol-frame counts, and the
/// channel's transport-level diagnostics (retransmit backlogs, last-heard
/// ages, dropped/stray datagram counts).  what() renders all of it.
class StallError : public std::runtime_error {
 public:
  StallError(std::uint64_t window_id, std::string phase,
             std::vector<std::uint64_t> frames_received_from,
             ChannelDiagnostics diagnostics);

  /// Window the runtime was gathering when the timeout fired.
  [[nodiscard]] std::uint64_t WindowId() const noexcept { return window_id_; }
  /// Which gather blocked: "propose", "event-batch", or the phase a higher
  /// layer passed to ShardRuntime::Receive ("result-fold").
  [[nodiscard]] const std::string& Phase() const noexcept { return phase_; }
  /// Protocol frames the blocked receive loop accepted from each process
  /// since construction; a dead peer's entry stops advancing.
  [[nodiscard]] const std::vector<std::uint64_t>& FramesReceivedFrom()
      const noexcept {
    return frames_received_from_;
  }
  /// Transport snapshot taken when the stall fired.
  [[nodiscard]] const ChannelDiagnostics& Diagnostics() const noexcept {
    return diagnostics_;
  }

 private:
  std::uint64_t window_id_;
  std::string phase_;
  std::vector<std::uint64_t> frames_received_from_;
  ChannelDiagnostics diagnostics_;
};

class ShardRuntime {
 public:
  /// Re-materializes the callback of a remote event from its payload; the
  /// scheduling layer that called ScheduleRemote provides the inverse (the
  /// async simulation decodes a wire message or a batch frame of them and
  /// hands it to the engine's sink).
  using RemoteEventDecoder = std::function<ShardedEventQueue::Callback(
      ShardedEventQueue::OwnerId owner, std::vector<std::byte> payload)>;

  using Options = ShardRuntimeOptions;

  /// Merges several same-destination, same-time remote-event payloads into
  /// one batch payload, or declines (nullopt) when the group is not safely
  /// mergeable — the scheduling layer knows which payload kinds have
  /// emission-free handlers (DESIGN.md §13: replies; the pair lives in
  /// ShardedEventQueueDeliveryChannel::MergeEnvelopesIfReplies /
  /// DecodeEnvelopeCallback).  The runtime itself stays payload-agnostic:
  /// declined groups ship as the original individual events.
  using RemoteEventMerger = std::function<std::optional<std::vector<std::byte>>(
      std::span<const std::vector<std::byte>> payloads)>;

  /// Assigns shard ownership: process p of channel.ProcessCount() owns
  /// BlockRange(queue.ShardCount(), ProcessCount(), p) and the queue's owned
  /// range is set accordingly.  Requires queue.ShardCount() >=
  /// channel.ProcessCount(), lookaheads sized to the queue and a non-empty
  /// decoder.  `queue` and `channel` must outlive the runtime.
  ShardRuntime(ShardedEventQueue& queue, InterShardChannel& channel,
               LookaheadMatrix lookaheads, RemoteEventDecoder decoder,
               Options options = Options());

  /// Runs the lock-step window loop until every shard's pending events lie
  /// beyond `until_s`, then advances queue time to until_s.  Returns the
  /// events executed locally.  Throws StallError if a peer stalls past
  /// Options::stall_timeout_s with no liveness progress, and
  /// std::logic_error on protocol desynchronization (a peer at a different
  /// window) or lookahead violations.
  std::uint64_t RunUntil(double until_s, common::ThreadPool& pool);

  /// Windows executed by the last RunUntil calls (mirrors the queue's
  /// counter; every process counts the same windows).
  [[nodiscard]] std::uint64_t WindowsExecuted() const noexcept {
    return queue_->WindowsExecuted();
  }

  /// Installs the per-window coalescing of cross-process events: before the
  /// barrier ships a window's remote events, runs with identical
  /// (owner, time) — concurrently produced messages bound for one node,
  /// e.g. a probe burst's replies — are folded into a single stamped
  /// event carrying the merger's combined payload.  The surviving stamp
  /// is the group's least (lane, seq) key, so the batch executes exactly
  /// where its first message would have (DESIGN.md §13); fewer events cross
  /// the channel, and under an MTU-sized max_frame_bytes, fewer frames.
  /// Every process must install the same merger (or none) — a mixed fleet
  /// would disagree on event counts.  Pass nullptr to uninstall.
  void SetRemoteEventMerger(RemoteEventMerger merger) {
    merger_ = std::move(merger);
  }

  /// Frames this runtime shipped through the channel (proposals + event
  /// chunks) — what envelope coalescing and max_frame_bytes trade against.
  [[nodiscard]] std::uint64_t FramesSent() const noexcept {
    return frames_sent_;
  }

  /// The receive for a higher layer that keeps using the channel after
  /// RunUntil (the coordinator's result fold): returns first the frames the
  /// window loop received but did not own (a fold frame racing ahead of a
  /// slow peer's last barrier), then reads the channel under this runtime's
  /// receive_poll_ms and stall_timeout_s.  Throws StallError tagged with
  /// `phase` when no frame and no liveness progress arrive in time.
  [[nodiscard]] InterShardFrame Receive(const char* phase);

 private:
  struct WindowExchange;  // per-window gather state (defined in the .cpp)

  void BroadcastProposal(std::uint64_t window_id,
                         const std::vector<double>& local_mins);
  /// The coalescing pass of SetRemoteEventMerger (identity without one).
  [[nodiscard]] std::vector<ShardedEventQueue::RemoteEvent> CoalesceRemoteEvents(
      std::vector<ShardedEventQueue::RemoteEvent> events) const;
  void SendEventBatches(std::uint64_t window_id,
                        std::vector<ShardedEventQueue::RemoteEvent> events);
  /// Channel send + frame accounting.
  void SendFrame(std::size_t to_process, std::span<const std::byte> frame);
  /// Blocks until every peer's frames of the given kind for `window_id`
  /// arrived, dispatching and buffering out-of-order frames.
  void GatherProposals(std::uint64_t window_id, WindowExchange& exchange);
  void GatherEventBatches(std::uint64_t window_id, WindowExchange& exchange);

  /// Receives one frame, throwing StallError after stall_timeout_s with no
  /// frame and no channel liveness progress (LivenessEpoch re-arms the
  /// deadline, so a peer that is slow but draining retransmissions is not
  /// declared dead).
  [[nodiscard]] InterShardFrame ReceiveOrThrow(std::uint64_t window_id,
                                               const char* phase);
  void HandleFrame(std::uint64_t window_id, const InterShardFrame& frame,
                   WindowExchange& exchange);

  ShardedEventQueue* queue_;
  InterShardChannel* channel_;
  LookaheadMatrix lookaheads_;
  RemoteEventDecoder decoder_;
  RemoteEventMerger merger_;
  Options options_;
  std::uint64_t frames_sent_ = 0;
  std::vector<std::size_t> process_of_shard_;  ///< shard → owning process
  std::uint64_t window_id_ = 0;
  std::vector<InterShardFrame> pending_;   ///< buffered out-of-order frames
  std::deque<InterShardFrame> leftover_;   ///< frames for higher layers
  std::vector<std::uint64_t> frames_received_from_;  ///< per-process count
};

}  // namespace dmfsgd::netsim
