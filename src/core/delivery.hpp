// Pluggable message delivery for DMFSGD deployments.
//
// The deployment engine (core/engine.hpp) is a pure protocol state machine:
// it reacts to delivered protocol messages and emits new ones.  *How* a
// message travels from node i to node j — instantly (round-based
// simulation), after a one-way delay (discrete-event simulation), through
// the binary wire codec (serialization proof), or over a real UDP socket
// (transport/udp_channel.hpp) — is a DeliveryChannel implementation.  This
// is the seam that lets one engine serve every deployment style the paper
// argues are equivalent (§5.3 vs §6.1), and the one future transports
// (sharded execution, batching, real networks) plug into.
//
// The unit of delivery is the batch envelope (core::MessageBatch,
// DESIGN.md §13): an ordered run of messages sharing one destination.
// Sinks always receive batches; a plain channel delivers one-item batches,
// a coalescing channel merges messages it would deliver at the same instant
// into larger envelopes without ever reordering them, so applying a batch
// front to back is exactly the per-message delivery the envelope replaced.
//
// Across a datagram or process boundary a message travels as its wire
// encoding (EncodeMessage) and a batch as one batch frame (EncodeBatchFrame):
// the same two formats serve the UDP transport and the multi-process window
// barrier.
//
// Channels move messages; they do not model loss.  Message loss is protocol
// semantics (a lost leg loses exactly the updates a real deployment would
// lose), so the engine rolls it before handing a message to the channel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "core/messages.hpp"
#include "netsim/event_queue.hpp"

namespace dmfsgd::core {

/// Serializes any protocol message through the binary wire codec.
[[nodiscard]] std::vector<std::byte> EncodeMessage(const ProtocolMessage& message);

/// Decodes a wire buffer into whichever message type it carries.  Throws
/// WireError (core/wire.hpp) on malformed input.  Batch frames are not
/// single messages — decode those with DecodeBatchFrame.
[[nodiscard]] ProtocolMessage DecodeMessage(std::span<const std::byte> buffer);

/// The node id embedded in a message by its sender (prober for requests,
/// target for replies) — datagram transports use it to learn return routes.
[[nodiscard]] NodeId SenderOf(const ProtocolMessage& message) noexcept;

/// Packs a batch's messages into one wire frame:
///   [version u8][kMessageBatch u8][count u16]{[length u32][message frame]}*
/// The destination is *not* embedded (a datagram's receiving socket is the
/// authoritative destination) and neither are sender ids — every protocol
/// message already carries its sender, recoverable via SenderOf.  Requires
/// 1 <= items <= kMaxWireBatchItems.
[[nodiscard]] std::vector<std::byte> EncodeBatchFrame(const MessageBatch& batch);

/// Same frame from already-encoded message buffers — lets a transport that
/// measured its packing against the encoded sizes assemble the frame
/// without serializing every message twice, and is the payload of a merged
/// cross-process event (MergeEnvelopesIfReplies).  Same bounds as above.
[[nodiscard]] std::vector<std::byte> EncodeBatchFrame(
    std::span<const std::vector<std::byte>> encoded_messages);

/// Decodes a batch frame into its messages, in order.  Throws WireError on
/// any malformation: truncation, bad version/tag, a zero or oversized count,
/// a length field pointing past the buffer, a malformed nested message, or
/// trailing bytes.
[[nodiscard]] std::vector<ProtocolMessage> DecodeBatchFrame(
    std::span<const std::byte> buffer);

/// Transports protocol messages between nodes of one deployment.  The engine
/// binds a sink once; every implementation eventually hands each sent
/// message back to that sink inside a MessageBatch envelope (one-item for
/// plain channels).
class DeliveryChannel {
 public:
  using Sink = std::function<void(const MessageBatch& batch)>;

  virtual ~DeliveryChannel() = default;

  /// Registers the receiver-side dispatcher.  Decorating channels forward
  /// the binding to their inner channel.
  virtual void BindSink(Sink sink) { sink_ = std::move(sink); }

  /// Ships one message.  Delivery may happen synchronously inside the call
  /// (immediate channel) or later (event queue, sockets).
  virtual void Send(NodeId from, NodeId to, ProtocolMessage message) = 0;

  [[nodiscard]] virtual const char* Name() const noexcept = 0;

 protected:
  /// Invokes the bound sink with a one-item envelope; no-op if none bound.
  void DeliverNow(NodeId from, NodeId to, ProtocolMessage message) {
    if (sink_) {
      sink_(MessageBatch::Single(from, to, std::move(message)));
    }
  }

  /// Invokes the bound sink with a whole envelope; no-op if none bound.
  void DeliverBatch(const MessageBatch& batch) {
    if (sink_) {
      sink_(batch);
    }
  }

 private:
  Sink sink_;
};

/// Atomic delivery: Send() invokes the sink before returning.  The
/// round-based simulator's timing model.
class ImmediateDeliveryChannel final : public DeliveryChannel {
 public:
  void Send(NodeId from, NodeId to, ProtocolMessage message) override;
  [[nodiscard]] const char* Name() const noexcept override { return "immediate"; }
};

/// Decorator that round-trips every message through the binary wire codec
/// (core/wire.hpp) before handing it to the inner channel — proving each
/// exchange is implementable over a datagram transport, bit-for-bit.
class WireCodecDeliveryChannel final : public DeliveryChannel {
 public:
  /// `inner` must outlive this channel.
  explicit WireCodecDeliveryChannel(DeliveryChannel& inner) : inner_(&inner) {}

  void BindSink(Sink sink) override { inner_->BindSink(std::move(sink)); }
  void Send(NodeId from, NodeId to, ProtocolMessage message) override;
  [[nodiscard]] const char* Name() const noexcept override { return "wire-codec"; }

 private:
  DeliveryChannel* inner_;
};

/// Assembles a driver's channel stack: the base channel, optionally wrapped
/// by the wire-codec decorator.  `base` and `wire` must outlive whatever
/// binds to the returned channel (drivers declare them as members ahead of
/// the engine).
[[nodiscard]] inline DeliveryChannel& StackChannel(
    DeliveryChannel& base, std::optional<WireCodecDeliveryChannel>& wire,
    bool use_wire_format) {
  if (use_wire_format) {
    wire.emplace(base);
    return *wire;
  }
  return base;
}

/// Delivery after a per-pair one-way delay on a ShardedEventQueue — the
/// asynchronous deployment model: payloads are snapshots taken at send time,
/// stale by the flight time when consumed.  Every message is scheduled into
/// its *destination* node's shard (the handler runs at the destination),
/// which is what lets AsyncDmfsgdSimulation drain shards in parallel while
/// handlers only ever touch destination-local state (DESIGN.md §9).  Send is
/// safe from inside a parallel drain window — the queue routes the schedule
/// through the executing shard's lane.
///
/// With `coalesce` on, *back-to-back* driver-context sends (sequential
/// drains) to the same destination with the same arrival time merge into one
/// pending envelope and fire as a single event (items in send order) — the
/// order-preserving coalescing mode of DESIGN.md §13.  The back-to-back
/// restriction is what makes the merge exact: the replaced per-message
/// events would carry consecutive driver-lane sequence numbers at one
/// timestamp, so no foreign event can sort between them and every per-node
/// delivery sequence is unchanged, unconditionally.  Probe-burst traffic (a
/// burst's replies converging on the prober, sent by an uninterrupted chain
/// of handler executions) merges fully.  Sends from inside a parallel window
/// fall back to the per-message path — the pending-envelope index is shared
/// state and window callbacks run concurrently; cross-process events
/// produced in a window are instead merged per (owner, time) at the window
/// barrier by netsim::ShardRuntime through MergeEnvelopesIfReplies
/// (DESIGN.md §13).
///
/// In a multi-process drain (DESIGN.md §12) the queue's owned-shard range is
/// a strict subset: a Send whose destination shard is remote cannot carry a
/// callback across the process boundary, so the channel hands the message's
/// wire encoding (EncodeMessage) to the queue's remote outbox
/// (ScheduleRemote) with the same deterministic stamp a local cross-shard
/// schedule would get; the peer process turns it back into a delivery via
/// DecodeEnvelopeCallback.  The payload carries neither endpoint: the event
/// stamp's owner is the destination and SenderOf(message) the sender, so
/// there is no second copy to disagree with.
class ShardedEventQueueDeliveryChannel final : public DeliveryChannel {
 public:
  /// One-way delay in seconds for a directed pair.
  using DelayFn = std::function<double(NodeId from, NodeId to)>;

  /// `events` must outlive this channel; `delay` must be valid.
  ShardedEventQueueDeliveryChannel(netsim::ShardedEventQueue& events,
                                   DelayFn delay, bool coalesce = false);

  void Send(NodeId from, NodeId to, ProtocolMessage message) override;
  [[nodiscard]] const char* Name() const noexcept override {
    return "sharded-event-queue";
  }

  /// The ShardRuntime merger hook (DESIGN.md §13): packs the group's wire
  /// messages into one batch frame (EncodeBatchFrame, the UDP transport's
  /// format) only if every one is a *reply* (RttProbeReply /
  /// AbwProbeReply).  Reply handlers mutate destination-local state only —
  /// they emit no messages and draw no randomness — so executing a whole
  /// reply group at its first stamp is provably order-equivalent; request
  /// handlers emit (consuming lane sequence numbers), so request groups are
  /// declined and ship as individual events.
  [[nodiscard]] static std::optional<std::vector<std::byte>>
  MergeEnvelopesIfReplies(std::span<const std::vector<std::byte>> envelopes);

  /// The receiving side's ShardRuntime decoder: returns a callback that
  /// decodes `payload` — one wire message or a batch frame of them — and
  /// delivers the message(s) to `to` (the remote event's owner stamp)
  /// through the bound sink, as one envelope in original order, each item
  /// attributed to SenderOf(message).  Throws WireError on a malformed
  /// payload or a sender outside the deployment — at decode time, not
  /// delivery time, so a corrupt frame fails loudly.
  [[nodiscard]] netsim::ShardedEventQueue::Callback DecodeEnvelopeCallback(
      NodeId to, std::vector<std::byte> payload);

 private:
  netsim::ShardedEventQueue* events_;
  DelayFn delay_;
  bool coalesce_;
  /// The most recent driver-context envelope and its (destination,
  /// arrival-time bits) key — only back-to-back repeats of the key with a
  /// still-future arrival merge, so one slot is the whole index and fire
  /// callbacks never touch channel state.  Never touched from window
  /// threads.
  std::optional<std::pair<NodeId, std::uint64_t>> last_key_;
  std::shared_ptr<MessageBatch> last_batch_;
};

}  // namespace dmfsgd::core
