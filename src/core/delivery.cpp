#include "core/delivery.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

#include "common/bytes.hpp"
#include "core/wire.hpp"
#include "netsim/event_queue.hpp"

namespace dmfsgd::core {

namespace {

/// Map key for a pending coalesced envelope: exact arrival time, compared
/// bitwise (arrival times are computed, never parsed, so equal doubles are
/// bit-equal).
std::pair<NodeId, std::uint64_t> ArrivalKey(NodeId to, double arrival) {
  return {to, std::bit_cast<std::uint64_t>(arrival)};
}

}  // namespace

std::vector<std::byte> EncodeMessage(const ProtocolMessage& message) {
  return std::visit([](const auto& typed) { return Encode(typed); }, message);
}

ProtocolMessage DecodeMessage(std::span<const std::byte> buffer) {
  switch (PeekType(buffer)) {
    case MessageType::kRttProbeRequest:
      return DecodeRttProbeRequest(buffer);
    case MessageType::kRttProbeReply:
      return DecodeRttProbeReply(buffer);
    case MessageType::kAbwProbeRequest:
      return DecodeAbwProbeRequest(buffer);
    case MessageType::kAbwProbeReply:
      return DecodeAbwProbeReply(buffer);
    case MessageType::kMessageBatch:
      throw WireError("DecodeMessage: buffer holds a batch frame, not a "
                      "single message");
  }
  throw WireError("DecodeMessage: unknown message type");
}

NodeId SenderOf(const ProtocolMessage& message) noexcept {
  return std::visit(
      [](const auto& typed) {
        using T = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<T, RttProbeRequest> ||
                      std::is_same_v<T, AbwProbeRequest>) {
          return typed.prober;
        } else {
          return typed.target;
        }
      },
      message);
}

std::vector<std::byte> EncodeBatchFrame(
    std::span<const std::vector<std::byte>> encoded_messages) {
  if (encoded_messages.empty() ||
      encoded_messages.size() > kMaxWireBatchItems) {
    throw WireError("EncodeBatchFrame: batch size out of bounds");
  }
  std::size_t frame_bytes = 4;
  for (const std::vector<std::byte>& wire : encoded_messages) {
    frame_bytes += 4 + wire.size();
  }
  common::ByteWriter out(frame_bytes);
  out.U8(kWireVersion);
  out.U8(static_cast<std::uint8_t>(MessageType::kMessageBatch));
  out.U16(static_cast<std::uint16_t>(encoded_messages.size()));
  for (const std::vector<std::byte>& wire : encoded_messages) {
    out.U32(static_cast<std::uint32_t>(wire.size()));
    out.Bytes(wire);
  }
  return out.Take();
}

std::vector<std::byte> EncodeBatchFrame(const MessageBatch& batch) {
  std::vector<std::vector<std::byte>> encoded;
  encoded.reserve(batch.items.size());
  for (const BatchItem& item : batch.items) {
    encoded.push_back(EncodeMessage(item.message));
  }
  return EncodeBatchFrame(encoded);
}

std::vector<ProtocolMessage> DecodeBatchFrame(std::span<const std::byte> buffer) {
  common::ByteReader reader(buffer);
  const std::uint8_t version = reader.U8();
  if (version != kWireVersion) {
    throw WireError("DecodeBatchFrame: unsupported wire version");
  }
  const std::uint8_t tag = reader.U8();
  if (tag != static_cast<std::uint8_t>(MessageType::kMessageBatch)) {
    throw WireError("DecodeBatchFrame: not a batch frame");
  }
  const std::uint16_t count = reader.U16();
  if (count == 0 || count > kMaxWireBatchItems) {
    throw WireError("DecodeBatchFrame: batch count out of bounds");
  }
  std::vector<ProtocolMessage> messages;
  messages.reserve(count);
  for (std::uint16_t m = 0; m < count; ++m) {
    const std::uint32_t length = reader.U32();
    messages.push_back(DecodeMessage(reader.Bytes(length)));
  }
  if (!reader.AtEnd()) {
    throw WireError("DecodeBatchFrame: trailing bytes after the last message");
  }
  return messages;
}

void ImmediateDeliveryChannel::Send(NodeId from, NodeId to,
                                    ProtocolMessage message) {
  DeliverNow(from, to, std::move(message));
}

void WireCodecDeliveryChannel::Send(NodeId from, NodeId to,
                                    ProtocolMessage message) {
  // Encode + decode every payload so a codec regression can never hide
  // behind in-process delivery.
  inner_->Send(from, to, DecodeMessage(EncodeMessage(message)));
}

ShardedEventQueueDeliveryChannel::ShardedEventQueueDeliveryChannel(
    netsim::ShardedEventQueue& events, DelayFn delay, bool coalesce)
    : events_(&events), delay_(std::move(delay)), coalesce_(coalesce) {
  if (!delay_) {
    throw std::invalid_argument(
        "ShardedEventQueueDeliveryChannel: delay fn required");
  }
}

void ShardedEventQueueDeliveryChannel::Send(NodeId from, NodeId to,
                                            ProtocolMessage message) {
  // Owner = destination: the delivered message's handler runs at `to`.  A
  // destination shard owned by a peer process gets the message's wire
  // encoding instead of a callback (DESIGN.md §12); its sender field is
  // the delivery's `from`.
  const double delay = delay_(from, to);
  if (!events_->IsOwnedShard(events_->ShardOf(to))) {
    events_->ScheduleRemote(to, delay, EncodeMessage(message));
    return;
  }
  // Coalescing is driver-context only: inside a parallel window callbacks
  // run concurrently and the pending index is shared state; in-window
  // cross-process traffic is merged at the barrier instead (DESIGN.md §13).
  if (!coalesce_ || events_->InParallelWindow()) {
    events_->Schedule(to, delay, [this, from, to, message = std::move(message)] {
      DeliverNow(from, to, message);
    });
    return;
  }
  const double arrival = events_->Now() + delay;
  const auto key = ArrivalKey(to, arrival);
  // Merge only *back-to-back* sends sharing the key (DESIGN.md §13): their
  // per-message events would carry consecutive driver-lane sequence numbers
  // at one timestamp, so nothing can sort between them and the merge is
  // exactly order-preserving — unconditionally, not just for continuous
  // delays.  Because only the most recent envelope can ever absorb another
  // message, one (key, envelope) slot suffices.  The arrival > Now() guard
  // keeps an already-fired envelope from absorbing a late send (only
  // possible at delay 0 — positive delays always produce a fresh, future
  // key) and lets the fire callback stay mutation-free: it may execute on a
  // parallel window's worker thread long after this driver-context schedule.
  if (last_key_ == key && last_batch_ != nullptr && arrival > events_->Now()) {
    last_batch_->items.push_back(BatchItem{from, std::move(message)});
    return;
  }
  auto batch = std::make_shared<MessageBatch>();
  batch->to = to;
  batch->items.push_back(BatchItem{from, std::move(message)});
  last_key_ = key;
  last_batch_ = batch;
  events_->Schedule(to, delay, [this, batch] { DeliverBatch(*batch); });
}

std::optional<std::vector<std::byte>>
ShardedEventQueueDeliveryChannel::MergeEnvelopesIfReplies(
    std::span<const std::vector<std::byte>> envelopes) {
  if (envelopes.size() > kMaxWireBatchItems) {
    return std::nullopt;
  }
  for (const std::vector<std::byte>& envelope : envelopes) {
    // [version u8][tag u8]...: peek the wire tag without a full decode;
    // anything but a reply (or anything malformed) declines — the events
    // then ship individually and fail loudly at the receiver's decoder if
    // genuinely corrupt.
    if (envelope.size() < 2) {
      return std::nullopt;
    }
    const auto tag = static_cast<std::uint8_t>(envelope[1]);
    if (tag != static_cast<std::uint8_t>(MessageType::kRttProbeReply) &&
        tag != static_cast<std::uint8_t>(MessageType::kAbwProbeReply)) {
      return std::nullopt;
    }
  }
  return EncodeBatchFrame(envelopes);
}

netsim::ShardedEventQueue::Callback
ShardedEventQueueDeliveryChannel::DecodeEnvelopeCallback(
    NodeId to, std::vector<std::byte> payload) {
  auto batch = std::make_shared<MessageBatch>();
  batch->to = to;
  auto append = [&](ProtocolMessage message) {
    const NodeId from = SenderOf(message);
    if (from >= events_->OwnerCount()) {
      // Fail at decode time, not mid-window when the handler indexes with it.
      throw WireError(
          "ShardedEventQueueDeliveryChannel: message sender out of range");
    }
    batch->items.push_back(BatchItem{from, std::move(message)});
  };
  if (PeekType(payload) == MessageType::kMessageBatch) {
    for (ProtocolMessage& message : DecodeBatchFrame(payload)) {
      append(std::move(message));
    }
  } else {
    append(DecodeMessage(payload));
  }
  return [this, batch] { DeliverBatch(*batch); };
}

}  // namespace dmfsgd::core
