#include "core/delivery.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

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

void PutU16(std::vector<std::byte>& out, std::uint16_t value) {
  out.push_back(static_cast<std::byte>(value & 0xff));
  out.push_back(static_cast<std::byte>(value >> 8));
}

void PutU32(std::vector<std::byte>& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::byte>((value >> shift) & 0xff));
  }
}

/// Minimal checked reader for the batch frame / batch envelope headers (the
/// nested message payloads go through the full wire codec).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> buffer) : buffer_(buffer) {}

  [[nodiscard]] std::uint8_t U8() {
    Need(1, "truncated header");
    return static_cast<std::uint8_t>(buffer_[pos_++]);
  }

  [[nodiscard]] std::uint16_t U16() {
    const auto lo = U8();
    const auto hi = U8();
    return static_cast<std::uint16_t>(lo | (hi << 8));
  }

  [[nodiscard]] std::uint32_t U32() {
    std::uint32_t value = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      value |= static_cast<std::uint32_t>(U8()) << shift;
    }
    return value;
  }

  [[nodiscard]] std::span<const std::byte> Bytes(std::size_t count) {
    Need(count, "length field points past the buffer");
    const auto slice = buffer_.subspan(pos_, count);
    pos_ += count;
    return slice;
  }

  [[nodiscard]] bool AtEnd() const noexcept { return pos_ == buffer_.size(); }

 private:
  void Need(std::size_t count, const char* what) const {
    if (pos_ + count > buffer_.size()) {
      throw WireError(std::string("DecodeBatchFrame: ") + what);
    }
  }

  std::span<const std::byte> buffer_;
  std::size_t pos_ = 0;
};

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
  std::vector<std::byte> out;
  out.push_back(static_cast<std::byte>(kWireVersion));
  out.push_back(static_cast<std::byte>(MessageType::kMessageBatch));
  PutU16(out, static_cast<std::uint16_t>(encoded_messages.size()));
  for (const std::vector<std::byte>& wire : encoded_messages) {
    PutU32(out, static_cast<std::uint32_t>(wire.size()));
    out.insert(out.end(), wire.begin(), wire.end());
  }
  return out;
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
  ByteReader reader(buffer);
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

void DeliveryChannel::SendBatch(MessageBatch batch) {
  for (BatchItem& item : batch.items) {
    Send(item.from, batch.to, std::move(item.message));
  }
}

void ImmediateDeliveryChannel::Send(NodeId from, NodeId to,
                                    ProtocolMessage message) {
  DeliverNow(from, to, std::move(message));
}

void ImmediateDeliveryChannel::SendBatch(MessageBatch batch) {
  DeliverBatch(batch);
}

void WireCodecDeliveryChannel::Send(NodeId from, NodeId to,
                                    ProtocolMessage message) {
  // Encode + decode every payload so a codec regression can never hide
  // behind in-process delivery.
  inner_->Send(from, to, DecodeMessage(EncodeMessage(message)));
}

void WireCodecDeliveryChannel::SendBatch(MessageBatch batch) {
  if (batch.items.size() == 1) {
    // One-item envelopes travel as plain datagrams on real transports;
    // round-trip the same format here.
    Send(batch.items.front().from, batch.to,
         std::move(batch.items.front().message));
    return;
  }
  // Multi-item envelopes round-trip through the packed batch frame — the
  // exact bytes UdpDeliveryChannel::SendBatch puts in one datagram.
  const std::vector<ProtocolMessage> messages =
      DecodeBatchFrame(EncodeBatchFrame(batch));
  MessageBatch decoded;
  decoded.to = batch.to;
  decoded.items.reserve(messages.size());
  for (const ProtocolMessage& message : messages) {
    decoded.items.push_back(BatchItem{SenderOf(message), message});
  }
  inner_->SendBatch(std::move(decoded));
}

void CoalescingDeliveryChannel::Buffer(NodeId from, NodeId to,
                                       ProtocolMessage message) {
  auto [it, inserted] = buffers_.try_emplace(to);
  if (inserted || it->second.empty()) {
    order_.push_back(to);
  }
  it->second.push_back(BatchItem{from, std::move(message)});
  if (max_batch_ > 0 && it->second.size() >= max_batch_) {
    MessageBatch batch;
    batch.to = to;
    batch.items = std::exchange(it->second, {});
    // The destination's order_ slot stays; Flush skips empty buffers.
    Emit(std::move(batch));
  }
}

void CoalescingDeliveryChannel::Send(NodeId from, NodeId to,
                                     ProtocolMessage message) {
  Buffer(from, to, std::move(message));
}

void CoalescingDeliveryChannel::SendBatch(MessageBatch batch) {
  for (BatchItem& item : batch.items) {
    Buffer(item.from, batch.to, std::move(item.message));
  }
}

void CoalescingDeliveryChannel::Emit(MessageBatch batch) {
  ++batches_emitted_;
  messages_emitted_ += batch.items.size();
  max_batch_emitted_ = std::max(max_batch_emitted_, batch.items.size());
  inner_->SendBatch(std::move(batch));
}

void CoalescingDeliveryChannel::Flush() {
  // The emission may cascade (handlers sending again); each pass drains the
  // destinations buffered so far, in first-buffered order, until quiescent.
  while (!order_.empty()) {
    std::vector<NodeId> round = std::exchange(order_, {});
    for (const NodeId to : round) {
      auto it = buffers_.find(to);
      if (it == buffers_.end() || it->second.empty()) {
        continue;  // auto-flushed by the max_batch cap, or a duplicate slot
      }
      MessageBatch batch;
      batch.to = to;
      batch.items = std::exchange(it->second, {});
      Emit(std::move(batch));
    }
  }
}

std::size_t CoalescingDeliveryChannel::PendingMessages() const noexcept {
  std::size_t pending = 0;
  for (const auto& [to, items] : buffers_) {
    pending += items.size();
  }
  return pending;
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
  // destination shard owned by a peer process gets the serialized envelope
  // instead of a callback (DESIGN.md §12).
  const double delay = delay_(from, to);
  if (!events_->IsOwnedShard(events_->ShardOf(to))) {
    events_->ScheduleRemote(to, delay, EncodeEnvelope(from, message));
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

std::vector<std::byte> ShardedEventQueueDeliveryChannel::EncodeEnvelope(
    NodeId from, const ProtocolMessage& message) {
  std::vector<std::byte> wire = EncodeMessage(message);
  std::vector<std::byte> envelope(sizeof(NodeId) + wire.size());
  std::memcpy(envelope.data(), &from, sizeof(from));
  std::memcpy(envelope.data() + sizeof(NodeId), wire.data(), wire.size());
  return envelope;
}

std::vector<std::byte> ShardedEventQueueDeliveryChannel::MergeEnvelopes(
    std::span<const std::vector<std::byte>> envelopes) {
  if (envelopes.empty() || envelopes.size() > kMaxWireBatchItems) {
    throw WireError("MergeEnvelopes: envelope count out of bounds");
  }
  std::vector<std::byte> merged;
  PutU32(merged, kBatchEnvelopeMarker);
  PutU16(merged, static_cast<std::uint16_t>(envelopes.size()));
  for (const std::vector<std::byte>& envelope : envelopes) {
    if (envelope.empty()) {
      throw WireError("MergeEnvelopes: empty sub-envelope");
    }
    PutU32(merged, static_cast<std::uint32_t>(envelope.size()));
    merged.insert(merged.end(), envelope.begin(), envelope.end());
  }
  return merged;
}

std::optional<std::vector<std::byte>>
ShardedEventQueueDeliveryChannel::MergeEnvelopesIfReplies(
    std::span<const std::vector<std::byte>> envelopes) {
  if (envelopes.size() > kMaxWireBatchItems) {
    return std::nullopt;
  }
  for (const std::vector<std::byte>& envelope : envelopes) {
    // [from u32][version u8][tag u8]...: peek the wire tag without a full
    // decode; anything but a reply (or anything malformed) declines — the
    // events then ship individually and fail loudly at the receiver's
    // decoder if genuinely corrupt.
    if (envelope.size() < sizeof(NodeId) + 2) {
      return std::nullopt;
    }
    const auto tag = static_cast<std::uint8_t>(envelope[sizeof(NodeId) + 1]);
    if (tag != static_cast<std::uint8_t>(MessageType::kRttProbeReply) &&
        tag != static_cast<std::uint8_t>(MessageType::kAbwProbeReply)) {
      return std::nullopt;
    }
  }
  return MergeEnvelopes(envelopes);
}

namespace {

/// Decodes one single-message envelope ([from u32][wire bytes]); shared by
/// the single and batch paths.  `owner_count` bounds the sender id.
BatchItem DecodeSingleEnvelope(std::span<const std::byte> payload,
                               std::size_t owner_count) {
  if (payload.size() < sizeof(NodeId)) {
    throw WireError("ShardedEventQueueDeliveryChannel: truncated envelope");
  }
  NodeId from = 0;
  std::memcpy(&from, payload.data(), sizeof(from));
  if (from >= owner_count) {
    // Fail at decode time, not mid-window when the handler indexes with it.
    throw WireError(
        "ShardedEventQueueDeliveryChannel: envelope sender out of range");
  }
  return BatchItem{from, DecodeMessage(payload.subspan(sizeof(NodeId)))};
}

}  // namespace

netsim::ShardedEventQueue::Callback
ShardedEventQueueDeliveryChannel::DecodeEnvelopeCallback(
    NodeId to, std::vector<std::byte> payload) {
  const std::size_t owners = events_->OwnerCount();
  std::uint32_t head = 0;
  if (payload.size() >= sizeof(head)) {
    std::memcpy(&head, payload.data(), sizeof(head));
  }
  auto batch = std::make_shared<MessageBatch>();
  batch->to = to;
  if (head != kBatchEnvelopeMarker) {
    batch->items.push_back(DecodeSingleEnvelope(payload, owners));
  } else {
    ByteReader reader(std::span<const std::byte>(payload).subspan(4));
    const std::uint16_t count = reader.U16();
    if (count == 0 || count > kMaxWireBatchItems) {
      throw WireError(
          "ShardedEventQueueDeliveryChannel: batch envelope count out of "
          "bounds");
    }
    batch->items.reserve(count);
    for (std::uint16_t e = 0; e < count; ++e) {
      const std::uint32_t length = reader.U32();
      batch->items.push_back(DecodeSingleEnvelope(reader.Bytes(length), owners));
    }
    if (!reader.AtEnd()) {
      throw WireError(
          "ShardedEventQueueDeliveryChannel: trailing bytes in batch envelope");
    }
  }
  return [this, batch] { DeliverBatch(*batch); };
}

}  // namespace dmfsgd::core
