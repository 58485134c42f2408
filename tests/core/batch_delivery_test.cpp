// The batch envelope plumbing of DESIGN.md §13: MessageBatch semantics, the
// packed batch wire frame, event-time coalescing on the event-queue channel,
// and — the robustness half — that truncated or corrupted batch frames and
// cross-process event payloads (a wire message or a batch frame of them)
// reject cleanly (WireError) without UB.  Labeled `quick`, so the ASan/UBSan
// CI legs walk every malformed-input path here.
#include "core/delivery.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/wire.hpp"
#include "netsim/event_queue.hpp"

namespace dmfsgd::core {
namespace {

MessageBatch ThreeMessageBatch() {
  MessageBatch batch;
  batch.to = 7;
  batch.items.push_back(BatchItem{1, RttProbeReply{1, {1.0, 2.0}, {3.0, 4.0}}});
  batch.items.push_back(BatchItem{2, AbwProbeReply{2, -1.0, {0.5, 0.25}}});
  batch.items.push_back(BatchItem{3, RttProbeRequest{3}});
  return batch;
}

// ------------------------------------------------------------------------
// Batch wire frame

TEST(BatchFrame, RoundTripsMessagesInOrder) {
  const MessageBatch batch = ThreeMessageBatch();
  const auto frame = EncodeBatchFrame(batch);
  EXPECT_EQ(PeekType(frame), MessageType::kMessageBatch);
  const auto messages = DecodeBatchFrame(frame);
  ASSERT_EQ(messages.size(), batch.items.size());
  for (std::size_t m = 0; m < messages.size(); ++m) {
    EXPECT_TRUE(messages[m] == batch.items[m].message);
    EXPECT_EQ(SenderOf(messages[m]), batch.items[m].from);
  }
}

TEST(BatchFrame, SingleMessageFramesDecodeToo) {
  const auto frame =
      EncodeBatchFrame(MessageBatch::Single(4, 9, AbwProbeRequest{4, {1.0}, 2.0}));
  const auto messages = DecodeBatchFrame(frame);
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(SenderOf(messages.front()), 4u);
}

TEST(BatchFrame, EveryTruncationRejectsCleanly) {
  // Chop the frame at every possible length: each prefix must throw
  // WireError (never crash, never return garbage).  This is the exact byte
  // stream a torn UDP datagram would hand the decoder.
  const auto frame = EncodeBatchFrame(ThreeMessageBatch());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_THROW(
        (void)DecodeBatchFrame(std::span<const std::byte>(frame.data(), len)),
        WireError)
        << "prefix length " << len;
  }
}

TEST(BatchFrame, CorruptedFieldsRejectCleanly) {
  const auto reference = EncodeBatchFrame(ThreeMessageBatch());

  auto bad_version = reference;
  bad_version[0] = std::byte{99};
  EXPECT_THROW((void)DecodeBatchFrame(bad_version), WireError);

  auto bad_tag = reference;
  bad_tag[1] = std::byte{42};
  EXPECT_THROW((void)DecodeBatchFrame(bad_tag), WireError);

  auto zero_count = reference;
  zero_count[2] = std::byte{0};
  zero_count[3] = std::byte{0};
  EXPECT_THROW((void)DecodeBatchFrame(zero_count), WireError);

  auto huge_count = reference;  // count beyond kMaxWireBatchItems
  huge_count[2] = std::byte{0xff};
  huge_count[3] = std::byte{0xff};
  EXPECT_THROW((void)DecodeBatchFrame(huge_count), WireError);

  auto huge_length = reference;  // first item length points past the buffer
  huge_length[4] = std::byte{0xff};
  huge_length[5] = std::byte{0xff};
  huge_length[6] = std::byte{0xff};
  huge_length[7] = std::byte{0x7f};
  EXPECT_THROW((void)DecodeBatchFrame(huge_length), WireError);

  auto trailing = reference;  // valid frame + stray byte
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)DecodeBatchFrame(trailing), WireError);

  auto corrupt_inner = reference;  // garbage inside the first nested message
  corrupt_inner[9] = std::byte{250};  // its version byte
  EXPECT_THROW((void)DecodeBatchFrame(corrupt_inner), WireError);
}

TEST(BatchFrame, DecodeMessageRefusesBatchFrames) {
  // A batch frame reaching the single-message decoder (e.g. an old peer)
  // must fail loudly, not misparse.
  EXPECT_THROW((void)DecodeMessage(EncodeBatchFrame(ThreeMessageBatch())),
               WireError);
}

TEST(BatchFrame, OversizedBatchRefusesToEncode) {
  MessageBatch batch;
  batch.to = 1;
  for (std::size_t m = 0; m < kMaxWireBatchItems + 1; ++m) {
    batch.items.push_back(BatchItem{0, RttProbeRequest{0}});
  }
  EXPECT_THROW((void)EncodeBatchFrame(batch), WireError);
  batch.items.clear();
  EXPECT_THROW((void)EncodeBatchFrame(batch), WireError);
}

// ------------------------------------------------------------------------
// Cross-process event payloads: one wire message, or a batch frame of them

TEST(BatchEnvelope, MergedEnvelopeDeliversAllMessagesInOrder) {
  netsim::ShardedEventQueue events(/*owners=*/8, /*shards=*/2);
  ShardedEventQueueDeliveryChannel channel(events,
                                           [](NodeId, NodeId) { return 0.01; });
  std::vector<MessageBatch> delivered;
  channel.BindSink([&](const MessageBatch& batch) { delivered.push_back(batch); });

  const std::vector<std::vector<std::byte>> payloads = {
      EncodeMessage(RttProbeReply{1, {1.0}, {2.0}}),
      EncodeMessage(RttProbeReply{2, {3.0}, {4.0}}),
  };
  const auto merged =
      ShardedEventQueueDeliveryChannel::MergeEnvelopesIfReplies(payloads);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, EncodeBatchFrame(payloads)) << "the UDP batch format";
  auto callback = channel.DecodeEnvelopeCallback(5, *merged);
  callback();

  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered.front().to, 5u);
  ASSERT_EQ(delivered.front().items.size(), 2u);
  EXPECT_EQ(delivered.front().items[0].from, 1u);
  EXPECT_EQ(delivered.front().items[1].from, 2u);

  // A group holding a request is declined: request handlers emit.
  const std::vector<std::vector<std::byte>> mixed = {
      payloads[0], EncodeMessage(RttProbeRequest{3})};
  EXPECT_FALSE(
      ShardedEventQueueDeliveryChannel::MergeEnvelopesIfReplies(mixed).has_value());
}

TEST(BatchEnvelope, MalformedEnvelopesRejectAtDecodeTime) {
  netsim::ShardedEventQueue events(/*owners=*/8, /*shards=*/2);
  ShardedEventQueueDeliveryChannel channel(events,
                                           [](NodeId, NodeId) { return 0.01; });
  channel.BindSink([](const MessageBatch&) {});

  // Truncated single message (shorter than the wire header).
  EXPECT_THROW((void)channel.DecodeEnvelopeCallback(
                   1, std::vector<std::byte>{std::byte{1}}),
               WireError);
  // Sender id out of the deployment's range, alone and inside a batch.
  EXPECT_THROW((void)channel.DecodeEnvelopeCallback(
                   1, EncodeMessage(RttProbeRequest{200})),
               WireError);
  EXPECT_THROW(
      (void)channel.DecodeEnvelopeCallback(
          1, EncodeBatchFrame(std::vector<std::vector<std::byte>>{
                 EncodeMessage(RttProbeReply{1, {1.0}, {2.0}}),
                 EncodeMessage(RttProbeReply{200, {1.0}, {2.0}})})),
      WireError);

  const std::vector<std::vector<std::byte>> payloads = {
      EncodeMessage(RttProbeRequest{1}),
      EncodeMessage(RttProbeRequest{2}),
  };
  const auto merged = EncodeBatchFrame(payloads);
  // Every truncation of a batch must reject cleanly: prefixes shorter than
  // the wire header fail the type peek, everything longer the batch
  // header/length checks.
  for (std::size_t len = 0; len < merged.size(); ++len) {
    EXPECT_THROW((void)channel.DecodeEnvelopeCallback(
                     1, std::vector<std::byte>(merged.begin(),
                                               merged.begin() + len)),
                 WireError)
        << "prefix length " << len;
  }
  // A corrupt nested message rejects the whole batch: a garbage sender in
  // the first message ([01 05][count u16][length u32][01 01][prober u32]),
  // or a garbage version byte.
  auto corrupt = merged;
  corrupt[10] = std::byte{0xee};
  EXPECT_THROW((void)channel.DecodeEnvelopeCallback(1, corrupt), WireError);
  corrupt = merged;
  corrupt[8] = std::byte{0xee};
  EXPECT_THROW((void)channel.DecodeEnvelopeCallback(1, corrupt), WireError);
  // Trailing bytes after the last message reject too, batched or single.
  auto trailing = merged;
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)channel.DecodeEnvelopeCallback(1, trailing), WireError);
  trailing = payloads[0];
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)channel.DecodeEnvelopeCallback(1, trailing), WireError);
}

// ------------------------------------------------------------------------
// Event-time coalescing on the event-queue channel, over one shard (the
// sequential drain's order) and then over several

TEST(OneShardCoalescing, SameArrivalMergesIntoOneEventOrderPreserved) {
  netsim::ShardedEventQueue events(/*owners=*/16, /*shards=*/1);
  ShardedEventQueueDeliveryChannel channel(
      events, [](NodeId, NodeId) { return 0.5; }, /*coalesce=*/true);
  std::vector<MessageBatch> delivered;
  channel.BindSink([&](const MessageBatch& batch) { delivered.push_back(batch); });

  channel.Send(1, 9, RttProbeRequest{1});
  channel.Send(2, 9, RttProbeRequest{2});  // same destination, same arrival
  channel.Send(3, 4, RttProbeRequest{3});  // different destination
  EXPECT_EQ(events.Pending(), 2u);  // merged: two events, three messages

  events.RunUntil(1.0);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].to, 9u);
  ASSERT_EQ(delivered[0].items.size(), 2u);
  EXPECT_EQ(delivered[0].items[0].from, 1u);
  EXPECT_EQ(delivered[0].items[1].from, 2u);
  EXPECT_EQ(delivered[1].to, 4u);
}

TEST(OneShardCoalescing, DifferentArrivalTimesStaySeparateEvents) {
  netsim::ShardedEventQueue events(/*owners=*/16, /*shards=*/1);
  double delay = 0.5;
  ShardedEventQueueDeliveryChannel channel(
      events, [&delay](NodeId, NodeId) { return delay; }, /*coalesce=*/true);
  std::size_t envelopes = 0;
  channel.BindSink([&](const MessageBatch&) { ++envelopes; });
  channel.Send(1, 9, RttProbeRequest{1});
  delay = 0.25;
  channel.Send(2, 9, RttProbeRequest{2});
  events.RunUntil(1.0);
  EXPECT_EQ(envelopes, 2u);
  EXPECT_EQ(events.Executed(), 2u);
}

TEST(OneShardCoalescing, FiredEnvelopeIsClosedToLateSends) {
  // After the envelope for (destination, t) fires, a send scheduled from a
  // handler at exactly t toward the same destination must open a *new*
  // envelope, not mutate the delivered one.
  netsim::ShardedEventQueue events(/*owners=*/16, /*shards=*/1);
  ShardedEventQueueDeliveryChannel channel(
      events, [](NodeId, NodeId) { return 0.0; }, /*coalesce=*/true);
  std::vector<std::size_t> sizes;
  bool resent = false;
  channel.BindSink([&](const MessageBatch& batch) {
    sizes.push_back(batch.items.size());
    if (!resent) {
      resent = true;
      channel.Send(2, batch.to, RttProbeRequest{2});
    }
  });
  channel.Send(1, 9, RttProbeRequest{1});
  events.RunUntil(1.0);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 1u);
}

TEST(ShardedCoalescing, DriverContextMergesAcrossShards) {
  netsim::ShardedEventQueue events(/*owners=*/16, /*shards=*/4);
  ShardedEventQueueDeliveryChannel channel(
      events, [](NodeId, NodeId) { return 0.5; }, /*coalesce=*/true);
  std::vector<MessageBatch> delivered;
  channel.BindSink([&](const MessageBatch& batch) { delivered.push_back(batch); });
  channel.Send(1, 9, RttProbeRequest{1});
  channel.Send(2, 9, RttProbeRequest{2});
  EXPECT_EQ(events.Pending(), 1u);
  events.RunUntil(1.0);
  ASSERT_EQ(delivered.size(), 1u);
  ASSERT_EQ(delivered.front().items.size(), 2u);
  EXPECT_EQ(delivered.front().items[0].from, 1u);
  EXPECT_EQ(delivered.front().items[1].from, 2u);
}

}  // namespace
}  // namespace dmfsgd::core
