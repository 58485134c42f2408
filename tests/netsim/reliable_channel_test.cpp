// The reliability decorator of DESIGN.md §15: the frame codec must reject
// every truncation and corruption cleanly (mirroring the batch-frame sweep
// in core_batch_delivery_test), and the protocol must restore exactly-once
// delivery — loss repaired by retransmission, duplicates suppressed, acks
// flowing even when the receiver has no data of its own.  All over the
// deterministic fault injector, so every scenario replays bit-identically.
#include "netsim/reliable_channel.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "netsim/fault_channel.hpp"
#include "netsim/inter_shard_channel.hpp"

namespace dmfsgd::netsim {
namespace {

std::vector<std::byte> FrameOf(const std::string& text) {
  std::vector<std::byte> bytes(text.size());
  std::memcpy(bytes.data(), text.data(), text.size());
  return bytes;
}

std::string TextOf(std::span<const std::byte> bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

// ------------------------------------------------------------------------
// Frame codec

TEST(ReliableFrameCodec, DataFrameRoundTrips) {
  const auto payload = FrameOf("window-proposal");
  const auto frame = EncodeReliableData(7, 42, 0b1010, payload);
  ASSERT_EQ(frame.size(), kReliableDataHeaderBytes + payload.size());
  const ReliableFrameView view = DecodeReliableFrame(frame);
  EXPECT_EQ(view.type, kReliableData);
  EXPECT_EQ(view.seq, 7u);
  EXPECT_EQ(view.cumulative_ack, 42u);
  EXPECT_EQ(view.sack_bitmap, 0b1010u);
  EXPECT_EQ(TextOf(view.payload), "window-proposal");
}

TEST(ReliableFrameCodec, AckFrameRoundTrips) {
  const auto frame = EncodeReliableAck(99, ~0ULL);
  ASSERT_EQ(frame.size(), kReliableAckFrameBytes);
  const ReliableFrameView view = DecodeReliableFrame(frame);
  EXPECT_EQ(view.type, kReliableAck);
  EXPECT_EQ(view.cumulative_ack, 99u);
  EXPECT_EQ(view.sack_bitmap, ~0ULL);
  EXPECT_TRUE(view.payload.empty());
}

TEST(ReliableFrameCodec, EveryTruncationRejectsCleanly) {
  // Chop both frame kinds at every possible length: each proper prefix must
  // throw (never crash, never misparse) — the exact byte stream a torn
  // datagram would hand the decoder.
  const auto data = EncodeReliableData(3, 1, 0, FrameOf("abc"));
  for (std::size_t len = 0; len < data.size(); ++len) {
    EXPECT_THROW(
        (void)DecodeReliableFrame(std::span<const std::byte>(data.data(), len)),
        std::runtime_error)
        << "data prefix length " << len;
  }
  const auto ack = EncodeReliableAck(5, 1);
  for (std::size_t len = 0; len < ack.size(); ++len) {
    EXPECT_THROW(
        (void)DecodeReliableFrame(std::span<const std::byte>(ack.data(), len)),
        std::runtime_error)
        << "ack prefix length " << len;
  }
}

TEST(ReliableFrameCodec, CorruptedFieldsRejectCleanly) {
  const auto reference = EncodeReliableData(3, 1, 0, FrameOf("abc"));

  auto bad_type = reference;  // unknown frame type byte
  bad_type[0] = std::byte{0x7f};
  EXPECT_THROW((void)DecodeReliableFrame(bad_type), std::runtime_error);

  auto zero_seq = reference;  // seq 0 is never assigned by a sender
  for (std::size_t b = 1; b <= 8; ++b) {
    zero_seq[b] = std::byte{0};
  }
  EXPECT_THROW((void)DecodeReliableFrame(zero_seq), std::runtime_error);

  // A data header with nothing after it: the wrapped payload is required.
  const auto empty_payload = EncodeReliableData(3, 1, 0, FrameOf("x"));
  EXPECT_THROW((void)DecodeReliableFrame(std::span<const std::byte>(
                   empty_payload.data(), kReliableDataHeaderBytes)),
               std::runtime_error);

  auto bad_length = reference;  // length field contradicts the actual tail
  bad_length[25] = std::byte{0xff};
  EXPECT_THROW((void)DecodeReliableFrame(bad_length), std::runtime_error);

  auto trailing_data = reference;  // a padded datagram is not a valid frame
  trailing_data.push_back(std::byte{0});
  EXPECT_THROW((void)DecodeReliableFrame(trailing_data), std::runtime_error);

  auto trailing_ack = EncodeReliableAck(5, 1);  // acks are fixed-size
  trailing_ack.push_back(std::byte{0});
  EXPECT_THROW((void)DecodeReliableFrame(trailing_ack), std::runtime_error);

  EXPECT_THROW((void)EncodeReliableData(1, 0, 0, {}), std::invalid_argument);
}

// ------------------------------------------------------------------------
// Protocol behavior over the loopback hub

/// Fast timers so tests measure the protocol, not default WAN-ish waits.
ReliableChannelOptions FastOptions() {
  ReliableChannelOptions options;
  options.initial_rto_ms = 5;
  options.ack_delay_ms = 2;
  return options;
}

/// Pumps both endpoints until `receiver` has collected `expected` distinct
/// frames or the budget runs out.  Single-threaded on purpose: timers are
/// serviced inside Send/Receive/Flush, so alternating the two endpoints is
/// exactly how the runtime drives them.
std::vector<std::string> PumpUntil(ReliableInterShardChannel& sender,
                                   ReliableInterShardChannel& receiver,
                                   std::size_t expected) {
  std::vector<std::string> delivered;
  for (int round = 0; round < 4000 && delivered.size() < expected; ++round) {
    (void)sender.Flush(1);  // retransmit + process acks
    if (auto frame = receiver.Receive(1)) {
      delivered.push_back(TextOf(frame->bytes));
    }
  }
  return delivered;
}

TEST(ReliableChannel, RepairsHeavyLossToExactlyOnceDelivery) {
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel raw0(hub, 0);
  LoopbackInterShardChannel raw1(hub, 1);
  FaultChannelOptions faults;
  faults.outbound.drop_rate = 0.4;
  faults.seed = 0x10ad;
  FaultInjectingInterShardChannel lossy0(raw0, faults);
  ReliableInterShardChannel a(lossy0, FastOptions());
  ReliableInterShardChannel b(raw1, FastOptions());

  constexpr std::size_t kFrames = 40;
  std::set<std::string> sent;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const std::string text = "frame-" + std::to_string(i);
    a.Send(1, FrameOf(text));
    sent.insert(text);
  }
  const auto delivered = PumpUntil(a, b, kFrames);
  EXPECT_EQ(std::set<std::string>(delivered.begin(), delivered.end()), sent);
  EXPECT_EQ(delivered.size(), kFrames) << "a frame was delivered twice";
  EXPECT_GT(a.Retransmits(), 0u) << "the injector dropped nothing?";
  // Settling needs both sides pumping: b must ship its delayed acks (and
  // re-ack retransmits whose acks were lost) while a retransmits — the same
  // alternation the runtime's end-of-run Flush/Receive linger performs.
  bool settled = false;
  for (int round = 0; round < 4000 && !settled; ++round) {
    (void)b.Flush(1);
    (void)b.Receive(0);
    settled = a.Flush(1);
  }
  EXPECT_TRUE(settled) << "sender still has unacked frames";
  EXPECT_EQ(a.UnackedFrames(1), 0u);
}

TEST(ReliableChannel, SuppressesInjectedDuplicatesAndReorder) {
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel raw0(hub, 0);
  LoopbackInterShardChannel raw1(hub, 1);
  FaultChannelOptions faults;
  faults.outbound.duplicate_rate = 0.5;
  faults.outbound.reorder_rate = 0.3;
  faults.seed = 0xd0b1e;
  FaultInjectingInterShardChannel noisy0(raw0, faults);
  ReliableInterShardChannel a(noisy0, FastOptions());
  ReliableInterShardChannel b(raw1, FastOptions());

  constexpr std::size_t kFrames = 30;
  std::set<std::string> sent;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const std::string text = "frame-" + std::to_string(i);
    a.Send(1, FrameOf(text));
    sent.insert(text);
  }
  const auto delivered = PumpUntil(a, b, kFrames);
  EXPECT_EQ(delivered.size(), kFrames);
  EXPECT_EQ(std::set<std::string>(delivered.begin(), delivered.end()), sent);
  EXPECT_GT(noisy0.FramesDuplicated(), 0u);
  EXPECT_GT(b.DuplicatesSuppressed(), 0u);
}

TEST(ReliableChannel, StandaloneAcksFlowWhenTheReceiverIsSilent) {
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel raw0(hub, 0);
  LoopbackInterShardChannel raw1(hub, 1);
  ReliableInterShardChannel a(raw0, FastOptions());
  ReliableInterShardChannel b(raw1, FastOptions());
  a.Send(1, FrameOf("one-way"));
  ASSERT_TRUE(b.Receive(1000).has_value());
  EXPECT_EQ(a.UnackedFrames(1), 1u);
  // b never sends data, so its ack must ship standalone after ack_delay_ms;
  // a's Flush services retransmit timers while it waits for that ack.
  EXPECT_TRUE(b.Flush(1000));
  EXPECT_GE(b.StandaloneAcksSent(), 1u);
  EXPECT_TRUE(a.Flush(1000));
  EXPECT_EQ(a.UnackedFrames(1), 0u);
}

TEST(ReliableChannel, LivenessEpochAdvancesOnAckProgress) {
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel raw0(hub, 0);
  LoopbackInterShardChannel raw1(hub, 1);
  ReliableInterShardChannel a(raw0, FastOptions());
  ReliableInterShardChannel b(raw1, FastOptions());
  const std::uint64_t before_a = a.LivenessEpoch();
  const std::uint64_t before_b = b.LivenessEpoch();
  a.Send(1, FrameOf("tick"));
  ASSERT_TRUE(b.Receive(1000).has_value());
  EXPECT_GT(b.LivenessEpoch(), before_b) << "new data must advance the epoch";
  (void)b.Flush(1000);  // ship the standalone ack
  (void)a.Flush(1000);  // consume it
  EXPECT_GT(a.LivenessEpoch(), before_a) << "ack progress must advance the epoch";
}

TEST(ReliableChannel, CountsMalformedInnerFramesWithoutDying) {
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel raw0(hub, 0);
  LoopbackInterShardChannel raw1(hub, 1);
  ReliableInterShardChannel b(raw1, FastOptions());
  // A peer speaking the unwrapped protocol: its frame has no reliability
  // header, so the decorator must count it and move on, not throw.
  raw0.Send(1, FrameOf("not-a-reliable-frame"));
  EXPECT_FALSE(b.Receive(100).has_value());
  EXPECT_EQ(b.MalformedFrames(), 1u);
}

TEST(ReliableChannel, AdvertisesTheInnerBudgetMinusItsHeader) {
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel raw0(hub, 0);
  ReliableInterShardChannel a(raw0, FastOptions());
  ASSERT_EQ(a.MaxFrameBytes(), raw0.MaxFrameBytes() - kReliableDataHeaderBytes);
  // The advertised budget is exact: a frame of that size wraps and ships.
  a.Send(1, std::vector<std::byte>(a.MaxFrameBytes(), std::byte{1}));
  EXPECT_THROW(a.Send(1, std::vector<std::byte>(a.MaxFrameBytes() + 1)),
               std::invalid_argument);
}

TEST(ReliableChannel, ValidatesOptions) {
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel raw0(hub, 0);
  ReliableChannelOptions bad = FastOptions();
  bad.initial_rto_ms = 0;
  EXPECT_THROW(ReliableInterShardChannel(raw0, bad), std::invalid_argument);
}

// ------------------------------------------------------------------------
// ChunkAssembler under duplication (the consumer the reliability layer
// feeds: even with exactly-once transport, the assembler keeps its own
// duplicate tolerance for the raw-backend configurations)

TEST(ChunkAssembler, DuplicateFinalChunkIsSuppressedNotFatal) {
  ChunkAssembler assembler;
  EXPECT_TRUE(assembler.Mark(0, false));
  EXPECT_TRUE(assembler.Mark(1, true));
  EXPECT_TRUE(assembler.Complete());
  // The duplicated final chunk of a 2-chunk transfer: same index, same
  // is_last — a retransmitted datagram, not a protocol violation.
  EXPECT_FALSE(assembler.Mark(1, true));
  EXPECT_TRUE(assembler.Complete());
  EXPECT_FALSE(assembler.Mark(0, false));
}

TEST(ChunkAssembler, ContradictingFinalChunksThrow) {
  ChunkAssembler assembler;
  EXPECT_TRUE(assembler.Mark(2, true));  // total established: 3 chunks
  // A second final at a different index contradicts the established total.
  EXPECT_THROW((void)assembler.Mark(1, true), common::DecodeError);
  // As does any index at or beyond the final chunk.
  EXPECT_THROW((void)assembler.Mark(3, false), common::DecodeError);
  EXPECT_TRUE(assembler.Mark(0, false));
  EXPECT_TRUE(assembler.Mark(1, false));
  EXPECT_TRUE(assembler.Complete());
}

TEST(ChunkAssembler, TopIndicesNeitherCrashNorComplete) {
  // The index is a u32 read from peer bytes.  At the top of its range,
  // index + 1 must not wrap the chunk count to 0 (nor hit an "unknown"
  // sentinel), and state must not be sized by the index claimed.
  constexpr std::uint32_t kTop = 0xffffffffu;
  for (const bool is_last : {false, true}) {
    SCOPED_TRACE(is_last);
    ChunkAssembler assembler;
    EXPECT_TRUE(assembler.Mark(kTop, is_last));
    EXPECT_FALSE(assembler.Complete());
    EXPECT_FALSE(assembler.Mark(kTop, is_last));  // duplicate suppressed
    EXPECT_TRUE(assembler.Mark(0, false));
    EXPECT_FALSE(assembler.Complete());  // 2 of 2^32 chunks, or no total yet
  }
  ChunkAssembler assembler;
  EXPECT_TRUE(assembler.Mark(kTop - 1, true));  // claims 2^32 - 1 chunks
  EXPECT_FALSE(assembler.Complete());
  EXPECT_THROW((void)assembler.Mark(kTop, false), common::DecodeError);
  EXPECT_THROW((void)assembler.Mark(0, true), common::DecodeError);
  EXPECT_TRUE(assembler.Mark(0, false));
  EXPECT_FALSE(assembler.Complete());
}

TEST(ChunkAssembler, FinalChunkBelowAReceivedIndexThrows) {
  ChunkAssembler assembler;
  EXPECT_TRUE(assembler.Mark(5, false));
  EXPECT_THROW((void)assembler.Mark(2, true), common::DecodeError);
}

}  // namespace
}  // namespace dmfsgd::netsim
