// The deterministic fault injector of DESIGN.md §15: same seed, same fault
// pattern — the property the lossy parity suite leans on — plus the kill
// switch that simulates a crashed process for the StallError tests.
#include "netsim/fault_channel.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "netsim/inter_shard_channel.hpp"

namespace dmfsgd::netsim {
namespace {

std::vector<std::byte> FrameOf(const std::string& text) {
  std::vector<std::byte> bytes(text.size());
  std::memcpy(bytes.data(), text.data(), text.size());
  return bytes;
}

std::string TextOf(const std::vector<std::byte>& bytes) {
  return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

/// Sends `count` numbered frames through a fresh faulted link and returns
/// what the far side received, in order.
std::vector<std::string> DeliveredUnder(const FaultChannelOptions& options,
                                        int count) {
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel raw0(hub, 0);
  LoopbackInterShardChannel raw1(hub, 1);
  FaultInjectingInterShardChannel faulty(raw0, options);
  for (int i = 0; i < count; ++i) {
    faulty.Send(1, FrameOf("frame-" + std::to_string(i)));
  }
  (void)faulty.Flush(100);  // release reorder holds
  std::vector<std::string> delivered;
  while (auto frame = raw1.Receive(20)) {
    delivered.push_back(TextOf(frame->bytes));
  }
  return delivered;
}

TEST(FaultChannel, SameSeedSameFaultPattern) {
  FaultChannelOptions options;
  options.outbound.drop_rate = 0.3;
  options.outbound.duplicate_rate = 0.2;
  options.outbound.reorder_rate = 0.1;
  options.seed = 0xabc;
  const auto first = DeliveredUnder(options, 50);
  const auto second = DeliveredUnder(options, 50);
  EXPECT_EQ(first, second);
  options.seed = 0xdef;
  const auto reseeded = DeliveredUnder(options, 50);
  EXPECT_NE(first, reseeded) << "a new seed should perturb the pattern";
}

TEST(FaultChannel, CertainDropDeliversNothing) {
  FaultChannelOptions options;
  options.outbound.drop_rate = 1.0;
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel raw0(hub, 0);
  LoopbackInterShardChannel raw1(hub, 1);
  FaultInjectingInterShardChannel faulty(raw0, options);
  for (int i = 0; i < 10; ++i) {
    faulty.Send(1, FrameOf("doomed"));
  }
  EXPECT_FALSE(raw1.Receive(50).has_value());
  EXPECT_EQ(faulty.FramesDropped(), 10u);
}

TEST(FaultChannel, CertainDuplicationDeliversEveryFrameTwice) {
  FaultChannelOptions options;
  options.outbound.duplicate_rate = 1.0;
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel raw0(hub, 0);
  LoopbackInterShardChannel raw1(hub, 1);
  FaultInjectingInterShardChannel faulty(raw0, options);
  faulty.Send(1, FrameOf("twice"));
  const auto first = raw1.Receive(1000);
  const auto second = raw1.Receive(1000);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(TextOf(first->bytes), "twice");
  EXPECT_EQ(TextOf(second->bytes), "twice");
  EXPECT_EQ(faulty.FramesDuplicated(), 1u);
}

TEST(FaultChannel, ReorderSwapsWithTheNextFrameToTheSamePeer) {
  FaultChannelOptions options;
  options.outbound.reorder_rate = 1.0;
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel raw0(hub, 0);
  LoopbackInterShardChannel raw1(hub, 1);
  FaultInjectingInterShardChannel faulty(raw0, options);
  faulty.Send(1, FrameOf("first"));   // held
  faulty.Send(1, FrameOf("second"));  // held; releases "first" behind it? no:
  // every frame draws reorder, so each send holds itself and releases the
  // previous hold — the stream arrives shifted by one.
  (void)faulty.Flush(100);
  std::vector<std::string> delivered;
  while (auto frame = raw1.Receive(20)) {
    delivered.push_back(TextOf(frame->bytes));
  }
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_NE(delivered, (std::vector<std::string>{"first", "second"}))
      << "certain reorder must not deliver in order";
  EXPECT_GT(faulty.FramesReordered(), 0u);
}

TEST(FaultChannel, ReorderHoldFlushesOnTimeWithoutFurtherTraffic) {
  // A pure-reorder stack with no follow-up frame must still deliver: the
  // hold releases on the kReorderFlush timer serviced by Receive, so the
  // lock-step window barrier cannot wedge on a lone held frame.
  FaultChannelOptions options;
  options.outbound.reorder_rate = 1.0;
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel raw0(hub, 0);
  LoopbackInterShardChannel raw1(hub, 1);
  FaultInjectingInterShardChannel faulty(raw0, options);
  faulty.Send(1, FrameOf("lonely"));
  EXPECT_FALSE(raw1.Receive(0).has_value()) << "the hold released too early";
  std::optional<InterShardFrame> frame;
  for (int spin = 0; spin < 200 && !frame.has_value(); ++spin) {
    EXPECT_FALSE(faulty.Receive(2).has_value());  // services the flush timer
    frame = raw1.Receive(0);
  }
  ASSERT_TRUE(frame.has_value()) << "the reorder hold never flushed";
  EXPECT_EQ(TextOf(frame->bytes), "lonely");
}

TEST(FaultChannel, KillSwitchBlackholesBothDirections) {
  FaultChannelOptions options;
  options.kill_after_frames = 3;
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel raw0(hub, 0);
  LoopbackInterShardChannel raw1(hub, 1);
  FaultInjectingInterShardChannel faulty(raw0, options);
  for (int i = 0; i < 6; ++i) {
    faulty.Send(1, FrameOf("frame-" + std::to_string(i)));
  }
  EXPECT_TRUE(faulty.Killed());
  int delivered = 0;
  while (raw1.Receive(20).has_value()) {
    ++delivered;
  }
  EXPECT_EQ(delivered, 3) << "sends after the kill must vanish";
  // Inbound traffic is swallowed too: the dead process hears nothing.
  raw1.Send(0, FrameOf("are-you-there"));
  EXPECT_FALSE(faulty.Receive(100).has_value());
  EXPECT_FALSE(faulty.Flush(10)) << "a dead endpoint cannot flush";
}

TEST(FaultChannel, ValidatesRates) {
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel raw0(hub, 0);
  FaultChannelOptions bad;
  bad.outbound.drop_rate = 1.5;
  EXPECT_THROW(FaultInjectingInterShardChannel(raw0, bad),
               std::invalid_argument);
  bad = FaultChannelOptions();
  bad.outbound.reorder_rate = -0.1;
  EXPECT_THROW(FaultInjectingInterShardChannel(raw0, bad),
               std::invalid_argument);
}

// NaN compares false against every bound; accepted, it would silently act
// as a rate of 0.
TEST(FaultChannel, RejectsNaNRates) {
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel raw0(hub, 0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double FaultSpec::*rate :
       {&FaultSpec::drop_rate, &FaultSpec::duplicate_rate,
        &FaultSpec::reorder_rate}) {
    FaultChannelOptions bad;
    bad.outbound.*rate = nan;
    EXPECT_THROW(FaultInjectingInterShardChannel(raw0, bad),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace dmfsgd::netsim
