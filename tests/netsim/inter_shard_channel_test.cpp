// Frame transport between the processes of a distributed drain: the
// loopback hub (threads as processes) and the UDP backend must both deliver
// opaque frames with correct sender attribution, tolerate strays, and
// enforce the frame-size bound the runtime's chunking relies on.
#include "netsim/inter_shard_channel.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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

TEST(LoopbackInterShardChannel, DeliversFramesWithSenderAttribution) {
  LoopbackInterShardHub hub(3);
  LoopbackInterShardChannel a(hub, 0);
  LoopbackInterShardChannel b(hub, 1);
  LoopbackInterShardChannel c(hub, 2);
  a.Send(1, FrameOf("from-a"));
  c.Send(1, FrameOf("from-c"));
  const auto first = b.Receive(1000);
  const auto second = b.Receive(1000);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->from_process, 0u);
  EXPECT_EQ(TextOf(first->bytes), "from-a");
  EXPECT_EQ(second->from_process, 2u);
  EXPECT_EQ(TextOf(second->bytes), "from-c");
  EXPECT_FALSE(b.Receive(0).has_value());
}

TEST(LoopbackInterShardChannel, PreservesPerSenderOrder) {
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel a(hub, 0);
  LoopbackInterShardChannel b(hub, 1);
  for (int i = 0; i < 10; ++i) {
    a.Send(1, FrameOf("frame-" + std::to_string(i)));
  }
  for (int i = 0; i < 10; ++i) {
    const auto frame = b.Receive(1000);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(TextOf(frame->bytes), "frame-" + std::to_string(i));
  }
}

TEST(LoopbackInterShardChannel, BlocksAcrossThreadsUntilAFrameArrives) {
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel a(hub, 0);
  LoopbackInterShardChannel b(hub, 1);
  std::thread sender([&] { a.Send(1, FrameOf("late")); });
  const auto frame = b.Receive(5000);
  sender.join();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(TextOf(frame->bytes), "late");
}

TEST(LoopbackInterShardChannel, ValidatesSendArguments) {
  LoopbackInterShardHub hub(2);
  LoopbackInterShardChannel a(hub, 0);
  EXPECT_THROW(a.Send(0, FrameOf("self")), std::invalid_argument);
  EXPECT_THROW(a.Send(2, FrameOf("bad")), std::invalid_argument);
  EXPECT_THROW(a.Send(1, {}), std::invalid_argument);
  EXPECT_THROW(a.Send(1, std::vector<std::byte>(kMaxFrameBytes + 1)),
               std::invalid_argument);
  EXPECT_THROW(LoopbackInterShardChannel(hub, 2), std::invalid_argument);
}

TEST(UdpInterShardChannel, DeliversFramesBothWays) {
  transport::UdpSocket socket0;
  transport::UdpSocket socket1;
  const std::vector<std::uint16_t> ports = {socket0.Port(), socket1.Port()};
  UdpInterShardChannel a(std::move(socket0), 0, ports);
  UdpInterShardChannel b(std::move(socket1), 1, ports);
  a.Send(1, FrameOf("ping"));
  const auto at_b = b.Receive(2000);
  ASSERT_TRUE(at_b.has_value());
  EXPECT_EQ(at_b->from_process, 0u);
  EXPECT_EQ(TextOf(at_b->bytes), "ping");
  b.Send(0, FrameOf("pong"));
  const auto at_a = a.Receive(2000);
  ASSERT_TRUE(at_a.has_value());
  EXPECT_EQ(at_a->from_process, 1u);
  EXPECT_EQ(TextOf(at_a->bytes), "pong");
}

TEST(UdpInterShardChannel, DropsStrayAndMalformedDatagrams) {
  transport::UdpSocket socket0;
  transport::UdpSocket socket1;
  const std::vector<std::uint16_t> ports = {socket0.Port(), socket1.Port()};
  const std::uint16_t port0 = ports[0];
  UdpInterShardChannel a(std::move(socket0), 0, ports);
  // A stray peer not in the port table: its datagram claims process 1 but
  // comes from the wrong port, so the channel must discard it.
  transport::UdpSocket stray;
  std::vector<std::byte> spoofed(8);
  const std::uint32_t claimed = 1;
  std::memcpy(spoofed.data(), &claimed, sizeof(claimed));
  stray.SendTo(spoofed, port0);
  // Too short to carry even the sender prefix.
  stray.SendTo(std::vector<std::byte>(2), port0);
  EXPECT_FALSE(a.Receive(200).has_value());
  // Each discard shows up in the transport counters (and through the
  // Diagnostics snapshot the stall report renders) so a misconfigured
  // deployment is visible, not silent.
  EXPECT_EQ(a.StrayDatagrams(), 1u);
  EXPECT_EQ(a.DroppedDatagrams(), 1u);
  EXPECT_EQ(a.Diagnostics().stray_datagrams, 1u);
  EXPECT_EQ(a.Diagnostics().dropped_datagrams, 1u);
  // A legitimate frame after the garbage still gets through.
  UdpInterShardChannel b(std::move(socket1), 1, ports);
  b.Send(0, FrameOf("real"));
  const auto frame = a.Receive(2000);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(TextOf(frame->bytes), "real");
}

TEST(UdpInterShardChannel, RejectsMismatchedSocketBinding) {
  transport::UdpSocket socket0;
  transport::UdpSocket socket1;
  const std::vector<std::uint16_t> ports = {socket0.Port(), socket1.Port()};
  EXPECT_THROW(UdpInterShardChannel(std::move(socket1), 0, ports),
               std::invalid_argument);
}

}  // namespace
}  // namespace dmfsgd::netsim
