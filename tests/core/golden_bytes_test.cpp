// Golden bytes of every frame encoder reachable without a socket.
//
// Each test pins the exact bytes one encoder produces for a fixed input, as
// lowercase hex (or length plus FNV-1a 64 for the one frame too long to
// read).  The layouts are the contract between the processes of one drain
// and between builds: a rewrite of the byte codec must leave every pin
// unchanged, and a deliberate format change must change exactly the pins it
// names.  Every pin is the little-endian byte order the codec writes on any
// host.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/delivery.hpp"
#include "core/multiprocess.hpp"
#include "core/wire.hpp"
#include "datasets/meridian.hpp"
#include "netsim/event_queue.hpp"
#include "netsim/inter_shard_channel.hpp"
#include "netsim/reliable_channel.hpp"
#include "netsim/shard_runtime.hpp"

namespace dmfsgd::core {
namespace {

std::string Hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const std::byte b : bytes) {
    const auto value = static_cast<unsigned>(b);
    out += kDigits[value >> 4];
    out += kDigits[value & 0xfu];
  }
  return out;
}

std::uint64_t Fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

using Frames = std::vector<std::vector<std::byte>>;

/// Forwards to a backend and appends a copy of every frame sent to `sent`.
class RecordingChannel final : public netsim::InterShardChannel {
 public:
  RecordingChannel(netsim::InterShardChannel& inner, Frames& sent)
      : inner_(&inner), sent_(&sent) {}

  [[nodiscard]] std::size_t ProcessCount() const noexcept override {
    return inner_->ProcessCount();
  }
  [[nodiscard]] std::size_t ProcessIndex() const noexcept override {
    return inner_->ProcessIndex();
  }
  void Send(std::size_t to_process, std::span<const std::byte> frame) override {
    sent_->emplace_back(frame.begin(), frame.end());
    inner_->Send(to_process, frame);
  }
  [[nodiscard]] std::optional<netsim::InterShardFrame> Receive(
      int timeout_ms) override {
    return inner_->Receive(timeout_ms);
  }
  [[nodiscard]] const char* Name() const noexcept override {
    return "recording";
  }

 private:
  netsim::InterShardChannel* inner_;
  Frames* sent_;
};

/// The first frame whose leading type byte is `type` (empty if none).
std::vector<std::byte> FirstOfType(const Frames& frames, std::uint8_t type) {
  for (const std::vector<std::byte>& frame : frames) {
    if (static_cast<std::uint8_t>(frame.front()) == type) {
      return frame;
    }
  }
  return {};
}

/// Runs `body(channel)` as processes 0 and 1 on two threads over one
/// loopback hub, each through a RecordingChannel; rethrows the first error
/// and returns the frames each process sent.
template <typename Body>
std::vector<Frames> RunTwoProcesses(Body body) {
  netsim::LoopbackInterShardHub hub(2);
  std::vector<Frames> sent(2);
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      try {
        netsim::LoopbackInterShardChannel loopback(hub, p);
        RecordingChannel recording(loopback, sent[p]);
        body(recording);
      } catch (...) {
        errors[p] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  return sent;
}

TEST(GoldenBytes, WireMessages) {
  EXPECT_EQ(Hex(Encode(RttProbeRequest{7})), "010107000000");
  EXPECT_EQ(Hex(Encode(RttProbeReply{3, {1.0, -2.5}, {0.5, 4.0}})),
            "010203000000"
            "0200000000000000f03f00000000000004c0"
            "0200000000000000e03f0000000000001040");
  EXPECT_EQ(Hex(Encode(AbwProbeRequest{9, {1.5}, 12.0})),
            "010309000000"
            "0100000000000000f83f"
            "0000000000002840");
  EXPECT_EQ(Hex(Encode(AbwProbeReply{4, 88.25, {-0.125, 2.0}})),
            "010404000000"
            "0000000000105640"
            "0200000000000000c0bf0000000000000040");
}

TEST(GoldenBytes, BatchFrame) {
  MessageBatch batch;
  batch.to = 6;
  batch.items.push_back(BatchItem{1, RttProbeRequest{1}});
  batch.items.push_back(BatchItem{2, AbwProbeReply{2, 3.0, {1.0}}});
  EXPECT_EQ(Hex(EncodeBatchFrame(batch)),
            "01050200"
            "06000000" "010101000000"
            "18000000" "0104020000000000000000000840"
            "0100000000000000f03f");
}

TEST(GoldenBytes, ReliableDataFrameAndAck) {
  const std::vector<std::byte> payload = {std::byte{0xaa}, std::byte{0xbb},
                                          std::byte{0xcc}};
  EXPECT_EQ(Hex(netsim::EncodeReliableData(5, 3, 0x5, payload)),
            "51"
            "0500000000000000"
            "0300000000000000"
            "0500000000000000"
            "03000000"
            "aabbcc");
  EXPECT_EQ(Hex(netsim::EncodeReliableAck(9, 0x8000000000000001ULL)),
            "52"
            "0900000000000000"
            "0100000000000080");
}

// The bytes a remote Send hands the queue's outbox: the payload of one
// cross-process event is the wire message itself, with no endpoint ids (the
// event's owner is the destination, and SenderOf recovers the sender).
TEST(GoldenBytes, CrossProcessEventPayload) {
  netsim::ShardedEventQueue events(/*owners=*/4, /*shards=*/2);
  events.SetOwnedShardRange(0, 1);
  ShardedEventQueueDeliveryChannel channel(events,
                                           [](NodeId, NodeId) { return 1.0; });
  events.Schedule(0, 0.25, [&channel] {
    channel.Send(0, 2, RttProbeReply{0, {1.0}, {2.0}});
  });
  common::ThreadPool pool(1);
  events.BeginWindow({0.5, 0.5});
  events.DrainOwnedShards(pool, 10.0);
  (void)events.FinishWindow();
  const auto remote = events.TakeRemoteEvents();
  ASSERT_EQ(remote.size(), 1u);
  EXPECT_EQ(remote[0].owner, 2u);
  EXPECT_EQ(Hex(remote[0].payload),
            "010200000000"
            "0100000000000000f03f"
            "01000000000000000040");
}

// Process 0's first proposal and first event chunk of a 2-process lock-step
// drain: owners 0-1 on shard 0 (process 0), owners 2-3 on shard 1
// (process 1), one cross-process event each way in window 0.
TEST(GoldenBytes, WindowProposeAndEventChunk) {
  const std::vector<Frames> sent =
      RunTwoProcesses([](netsim::InterShardChannel& channel) {
        netsim::ShardedEventQueue queue(/*owners=*/4, /*shards=*/2);
        netsim::ShardRuntime runtime(
            queue, channel, netsim::LookaheadMatrix(2, 1.0),
            [](netsim::ShardedEventQueue::OwnerId, std::vector<std::byte>) {
              return netsim::ShardedEventQueue::Callback([] {});
            });
        queue.Schedule(0, 0.25, [&queue] {
          queue.ScheduleRemote(2, 1.0, {std::byte{0xab}, std::byte{0xcd}});
        });
        queue.Schedule(2, 0.5, [&queue] {
          queue.ScheduleRemote(1, 1.0, {std::byte{0x01}});
        });
        common::ThreadPool pool(1);
        (void)runtime.RunUntil(3.0, pool);
      });
  EXPECT_EQ(Hex(FirstOfType(sent[0], 1)),
            "01" "0000000000000000" "01000000"
            "00000000" "000000000000d03f");
  EXPECT_EQ(Hex(FirstOfType(sent[0], 2)),
            "02" "0000000000000000" "00000000" "01" "01000000"
            "02000000" "000000000000f43f" "00000000" "0000000000000000"
            "02000000" "abcd");
}

// Process 1's share of the coordinator's result fold: its first owned-rows
// chunk (type 16) and its counter frame (type 17).
TEST(GoldenBytes, ResultFoldFrames) {
  datasets::MeridianConfig data;
  data.node_count = 16;
  data.seed = 31;
  const datasets::Dataset dataset = datasets::MakeMeridian(data);
  AsyncSimulationConfig config;
  config.base.rank = 2;
  config.base.neighbor_count = 4;
  config.base.tau = dataset.MedianValue();
  config.base.seed = 5;
  config.mean_probe_interval_s = 1.0;
  config.shard_count = 2;

  const std::vector<Frames> sent =
      RunTwoProcesses([&](netsim::InterShardChannel& channel) {
        common::ThreadPool pool(1);
        (void)RunMultiprocessAsyncSimulation(dataset, config, channel, 4.0, pool);
      });
  const std::vector<std::byte> rows = FirstOfType(sent[1], 16);
  ASSERT_GE(rows.size(), 10u);
  EXPECT_EQ(rows.size(), 298u);
  EXPECT_EQ(Hex(std::span<const std::byte>(rows).first(10)),
            "10" "00000000" "01" "08000000");
  EXPECT_EQ(Fnv1a(rows), 0x3ff0c88cdc382f3dULL);
  EXPECT_EQ(Hex(FirstOfType(sent[1], 17)),
            "11"
            "5f00000000000000"
            "2000000000000000"
            "0000000000000000"
            "0000000000000000");
}

}  // namespace
}  // namespace dmfsgd::core
