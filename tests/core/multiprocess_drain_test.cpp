// Determinism of the multi-process async drain (DESIGN.md §12).
//
// The acceptance property of the distributed simulator: a run split across
// processes — threads over the loopback hub, or real forked processes over
// UDP datagrams — produces final coordinates and counters bit-identical to
// a single-process drain of the same seed and shard count.  Pinned under
// loss, churn, the wire codec and both algorithms.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/thread_pool.hpp"
#include "core/multiprocess.hpp"
#include "datasets/hps3.hpp"
#include "datasets/meridian.hpp"
#include "netsim/inter_shard_channel.hpp"
#include "netsim/shard_runtime.hpp"

namespace dmfsgd::core {
namespace {

using datasets::Dataset;

Dataset SmallRtt() {
  datasets::MeridianConfig config;
  config.node_count = 80;
  config.seed = 31;
  return datasets::MakeMeridian(config);
}

Dataset SmallAbw() {
  datasets::HpS3Config config;
  config.host_count = 80;
  config.seed = 33;
  return datasets::MakeHpS3(config);
}

AsyncSimulationConfig BaseConfig(const Dataset& dataset, std::size_t shards) {
  AsyncSimulationConfig config;
  config.base.rank = 10;
  config.base.neighbor_count = 12;
  config.base.tau = dataset.MedianValue();
  config.base.seed = 5;
  config.mean_probe_interval_s = 1.0;
  config.shard_count = shards;
  return config;
}

/// The single-process reference: the same sharded-drain regime, one process.
struct Reference {
  explicit Reference(const Dataset& dataset, const AsyncSimulationConfig& config,
                     double until_s)
      : simulation(dataset, config) {
    common::ThreadPool pool(1);
    simulation.RunUntilParallel(until_s, pool);
  }
  AsyncDmfsgdSimulation simulation;
};

void ExpectReportMatchesReference(const MultiprocessRunReport& report,
                                  const Reference& reference,
                                  bool expect_same_event_count = true) {
  const auto& store = reference.simulation.engine().store();
  ASSERT_EQ(report.node_count, store.NodeCount());
  ASSERT_EQ(report.rank, store.rank());
  const auto u = store.UData();
  const auto v = store.VData();
  ASSERT_EQ(report.u.size(), u.size());
  ASSERT_EQ(report.v.size(), v.size());
  EXPECT_EQ(std::memcmp(report.u.data(), u.data(), u.size_bytes()), 0);
  EXPECT_EQ(std::memcmp(report.v.data(), v.data(), v.size_bytes()), 0);
  if (expect_same_event_count) {
    // Envelope coalescing merges several messages into one event, so a
    // coalesced run's executed-event count legitimately undercuts the
    // per-message reference; everything protocol-visible must still match.
    EXPECT_EQ(report.events_executed, reference.simulation.EventsExecuted());
  }
  EXPECT_EQ(report.windows, reference.simulation.WindowsExecuted());
  EXPECT_EQ(report.measurements, reference.simulation.MeasurementCount());
  EXPECT_EQ(report.dropped_legs, reference.simulation.DroppedLegs());
  EXPECT_EQ(report.churns, reference.simulation.ChurnCount());
}

/// Forwards to a backend and keeps the size of the largest window-protocol
/// frame (type byte 2) it sent.  Result-fold frames are budgeted against
/// the channel's MaxFrameBytes, not max_frame_bytes, so they are not
/// counted.
class WindowFrameSizeRecorder final : public netsim::InterShardChannel {
 public:
  WindowFrameSizeRecorder(netsim::InterShardChannel& inner,
                          std::size_t& largest)
      : inner_(&inner), largest_(&largest) {}

  [[nodiscard]] std::size_t ProcessCount() const noexcept override {
    return inner_->ProcessCount();
  }
  [[nodiscard]] std::size_t ProcessIndex() const noexcept override {
    return inner_->ProcessIndex();
  }
  void Send(std::size_t to_process, std::span<const std::byte> frame) override {
    if (static_cast<std::uint8_t>(frame.front()) == 2) {
      *largest_ = std::max(*largest_, frame.size());
    }
    inner_->Send(to_process, frame);
  }
  [[nodiscard]] std::optional<netsim::InterShardFrame> Receive(
      int timeout_ms) override {
    return inner_->Receive(timeout_ms);
  }
  [[nodiscard]] const char* Name() const noexcept override {
    return "window-frame-size-recorder";
  }

 private:
  netsim::InterShardChannel* inner_;
  std::size_t* largest_;
};

/// Runs all `processes` shares on threads over a loopback hub; returns the
/// coordinator's folded report.  With `largest_window_frame` (one slot per
/// process), every process sends through a WindowFrameSizeRecorder.
MultiprocessRunReport RunOverLoopback(
    const Dataset& dataset, const AsyncSimulationConfig& config,
    std::size_t processes, double until_s, std::size_t pool_threads,
    const netsim::ShardRuntimeOptions& runtime_options =
        netsim::ShardRuntimeOptions(),
    std::vector<std::size_t>* largest_window_frame = nullptr) {
  netsim::LoopbackInterShardHub hub(processes);
  std::vector<MultiprocessRunReport> reports(processes);
  std::vector<std::exception_ptr> errors(processes);
  std::vector<std::thread> threads;
  threads.reserve(processes);
  for (std::size_t p = 0; p < processes; ++p) {
    threads.emplace_back([&, p] {
      try {
        netsim::LoopbackInterShardChannel loopback(hub, p);
        std::optional<WindowFrameSizeRecorder> recorder;
        netsim::InterShardChannel* channel = &loopback;
        if (largest_window_frame != nullptr) {
          channel = &recorder.emplace(loopback, (*largest_window_frame)[p]);
        }
        common::ThreadPool pool(pool_threads);
        reports[p] = RunMultiprocessAsyncSimulation(
            dataset, config, *channel, until_s, pool, runtime_options);
      } catch (...) {
        errors[p] = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (const auto& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  return reports[0];
}

TEST(MultiprocessDrain, TwoProcessesOverLoopbackMatchSingleProcess) {
  const Dataset dataset = SmallRtt();
  const AsyncSimulationConfig config = BaseConfig(dataset, 4);
  const Reference reference(dataset, config, 20.0);
  EXPECT_GT(reference.simulation.MeasurementCount(), 0u);
  const auto report = RunOverLoopback(dataset, config, 2, 20.0, 1);
  EXPECT_TRUE(report.coordinator);
  ExpectReportMatchesReference(report, reference);
}

TEST(MultiprocessDrain, PoolSizeInsideEachProcessWashesOut) {
  const Dataset dataset = SmallRtt();
  const AsyncSimulationConfig config = BaseConfig(dataset, 4);
  const Reference reference(dataset, config, 15.0);
  const auto report = RunOverLoopback(dataset, config, 2, 15.0, 3);
  ExpectReportMatchesReference(report, reference);
}

TEST(MultiprocessDrain, ThreeProcessesAbwWithLossChurnAndWireCodec) {
  const Dataset dataset = SmallAbw();
  AsyncSimulationConfig config = BaseConfig(dataset, 6);
  config.base.message_loss = 0.2;
  config.base.churn_rate = 0.005;
  config.base.use_wire_format = true;
  const Reference reference(dataset, config, 15.0);
  EXPECT_GT(reference.simulation.DroppedLegs(), 0u);
  const auto report = RunOverLoopback(dataset, config, 3, 15.0, 1);
  ExpectReportMatchesReference(report, reference);
}

TEST(MultiprocessDrain, RejectsUnderspecifiedConfigurations) {
  const Dataset dataset = SmallRtt();
  netsim::LoopbackInterShardHub hub(2);
  netsim::LoopbackInterShardChannel channel(hub, 0);
  common::ThreadPool pool(1);
  AsyncSimulationConfig hardware_resolved = BaseConfig(dataset, 0);
  EXPECT_THROW((void)RunMultiprocessAsyncSimulation(dataset, hardware_resolved,
                                                    channel, 5.0, pool),
               std::invalid_argument);
  AsyncSimulationConfig too_few_shards = BaseConfig(dataset, 1);
  EXPECT_THROW((void)RunMultiprocessAsyncSimulation(dataset, too_few_shards,
                                                    channel, 5.0, pool),
               std::invalid_argument);
}

/// Constant-delay burst traffic (DESIGN.md §13): every one-way delay is
/// exactly 0.05 s, so a burst's cross-process replies share (owner, time)
/// and the coalesced barrier merges them into batch envelopes.
AsyncSimulationConfig BurstConfig(const Dataset& dataset, std::size_t shards,
                                  bool coalesce) {
  AsyncSimulationConfig config = BaseConfig(dataset, shards);
  config.base.probe_burst = 4;
  config.base.tau = dataset.MedianValue();
  config.base.coalesce_delivery = coalesce;
  config.min_oneway_delay_s = 0.05;
  config.max_oneway_delay_s = 0.05;
  return config;
}

TEST(MultiprocessDrain, CoalescedEnvelopesKeepParityWithFewerEventsAndFrames) {
  const Dataset dataset = SmallAbw();
  netsim::ShardRuntimeOptions mtu_frames;
  mtu_frames.max_frame_bytes = 1400;  // MTU-sized frames make the win visible
  auto dense = [&](bool coalesce) {
    // Dense burst traffic: enough reply records per window that the ~24
    // bytes the batch envelope saves per merged item reliably drops whole
    // frames, not just bytes.
    AsyncSimulationConfig config = BurstConfig(dataset, 8, coalesce);
    config.mean_probe_interval_s = 0.25;
    return config;
  };
  const auto per_message =
      RunOverLoopback(dataset, dense(false), 2, 6.0, 1, mtu_frames);
  std::vector<std::size_t> largest_window_frame(2, 0);
  const auto coalesced = RunOverLoopback(dataset, dense(true), 2, 6.0, 1,
                                         mtu_frames, &largest_window_frame);
  // Chunk 0 carries the next-window vector (4 + 8 * 8 bytes here) inside
  // the same budget: no window frame outgrows the MTU.
  for (const std::size_t largest : largest_window_frame) {
    EXPECT_GT(largest, 0u);
    EXPECT_LE(largest, mtu_frames.max_frame_bytes);
  }

  // Bit-identical protocol outcome (the single-process parallel drain is the
  // same trajectory as the per-message distributed run, already pinned
  // above), fewer events, fewer frames.
  ASSERT_EQ(coalesced.u.size(), per_message.u.size());
  EXPECT_EQ(std::memcmp(coalesced.u.data(), per_message.u.data(),
                        coalesced.u.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(coalesced.v.data(), per_message.v.data(),
                        coalesced.v.size() * sizeof(double)),
            0);
  EXPECT_EQ(coalesced.measurements, per_message.measurements);
  EXPECT_EQ(coalesced.dropped_legs, per_message.dropped_legs);
  EXPECT_EQ(coalesced.windows, per_message.windows);
  EXPECT_LT(coalesced.events_executed, per_message.events_executed);
  EXPECT_LT(coalesced.frames_sent, per_message.frames_sent);

  // And the coalesced distributed run still matches the single-process
  // sharded drain bit for bit (events differ by the merges; that is the
  // point).
  const Reference reference(dataset, dense(true), 6.0);
  ExpectReportMatchesReference(coalesced, reference,
                               /*expect_same_event_count=*/false);
}

/// Forwards to a backend but swallows result-fold frames (type bytes 16 and
/// 17): a peer that finished the drain and died before its fold arrived.
class FoldSwallowingChannel final : public netsim::InterShardChannel {
 public:
  explicit FoldSwallowingChannel(netsim::InterShardChannel& inner)
      : inner_(&inner) {}

  [[nodiscard]] std::size_t ProcessCount() const noexcept override {
    return inner_->ProcessCount();
  }
  [[nodiscard]] std::size_t ProcessIndex() const noexcept override {
    return inner_->ProcessIndex();
  }
  void Send(std::size_t to_process, std::span<const std::byte> frame) override {
    const auto type = static_cast<std::uint8_t>(frame.front());
    if (type != 16 && type != 17) {
      inner_->Send(to_process, frame);
    }
  }
  [[nodiscard]] std::optional<netsim::InterShardFrame> Receive(
      int timeout_ms) override {
    return inner_->Receive(timeout_ms);
  }
  [[nodiscard]] const char* Name() const noexcept override {
    return "fold-swallowing";
  }

 private:
  netsim::InterShardChannel* inner_;
};

// The coordinator's result fold waits under the runtime's stall_timeout_s,
// like every gather of the window loop, not under a timeout of its own.
TEST(MultiprocessDrain, ResultFoldStallsAfterTheRuntimeStallTimeout) {
  const Dataset dataset = SmallRtt();
  const AsyncSimulationConfig config = BaseConfig(dataset, 4);
  netsim::ShardRuntimeOptions options;
  options.stall_timeout_s = 1.0;
  netsim::LoopbackInterShardHub hub(2);
  std::exception_ptr peer_error;
  std::thread peer([&] {
    try {
      netsim::LoopbackInterShardChannel loopback(hub, 1);
      FoldSwallowingChannel swallowing(loopback);
      common::ThreadPool pool(1);
      (void)RunMultiprocessAsyncSimulation(dataset, config, swallowing, 5.0,
                                           pool, options);
    } catch (...) {
      peer_error = std::current_exception();
    }
  });
  netsim::LoopbackInterShardChannel channel(hub, 0);
  common::ThreadPool pool(1);
  const auto start = std::chrono::steady_clock::now();
  try {
    (void)RunMultiprocessAsyncSimulation(dataset, config, channel, 5.0, pool,
                                         options);
    ADD_FAILURE() << "a fold that never arrives must trip the stall timeout";
  } catch (const netsim::StallError& stall) {
    EXPECT_EQ(stall.Phase(), "result-fold");
  }
  const double waited_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  peer.join();
  EXPECT_FALSE(peer_error) << "the peer's own run must succeed";
  EXPECT_LT(waited_s, 15.0) << "the fold ignored stall_timeout_s = 1";
}

/// Forwards to a backend but rewrites the first result-fold frame of
/// `type` (16 owned rows, 17 counters) it sends: a peer whose fold lies.
class FoldFrameRewritingChannel final : public netsim::InterShardChannel {
 public:
  using Rewrite = std::function<void(std::vector<std::byte>&)>;

  FoldFrameRewritingChannel(netsim::InterShardChannel& inner, std::uint8_t type,
                            Rewrite rewrite)
      : inner_(&inner), type_(type), rewrite_(std::move(rewrite)) {}

  [[nodiscard]] std::size_t ProcessCount() const noexcept override {
    return inner_->ProcessCount();
  }
  [[nodiscard]] std::size_t ProcessIndex() const noexcept override {
    return inner_->ProcessIndex();
  }
  void Send(std::size_t to_process, std::span<const std::byte> frame) override {
    if (rewritten_ || static_cast<std::uint8_t>(frame.front()) != type_) {
      inner_->Send(to_process, frame);
      return;
    }
    std::vector<std::byte> bytes(frame.begin(), frame.end());
    rewrite_(bytes);
    rewritten_ = true;
    inner_->Send(to_process, bytes);
  }
  [[nodiscard]] std::optional<netsim::InterShardFrame> Receive(
      int timeout_ms) override {
    return inner_->Receive(timeout_ms);
  }
  [[nodiscard]] const char* Name() const noexcept override {
    return "fold-frame-rewriting";
  }

 private:
  netsim::InterShardChannel* inner_;
  std::uint8_t type_;
  Rewrite rewrite_;
  bool rewritten_ = false;
};

// Offsets in a rows frame: type (1) | chunk (4) | last (1) | rows (4) |
// per row: node (4), u and v (8 · rank each).
constexpr std::size_t kRowCountAt = 6;
constexpr std::size_t kFirstNodeAt = 10;

void WriteU32(std::vector<std::byte>& bytes, std::size_t at,
              std::uint32_t value) {
  common::ByteWriter writer;
  writer.U32(value);
  const std::vector<std::byte> encoded = writer.Take();
  std::copy(encoded.begin(), encoded.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(at));
}

/// Runs a 2-process, 4-shard loopback drain whose peer rewrites its first
/// fold frame of `type`, and returns what the coordinator threw:
/// "DecodeError: <what>", "other: <what>", or "none".
std::string CoordinatorErrorForRewrittenFold(
    std::uint8_t type, const FoldFrameRewritingChannel::Rewrite& rewrite) {
  const Dataset dataset = SmallRtt();
  const AsyncSimulationConfig config = BaseConfig(dataset, 4);
  netsim::ShardRuntimeOptions options;
  options.stall_timeout_s = 5.0;
  netsim::LoopbackInterShardHub hub(2);
  std::exception_ptr peer_error;
  std::thread peer([&] {
    try {
      netsim::LoopbackInterShardChannel loopback(hub, 1);
      FoldFrameRewritingChannel rewriting(loopback, type, rewrite);
      common::ThreadPool pool(1);
      (void)RunMultiprocessAsyncSimulation(dataset, config, rewriting, 5.0,
                                           pool, options);
    } catch (...) {
      peer_error = std::current_exception();
    }
  });
  netsim::LoopbackInterShardChannel channel(hub, 0);
  common::ThreadPool pool(1);
  std::string error = "none";
  try {
    (void)RunMultiprocessAsyncSimulation(dataset, config, channel, 5.0, pool,
                                         options);
  } catch (const common::DecodeError& decode) {
    error = std::string("DecodeError: ") + decode.what();
  } catch (const std::exception& other) {
    error = std::string("other: ") + other.what();
  }
  peer.join();
  EXPECT_FALSE(peer_error) << "the peer's own run must succeed";
  return error;
}

void ExpectDecodeError(const std::string& error, const char* detail) {
  EXPECT_EQ(error.rfind("DecodeError: ", 0), 0u) << error;
  EXPECT_NE(error.find(detail), std::string::npos) << error;
}

// A fold row naming a node outside the deployment is malformed peer input.
TEST(MultiprocessDrain, ResultFoldRejectsAnOutOfRangeNode) {
  const auto node = static_cast<std::uint32_t>(SmallRtt().NodeCount());
  ExpectDecodeError(
      CoordinatorErrorForRewrittenFold(
          16, [&](std::vector<std::byte>& bytes) {
            WriteU32(bytes, kFirstNodeAt, node);
          }),
      "out-of-range node");
}

// A row for a node the sender does not own (here one of the coordinator's
// own) must not overwrite that node's row.
TEST(MultiprocessDrain, ResultFoldRejectsARowOutsideTheSendersBlock) {
  ExpectDecodeError(CoordinatorErrorForRewrittenFold(
                        16,
                        [](std::vector<std::byte>& bytes) {
                          WriteU32(bytes, kFirstNodeAt, 0);
                        }),
                    "out-of-range node");
}

// Trailing bytes are a malformed frame, for both fold frame types.
TEST(MultiprocessDrain, ResultFoldRejectsTrailingBytes) {
  for (const std::uint8_t type : {std::uint8_t{16}, std::uint8_t{17}}) {
    SCOPED_TRACE(static_cast<int>(type));
    ExpectDecodeError(CoordinatorErrorForRewrittenFold(
                          type,
                          [](std::vector<std::byte>& bytes) {
                            bytes.push_back(std::byte{0});
                          }),
                      "trailing bytes");
  }
}

// A peer whose rows skip part of its block would leave construction-time
// replicas in the report: its last row is cut and the count decremented,
// so the frame itself is well formed.
TEST(MultiprocessDrain, ResultFoldRejectsRowsThatDoNotCoverTheBlock) {
  const std::size_t rank = BaseConfig(SmallRtt(), 4).base.rank;
  ExpectDecodeError(
      CoordinatorErrorForRewrittenFold(
          16,
          [&](std::vector<std::byte>& bytes) {
            common::ByteReader reader(
                std::span<const std::byte>(bytes).subspan(kRowCountAt));
            const std::uint32_t rows = reader.U32();
            WriteU32(bytes, kRowCountAt, rows - 1);
            bytes.resize(bytes.size() - (4 + 2 * 8 * rank));
          }),
      "do not cover");
}

/// Runs a genuinely forked 2-process run over real UDP datagrams and
/// returns the coordinator's folded report (asserts the child succeeded).
MultiprocessRunReport RunForkedUdp(const Dataset& dataset,
                                   const AsyncSimulationConfig& config,
                                   double until_s) {
  transport::UdpSocket socket0;
  transport::UdpSocket socket1;
  const std::vector<std::uint16_t> ports = {socket0.Port(), socket1.Port()};
  const pid_t child = fork();
  EXPECT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child = process 1.  No gtest assertions here — report via exit status.
    int status = 1;
    try {
      netsim::UdpInterShardChannel channel(std::move(socket1), 1, ports);
      common::ThreadPool pool(1);
      const auto report = RunMultiprocessAsyncSimulation(dataset, config,
                                                         channel, until_s, pool);
      status = report.coordinator ? 1 : 0;
    } catch (...) {
      status = 1;
    }
    _exit(status);
  }
  netsim::UdpInterShardChannel channel(std::move(socket0), 0, ports);
  common::ThreadPool pool(1);
  const auto report =
      RunMultiprocessAsyncSimulation(dataset, config, channel, until_s, pool);
  int status = -1;
  EXPECT_EQ(waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child process failed";
  return report;
}

// The acceptance pin: a genuinely forked 2-process, 4-shard run over real
// UDP datagrams, bit-identical to the single-process drain of the same seed.
TEST(MultiprocessDrain, ForkedUdpProcessesMatchSingleProcess) {
  const Dataset dataset = SmallRtt();
  const AsyncSimulationConfig config = BaseConfig(dataset, 4);
  const auto report = RunForkedUdp(dataset, config, 12.0);
  const Reference reference(dataset, config, 12.0);
  ExpectReportMatchesReference(report, reference);
}

// Same pin with the batched message plane on (DESIGN.md §13): the forked
// 2-process UDP run with burst traffic and merged batch envelopes stays
// bit-identical to the single-process drain — only the event count drops.
TEST(MultiprocessDrain, ForkedUdpCoalescedRunMatchesSingleProcess) {
  const Dataset dataset = SmallAbw();
  const AsyncSimulationConfig config = BurstConfig(dataset, 4, true);
  const auto report = RunForkedUdp(dataset, config, 10.0);
  const Reference reference(dataset, config, 10.0);
  ExpectReportMatchesReference(report, reference,
                               /*expect_same_event_count=*/false);
  EXPECT_LT(report.events_executed, reference.simulation.EventsExecuted());
}

}  // namespace
}  // namespace dmfsgd::core
