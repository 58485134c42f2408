// The reliability acceptance pins of DESIGN.md §15: a distributed drain
// whose inter-shard link drops, duplicates and reorders frames — repaired
// one layer up by ReliableInterShardChannel — produces final coordinates
// and counters bit-identical to the lossless single-process drain.  Plus
// the failure half: a peer killed mid-run must surface as StallError with
// actionable per-peer diagnostics, not as a wedged suite.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/multiprocess.hpp"
#include "datasets/meridian.hpp"
#include "netsim/fault_channel.hpp"
#include "netsim/inter_shard_channel.hpp"
#include "netsim/reliable_channel.hpp"
#include "netsim/shard_runtime.hpp"

namespace dmfsgd::core {
namespace {

using datasets::Dataset;

Dataset SmallRtt() {
  datasets::MeridianConfig config;
  config.node_count = 64;
  config.seed = 31;
  return datasets::MakeMeridian(config);
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

/// The single-process reference: the same sharded-drain regime, one
/// process, no transport at all — what every lossy run must reproduce.
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
                                  const Reference& reference) {
  const auto& store = reference.simulation.engine().store();
  ASSERT_EQ(report.node_count, store.NodeCount());
  ASSERT_EQ(report.rank, store.rank());
  const auto u = store.UData();
  const auto v = store.VData();
  ASSERT_EQ(report.u.size(), u.size());
  ASSERT_EQ(report.v.size(), v.size());
  EXPECT_EQ(std::memcmp(report.u.data(), u.data(), u.size_bytes()), 0);
  EXPECT_EQ(std::memcmp(report.v.data(), v.data(), v.size_bytes()), 0);
  EXPECT_EQ(report.events_executed, reference.simulation.EventsExecuted());
  EXPECT_EQ(report.windows, reference.simulation.WindowsExecuted());
  EXPECT_EQ(report.measurements, reference.simulation.MeasurementCount());
  EXPECT_EQ(report.dropped_legs, reference.simulation.DroppedLegs());
  EXPECT_EQ(report.churns, reference.simulation.ChurnCount());
}

/// Loopback-speed retransmit timers: the tests measure the protocol, not
/// default LAN-scale waits.
netsim::ReliableChannelOptions FastReliable() {
  netsim::ReliableChannelOptions options;
  options.initial_rto_ms = 5;
  options.ack_delay_ms = 2;
  return options;
}

/// Runs all `processes` shares on threads over a loopback hub, each behind
/// a fault injector (per-process seed) and a reliability layer; returns the
/// coordinator's folded report.  A per-process exception is rethrown.
MultiprocessRunReport RunOverLossyLoopback(
    const Dataset& dataset, const AsyncSimulationConfig& config,
    std::size_t processes, double until_s, const netsim::FaultSpec& faults,
    std::uint64_t kill_peer_after = 0,
    const netsim::ShardRuntimeOptions& runtime_options =
        netsim::ShardRuntimeOptions()) {
  netsim::LoopbackInterShardHub hub(processes);
  std::vector<MultiprocessRunReport> reports(processes);
  std::vector<std::exception_ptr> errors(processes);
  std::vector<std::thread> threads;
  threads.reserve(processes);
  for (std::size_t p = 0; p < processes; ++p) {
    threads.emplace_back([&, p] {
      try {
        netsim::LoopbackInterShardChannel raw(hub, p);
        netsim::FaultChannelOptions fault_options;
        fault_options.outbound = faults;
        fault_options.seed = 0x10ca1 + p;
        if (p != 0) {
          fault_options.kill_after_frames = kill_peer_after;
        }
        netsim::FaultInjectingInterShardChannel faulty(raw, fault_options);
        netsim::ReliableInterShardChannel reliable(faulty, FastReliable());
        common::ThreadPool pool(1);
        reports[p] = RunMultiprocessAsyncSimulation(
            dataset, config, reliable, until_s, pool, runtime_options);
      } catch (...) {
        errors[p] = std::current_exception();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Rethrow the coordinator's error first: the kill test asserts on it.
  for (const auto& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  return reports[0];
}

TEST(LossyMultiprocess, FivePercentLossMatchesLosslessSingleProcess) {
  const Dataset dataset = SmallRtt();
  const AsyncSimulationConfig config = BaseConfig(dataset, 4);
  const Reference reference(dataset, config, 12.0);
  netsim::FaultSpec faults;
  faults.drop_rate = 0.05;
  const auto report = RunOverLossyLoopback(dataset, config, 2, 12.0, faults);
  EXPECT_GT(report.retransmits, 0u) << "the injector dropped nothing?";
  ExpectReportMatchesReference(report, reference);
}

TEST(LossyMultiprocess, HeavyLossDupAndReorderMatchesLosslessSingleProcess) {
  const Dataset dataset = SmallRtt();
  const AsyncSimulationConfig config = BaseConfig(dataset, 4);
  const Reference reference(dataset, config, 10.0);
  netsim::FaultSpec faults;
  faults.drop_rate = 0.2;
  faults.duplicate_rate = 0.05;
  faults.reorder_rate = 0.05;
  const auto report = RunOverLossyLoopback(dataset, config, 2, 10.0, faults);
  EXPECT_GT(report.retransmits, 0u);
  EXPECT_GT(report.duplicates_suppressed, 0u);
  ExpectReportMatchesReference(report, reference);
}

TEST(LossyMultiprocess, ThreeProcessesUnderLossMatchToo) {
  const Dataset dataset = SmallRtt();
  const AsyncSimulationConfig config = BaseConfig(dataset, 6);
  const Reference reference(dataset, config, 8.0);
  netsim::FaultSpec faults;
  faults.drop_rate = 0.1;
  faults.duplicate_rate = 0.05;
  const auto report = RunOverLossyLoopback(dataset, config, 3, 8.0, faults);
  ExpectReportMatchesReference(report, reference);
}

TEST(LossyMultiprocess, KilledPeerSurfacesAsStallErrorWithDiagnostics) {
  const Dataset dataset = SmallRtt();
  const AsyncSimulationConfig config = BaseConfig(dataset, 4);
  netsim::ShardRuntimeOptions options;
  options.stall_timeout_s = 1.5;
  netsim::FaultSpec lossless;
  try {
    (void)RunOverLossyLoopback(dataset, config, 2, 30.0, lossless,
                               /*kill_peer_after=*/40, options);
    FAIL() << "a killed peer must stall the coordinator";
  } catch (const netsim::StallError& stall) {
    EXPECT_FALSE(stall.Phase().empty());
    ASSERT_EQ(stall.FramesReceivedFrom().size(), 2u);
    EXPECT_GT(stall.FramesReceivedFrom()[1], 0u)
        << "the peer sent frames before dying; the counter must show them";
    ASSERT_EQ(stall.Diagnostics().peers.size(), 2u);
    EXPECT_GT(stall.Diagnostics().peers[1].retransmits, 0u)
        << "the coordinator should have retransmitted into the void";
    EXPECT_NE(std::string(stall.what()).find("stalled"), std::string::npos);
  }
}

/// Runs a genuinely forked 2-process run over real UDP datagrams, both ends
/// behind fault injection + the reliability layer, and returns the
/// coordinator's folded report (asserts the child succeeded).
MultiprocessRunReport RunForkedLossyUdp(const Dataset& dataset,
                                        const AsyncSimulationConfig& config,
                                        double until_s,
                                        const netsim::FaultSpec& faults) {
  transport::UdpSocket socket0;
  transport::UdpSocket socket1;
  const std::vector<std::uint16_t> ports = {socket0.Port(), socket1.Port()};
  const pid_t child = fork();
  EXPECT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child = process 1.  No gtest assertions here — report via exit status.
    int status = 1;
    try {
      netsim::UdpInterShardChannel raw(std::move(socket1), 1, ports);
      netsim::FaultChannelOptions fault_options;
      fault_options.outbound = faults;
      fault_options.seed = 0x10ca1 + 1;
      netsim::FaultInjectingInterShardChannel faulty(raw, fault_options);
      netsim::ReliableInterShardChannel reliable(faulty, FastReliable());
      common::ThreadPool pool(1);
      const auto report = RunMultiprocessAsyncSimulation(
          dataset, config, reliable, until_s, pool);
      status = report.coordinator ? 1 : 0;
    } catch (...) {
      status = 1;
    }
    _exit(status);
  }
  netsim::UdpInterShardChannel raw(std::move(socket0), 0, ports);
  netsim::FaultChannelOptions fault_options;
  fault_options.outbound = faults;
  fault_options.seed = 0x10ca1;
  netsim::FaultInjectingInterShardChannel faulty(raw, fault_options);
  netsim::ReliableInterShardChannel reliable(faulty, FastReliable());
  common::ThreadPool pool(1);
  const auto report =
      RunMultiprocessAsyncSimulation(dataset, config, reliable, until_s, pool);
  int status = -1;
  EXPECT_EQ(waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child process failed";
  return report;
}

// The PR's acceptance pin: a genuinely forked 2-process UDP run at 20%
// loss + duplication + reordering, bit-identical to the lossless
// single-process drain of the same seed.
TEST(LossyMultiprocess, ForkedUdpAtTwentyPercentLossMatchesSingleProcess) {
  const Dataset dataset = SmallRtt();
  const AsyncSimulationConfig config = BaseConfig(dataset, 4);
  netsim::FaultSpec faults;
  faults.drop_rate = 0.2;
  faults.duplicate_rate = 0.05;
  faults.reorder_rate = 0.05;
  const auto report = RunForkedLossyUdp(dataset, config, 10.0, faults);
  EXPECT_GT(report.retransmits, 0u);
  const Reference reference(dataset, config, 10.0);
  ExpectReportMatchesReference(report, reference);
}

}  // namespace
}  // namespace dmfsgd::core
