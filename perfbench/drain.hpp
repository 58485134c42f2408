// The two-process loopback deployment behind the drain workload, its lossy
// bit-identity check and the timing-decorator self-test:
// AsyncDmfsgdSimulation + netsim::ShardRuntime + RunUntilDistributed, one
// simulated process per thread, over
//
//     ShardRuntime -> [TimingChannel] -> ReliableInterShardChannel
//                  -> [LinkCountingChannel] -> [FaultInjectingInterShardChannel]
//                  -> LoopbackInterShardChannel
//
// (bracketed: timing and link counting in traced runs, faults on the lossy
// link).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "channels.hpp"
#include "datasets/dataset.hpp"
#include "netsim/inter_shard_channel.hpp"
#include "support.hpp"

namespace perfbench {

enum class Link { kClean, kLossy };

struct DrainSpec {
  std::uint64_t seed = 1;
  Link link = Link::kClean;
  /// Installs the timing and link-counting decorators.
  bool traced = false;
  /// Test seam: wraps the channel directly above the reliable layer of
  /// process p (the self-test records the runtime's frames there).
  std::function<std::unique_ptr<dmfsgd::netsim::InterShardChannel>(
      std::size_t process, dmfsgd::netsim::InterShardChannel& inner)>
      wrap_above_reliable;
};

/// Per-layer counters, summed over both processes.
struct DrainLayers {
  TimingChannel::Stats runtime;      ///< traced runs only
  std::uint64_t runtime_frames = 0;  ///< ShardRuntime::FramesSent
  std::uint64_t link_frames = 0;     ///< traced runs only
  std::uint64_t link_bytes = 0;      ///< traced runs only
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t standalone_acks = 0;
  std::uint64_t fault_dropped = 0;
  double busy_s = 0.0;  ///< time inside RunUntilDistributed
};

class DrainDeployment {
 public:
  static constexpr std::size_t kProcesses = 2;
  /// An override of the library default: two shards per process.
  static constexpr std::size_t kShards = 4;

  /// `dataset` must outlive the deployment; `tau` is the class threshold.
  DrainDeployment(const dmfsgd::datasets::Dataset& dataset, double tau,
                  DrainSpec spec);
  ~DrainDeployment();
  DrainDeployment(const DrainDeployment&) = delete;
  DrainDeployment& operator=(const DrainDeployment&) = delete;

  /// Advances both processes to `until_s` (process 1 on a helper thread,
  /// process 0 on the caller) and rethrows the first failure,
  /// netsim::StallError included, once both have returned.
  void RunUntil(double until_s);

  /// Turns span recording and decorator timing on or off (traced runs).
  void SetTracing(bool on);

  [[nodiscard]] double Now() const;
  [[nodiscard]] std::uint64_t Measurements() const;
  [[nodiscard]] std::uint64_t Events() const;
  [[nodiscard]] std::uint64_t Windows() const;
  [[nodiscard]] DrainLayers Layers() const;
  [[nodiscard]] std::vector<const SpanLog*> SpanLogs() const;

  /// Every node's factor rows, each read from the process owning the node.
  void Fold(std::vector<double>& u, std::vector<double>& v);
  [[nodiscard]] std::size_t Rank() const;
  [[nodiscard]] bool IsTrainingPair(std::size_t i, std::size_t j) const;

  [[nodiscard]] double construct_s() const { return construct_s_; }
  [[nodiscard]] double lookahead_s() const { return lookahead_s_; }

 private:
  struct Process;
  void RunProcess(std::size_t p, double until_s);

  DrainSpec spec_;
  bool tracing_ = false;
  std::unique_ptr<dmfsgd::netsim::LoopbackInterShardHub> hub_;
  std::vector<std::unique_ptr<Process>> processes_;
  double construct_s_ = 0.0;
  double lookahead_s_ = 0.0;
};

}  // namespace perfbench
