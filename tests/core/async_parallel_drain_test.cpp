// Determinism and semantics of the sharded parallel event drain.
//
// The load-bearing property, mirroring the round driver's parallel sweep:
// AsyncDmfsgdSimulation::RunUntilParallel produces bit-identical coordinates
// and counters for every pool size at a fixed shard count, because every
// event's work is a pure function of its node's private RNG stream and the
// messages delivered to it, and the sharded queue preserves per-node event
// order (DESIGN.md §9).  Pinned under loss, churn, both algorithms and the
// wire codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/async_simulation.hpp"
#include "datasets/clusters.hpp"
#include "datasets/hps3.hpp"
#include "datasets/meridian.hpp"
#include "datasets/procedural.hpp"
#include "eval/roc.hpp"
#include "linalg/matrix.hpp"
#include "netsim/inter_shard_channel.hpp"
#include "netsim/shard_runtime.hpp"

namespace dmfsgd::core {
namespace {

using datasets::Dataset;

Dataset SmallRtt() {
  datasets::MeridianConfig config;
  config.node_count = 100;
  config.seed = 31;
  return datasets::MakeMeridian(config);
}

Dataset SmallAbw() {
  datasets::HpS3Config config;
  config.host_count = 100;
  config.seed = 33;
  return datasets::MakeHpS3(config);
}

AsyncSimulationConfig BaseConfig(const Dataset& dataset) {
  AsyncSimulationConfig config;
  config.base.rank = 10;
  config.base.neighbor_count = 16;
  config.base.tau = dataset.MedianValue();
  config.base.seed = 5;
  config.mean_probe_interval_s = 1.0;
  config.shard_count = 4;
  return config;
}

std::unique_ptr<AsyncDmfsgdSimulation> RunParallel(
    const Dataset& dataset, const AsyncSimulationConfig& config, double until_s,
    std::size_t threads) {
  auto simulation = std::make_unique<AsyncDmfsgdSimulation>(dataset, config);
  common::ThreadPool pool(threads);
  simulation->RunUntilParallel(until_s, pool);
  return simulation;
}

/// The same deployment drained by a one-process ShardRuntime that windows
/// with the matrix `lookaheads_of` returns for the constructed simulation
/// instead of PairLookaheads().
template <typename LookaheadsOf>
std::unique_ptr<AsyncDmfsgdSimulation> RunThroughRuntime(
    const Dataset& dataset, const AsyncSimulationConfig& config, double until_s,
    std::size_t threads, LookaheadsOf lookaheads_of) {
  auto simulation = std::make_unique<AsyncDmfsgdSimulation>(dataset, config);
  netsim::LoopbackInterShardHub hub(1);
  netsim::LoopbackInterShardChannel channel(hub, 0);
  ShardedEventQueueDeliveryChannel& delivery = simulation->ShardedChannel();
  netsim::ShardRuntime runtime(
      simulation->MutableEvents(), channel, lookaheads_of(*simulation),
      [&delivery](netsim::ShardedEventQueue::OwnerId owner,
                  std::vector<std::byte> payload) {
        return delivery.DecodeEnvelopeCallback(owner, std::move(payload));
      });
  common::ThreadPool pool(threads);
  simulation->RunUntilDistributed(until_s, pool, runtime);
  return simulation;
}

/// The global-minimum baseline: windows with the uniform LookaheadSeconds()
/// matrix.
std::unique_ptr<AsyncDmfsgdSimulation> RunUniform(
    const Dataset& dataset, const AsyncSimulationConfig& config, double until_s,
    std::size_t threads) {
  return RunThroughRuntime(
      dataset, config, until_s, threads,
      [](const AsyncDmfsgdSimulation& simulation) {
        return netsim::LookaheadMatrix(simulation.ShardCount(),
                                       simulation.LookaheadSeconds());
      });
}

void ExpectBitIdentical(const AsyncDmfsgdSimulation& a,
                        const AsyncDmfsgdSimulation& b) {
  const auto& store_a = a.engine().store();
  const auto& store_b = b.engine().store();
  ASSERT_EQ(store_a.NodeCount(), store_b.NodeCount());
  ASSERT_EQ(store_a.rank(), store_b.rank());
  const auto u_a = store_a.UData();
  const auto u_b = store_b.UData();
  const auto v_a = store_a.VData();
  const auto v_b = store_b.VData();
  EXPECT_EQ(std::memcmp(u_a.data(), u_b.data(), u_a.size_bytes()), 0);
  EXPECT_EQ(std::memcmp(v_a.data(), v_b.data(), v_a.size_bytes()), 0);
  EXPECT_EQ(a.MeasurementCount(), b.MeasurementCount());
  EXPECT_EQ(a.DroppedLegs(), b.DroppedLegs());
  EXPECT_EQ(a.ChurnCount(), b.ChurnCount());
  EXPECT_EQ(a.EventsExecuted(), b.EventsExecuted());
  EXPECT_EQ(a.InFlight(), b.InFlight());
}

TEST(AsyncParallelDrain, BitIdenticalAcrossPoolSizesRtt) {
  const Dataset dataset = SmallRtt();
  const AsyncSimulationConfig config = BaseConfig(dataset);
  const auto single = RunParallel(dataset, config, 30.0, 1);
  EXPECT_GT(single->MeasurementCount(), 0u);
  for (const std::size_t threads : {2u, 4u, 7u}) {
    const auto multi = RunParallel(dataset, config, 30.0, threads);
    ExpectBitIdentical(*single, *multi);
  }
}

TEST(AsyncParallelDrain, BitIdenticalAcrossPoolSizesAbw) {
  const Dataset dataset = SmallAbw();
  const AsyncSimulationConfig config = BaseConfig(dataset);
  const auto single = RunParallel(dataset, config, 30.0, 1);
  EXPECT_GT(single->MeasurementCount(), 0u);
  const auto multi = RunParallel(dataset, config, 30.0, 4);
  ExpectBitIdentical(*single, *multi);
}

TEST(AsyncParallelDrain, BitIdenticalWithLossChurnAndWireCodec) {
  const Dataset dataset = SmallRtt();
  AsyncSimulationConfig config = BaseConfig(dataset);
  config.base.message_loss = 0.2;
  config.base.churn_rate = 0.005;
  config.base.use_wire_format = true;
  const auto single = RunParallel(dataset, config, 30.0, 1);
  EXPECT_GT(single->DroppedLegs(), 0u);
  const auto multi = RunParallel(dataset, config, 30.0, 4);
  ExpectBitIdentical(*single, *multi);
}

TEST(AsyncParallelDrain, ShardCountInvariantForThisDeployment) {
  // Handlers only touch handler-node state and per-node streams, so the
  // trajectory depends on per-node event order, not on how nodes are grouped
  // into shards; with this deployment's continuous delays no cross-lane tie
  // reordering occurs and even the shard count washes out.
  const Dataset dataset = SmallRtt();
  AsyncSimulationConfig one = BaseConfig(dataset);
  one.shard_count = 1;
  AsyncSimulationConfig eight = BaseConfig(dataset);
  eight.shard_count = 8;
  const auto a = RunParallel(dataset, one, 20.0, 2);
  const auto b = RunParallel(dataset, eight, 20.0, 2);
  ExpectBitIdentical(*a, *b);
}

TEST(AsyncParallelDrain, InterleavesWithSequentialRuns) {
  // Sequential then parallel then sequential again: the mode switch must be
  // clean (counters folded, trace machinery idle) and deterministic.
  const Dataset dataset = SmallRtt();
  const AsyncSimulationConfig config = BaseConfig(dataset);
  AsyncDmfsgdSimulation a(dataset, config);
  AsyncDmfsgdSimulation b(dataset, config);
  common::ThreadPool pool_a(3);
  common::ThreadPool pool_b(1);
  a.RunUntil(10.0);
  b.RunUntil(10.0);
  a.RunUntilParallel(25.0, pool_a);
  b.RunUntilParallel(25.0, pool_b);
  a.RunUntil(30.0);
  b.RunUntil(30.0);
  ExpectBitIdentical(a, b);
  EXPECT_DOUBLE_EQ(a.Now(), 30.0);
}

TEST(AsyncParallelDrain, LearnsLikeTheSequentialDrain) {
  const Dataset dataset = SmallRtt();
  const auto simulation = RunParallel(dataset, BaseConfig(dataset), 600.0, 4);
  std::vector<double> scores;
  std::vector<int> labels;
  for (std::size_t i = 0; i < dataset.NodeCount(); ++i) {
    for (std::size_t j = 0; j < dataset.NodeCount(); ++j) {
      if (i == j || !dataset.IsKnown(i, j) || simulation->IsNeighborPair(i, j)) {
        continue;
      }
      scores.push_back(simulation->Predict(i, j));
      labels.push_back(datasets::ClassOf(dataset.metric, dataset.Quantity(i, j),
                                         simulation->config().tau));
    }
  }
  EXPECT_GT(eval::Auc(scores, labels), 0.88);
}

TEST(AsyncParallelDrain, RejectsRunningBackwards) {
  const Dataset dataset = SmallRtt();
  AsyncDmfsgdSimulation simulation(dataset, BaseConfig(dataset));
  common::ThreadPool pool(2);
  simulation.RunUntilParallel(5.0, pool);
  EXPECT_THROW(simulation.RunUntilParallel(1.0, pool), std::invalid_argument);
}

TEST(AsyncParallelDrain, LookaheadReflectsTheDeploymentMinimumDelay) {
  const Dataset rtt = SmallRtt();
  const Dataset abw = SmallAbw();
  AsyncDmfsgdSimulation rtt_sim(rtt, BaseConfig(rtt));
  AsyncDmfsgdSimulation abw_sim(abw, BaseConfig(abw));
  EXPECT_GT(rtt_sim.LookaheadSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(abw_sim.LookaheadSeconds(),
                   BaseConfig(abw).min_oneway_delay_s);
}

TEST(AsyncParallelDrain, RejectsAZeroShardCount) {
  // The shard count is an input of the run, never resolved from the host.
  const Dataset dataset = SmallRtt();
  AsyncSimulationConfig config = BaseConfig(dataset);
  config.shard_count = 0;
  EXPECT_THROW(AsyncDmfsgdSimulation(dataset, config), std::invalid_argument);
}

TEST(AsyncParallelDrain, PairLookaheadsWidenWindowsAndPreserveTheTrajectory) {
  // Same seed drained with the per-pair matrix and with the global-minimum
  // lookahead: bit-identical results (windowing only reorders across
  // shards, never within one), strictly fewer windows on the heterogeneous
  // two-cluster delay space (fast metro paths, slow long-haul paths).
  datasets::TwoClusterRttConfig cluster_config;
  cluster_config.node_count = 80;
  cluster_config.seed = 77;
  const Dataset dataset = datasets::MakeTwoClusterRtt(cluster_config);
  AsyncSimulationConfig config = BaseConfig(dataset);
  config.shard_count = 2;  // shards == the two delay clusters
  const auto uniform_run = RunUniform(dataset, config, 20.0, 2);
  const auto pairwise_run = RunParallel(dataset, config, 20.0, 2);
  EXPECT_GT(uniform_run->MeasurementCount(), 0u);
  ExpectBitIdentical(*uniform_run, *pairwise_run);
  // Cross-cluster lookahead ~200 ms vs the global ~5 ms minimum: windows
  // must widen by a wide margin, not within noise.
  EXPECT_LT(pairwise_run->WindowsExecuted() * 2,
            uniform_run->WindowsExecuted());
}

AsyncSimulationConfig LookaheadConfig(const Dataset& dataset, std::size_t shards) {
  AsyncSimulationConfig config;
  config.base.rank = 10;
  config.base.neighbor_count = 16;
  config.base.tau = dataset.Procedural() ? datasets::SampledMedianValue(dataset)
                                         : dataset.MedianValue();
  config.base.seed = 5;
  config.shard_count = shards;
  return config;
}

/// The unordered pair {lo, hi}, lo < hi, with the smallest (lo, hi) RTT
/// among the pairs `for_each_pair` hands out.
template <typename ForEachPair>
std::pair<std::size_t, std::size_t> SmallestPair(const linalg::Matrix& m,
                                                 ForEachPair for_each_pair) {
  std::pair<std::size_t, std::size_t> best{0, 0};
  double smallest = std::numeric_limits<double>::infinity();
  for_each_pair([&](std::size_t i, std::size_t j) {
    const std::size_t lo = std::min(i, j);
    const std::size_t hi = std::max(i, j);
    if (m(lo, hi) < smallest) {
      smallest = m(lo, hi);
      best = {lo, hi};
    }
  });
  return best;
}

/// SmallRtt() with gaps and asymmetric pairs.  No measurable pair joins the
/// first and last of three owner blocks (at three shards, two cells of the
/// lookahead matrix have no pair at all), a scatter of further pairs is
/// missing, and two RTTs are shaved by 1e-10 relative in their (high, low)
/// direction only, inside the validator's 1e-9 tolerance: the smallest
/// known pair's and the smallest neighbour pair's under LookaheadConfig
/// (picked on the unshaved matrix; shaving leaves IsKnown, and so the
/// neighbour sets, as they were).  Only a scan over ordered pairs finds
/// either minimum.
Dataset GappyAsymmetricRtt() {
  Dataset dataset = SmallRtt();
  dataset.name += " with gaps and asymmetric pairs";
  linalg::Matrix& m = dataset.ground_truth;
  const std::size_t n = m.Rows();
  const netsim::ShardedEventQueue thirds(n, 3);
  const std::size_t first_block_end = thirds.OwnersOfShard(0).second;
  const std::size_t last_block_begin = thirds.OwnersOfShard(2).first;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if ((i < first_block_end && j >= last_block_begin) || (i + j) % 7 == 0) {
        m(i, j) = linalg::Matrix::kMissing;
        m(j, i) = linalg::Matrix::kMissing;
      }
    }
  }
  const auto known = SmallestPair(m, [&](auto visit) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (dataset.IsKnown(i, j)) {
          visit(i, j);
        }
      }
    }
  });
  const AsyncDmfsgdSimulation unshaved(dataset, LookaheadConfig(dataset, 1));
  const auto neighbour = SmallestPair(m, [&](auto visit) {
    for (std::size_t i = 0; i < n; ++i) {
      for (const NodeId j : unshaved.Neighbors()[i]) {
        visit(i, j);
      }
    }
  });
  for (const auto& [lo, hi] : {known, neighbour}) {
    m(hi, lo) = m(lo, hi) * (1.0 - 1e-10);
    EXPECT_LT(m(hi, lo), m(lo, hi));
  }
  datasets::ValidateDataset(dataset);
  return dataset;
}

/// The lookaheads an in-test scan over ordered known pairs (i, j), i != j,
/// of an RTT dataset gives: the global minimum one-way delay and the
/// per-owner-block minima of a `shards`-shard queue.
struct ScannedLookaheads {
  double global = std::numeric_limits<double>::infinity();
  std::vector<double> cells;  ///< row-major shards x shards, +inf if no pair
};

/// Scans the ordered pairs `for_each_pair` hands out, skipping unknown ones.
template <typename ForEachPair>
ScannedLookaheads ScanRttLookaheads(const Dataset& dataset, std::size_t shards,
                                    ForEachPair for_each_pair) {
  const netsim::ShardedEventQueue queue(dataset.NodeCount(), shards);
  ScannedLookaheads scanned;
  scanned.cells.assign(shards * shards, std::numeric_limits<double>::infinity());
  for_each_pair([&](std::size_t i, std::size_t j) {
    if (i == j || !dataset.IsKnown(i, j)) {
      return;
    }
    const double delay = dataset.Quantity(i, j) / 2.0 / 1000.0;
    double& cell = scanned.cells[queue.ShardOf(static_cast<NodeId>(i)) * shards +
                                 queue.ShardOf(static_cast<NodeId>(j))];
    cell = std::min(cell, delay);
    scanned.global = std::min(scanned.global, delay);
  });
  return scanned;
}

/// Every ordered known pair: what a message can cross once churn can redraw
/// a neighbour set from any known node.
ScannedLookaheads ScanAllKnownPairs(const Dataset& dataset, std::size_t shards) {
  const std::size_t n = dataset.NodeCount();
  return ScanRttLookaheads(dataset, shards, [n](auto visit) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        visit(i, j);
      }
    }
  });
}

/// Both directions of every neighbour pair: what a message can cross
/// without churn (requests out to a neighbour, replies back).
ScannedLookaheads ScanNeighbourPairs(const AsyncDmfsgdSimulation& simulation) {
  const auto& neighbors = simulation.Neighbors();
  return ScanRttLookaheads(
      simulation.dataset(), simulation.ShardCount(), [&](auto visit) {
        for (std::size_t i = 0; i < neighbors.size(); ++i) {
          for (const NodeId j : neighbors[i]) {
            visit(i, j);
            visit(j, i);
          }
        }
      });
}

/// Expects the simulation's lookaheads to equal `scanned` cell for cell;
/// returns how many cells were +infinity.
std::size_t ExpectLookaheadsEqual(const AsyncDmfsgdSimulation& simulation,
                                  const ScannedLookaheads& scanned) {
  const std::size_t shards = simulation.ShardCount();
  EXPECT_EQ(simulation.LookaheadSeconds(), scanned.global);
  const netsim::LookaheadMatrix& matrix = simulation.PairLookaheads();
  EXPECT_EQ(matrix.ShardCount(), shards);
  std::size_t unconnected = 0;
  for (std::size_t from = 0; from < shards; ++from) {
    for (std::size_t to = 0; to < shards; ++to) {
      const double expected = scanned.cells[from * shards + to];
      EXPECT_EQ(matrix.At(from, to), expected)
          << "cell (" << from << ", " << to << ")";
      unconnected += std::isinf(expected) ? 1 : 0;
    }
  }
  return unconnected;
}

netsim::LookaheadMatrix MatrixOf(const ScannedLookaheads& scanned,
                                 std::size_t shards) {
  netsim::LookaheadMatrix matrix(shards, std::numeric_limits<double>::infinity());
  for (std::size_t from = 0; from < shards; ++from) {
    for (std::size_t to = 0; to < shards; ++to) {
      matrix.Set(from, to, scanned.cells[from * shards + to]);
    }
  }
  return matrix;
}

TEST(AsyncParallelDrain, LookaheadsMatchABruteForceScan) {
  // RTT: the constructor's matrix equals an independent scan, cell for
  // cell, at every shard count: over both directions of every neighbour
  // pair without churn, over every ordered known pair with churn on.
  datasets::EuclideanRttConfig complete;
  complete.node_count = 90;
  complete.seed = 12;
  const Dataset rtt_datasets[] = {GappyAsymmetricRtt(),
                                  datasets::MakeEuclideanRtt(complete)};
  std::size_t unconnected_cells = 0;
  std::size_t unconnected_churn_cells = 0;
  for (const Dataset& dataset : rtt_datasets) {
    for (const std::size_t shards : {1u, 2u, 3u}) {
      SCOPED_TRACE(dataset.name + " shards=" + std::to_string(shards));
      AsyncSimulationConfig config = LookaheadConfig(dataset, shards);
      const AsyncDmfsgdSimulation simulation(dataset, config);
      unconnected_cells +=
          ExpectLookaheadsEqual(simulation, ScanNeighbourPairs(simulation));

      SCOPED_TRACE("churn_rate > 0");
      config.base.churn_rate = 0.01;
      const AsyncDmfsgdSimulation churning(dataset, config);
      unconnected_churn_cells +=
          ExpectLookaheadsEqual(churning, ScanAllKnownPairs(dataset, shards));
    }
  }
  EXPECT_GT(unconnected_cells, 0u) << "no cell without a neighbour pair was checked";
  EXPECT_GT(unconnected_churn_cells, 0u)
      << "no cell without a measurable pair was checked";

  // ABW: hash-drawn delays lie in [min_oneway_delay_s, max_oneway_delay_s),
  // so every cell is the configured lower bound.
  const Dataset abw = SmallAbw();
  for (const std::size_t shards : {1u, 2u, 3u}) {
    SCOPED_TRACE("ABW shards=" + std::to_string(shards));
    const AsyncSimulationConfig config = LookaheadConfig(abw, shards);
    const AsyncDmfsgdSimulation simulation(abw, config);
    EXPECT_EQ(simulation.LookaheadSeconds(), config.min_oneway_delay_s);
    const netsim::LookaheadMatrix& matrix = simulation.PairLookaheads();
    ASSERT_EQ(matrix.ShardCount(), shards);
    for (std::size_t from = 0; from < shards; ++from) {
      for (std::size_t to = 0; to < shards; ++to) {
        EXPECT_EQ(matrix.At(from, to), config.min_oneway_delay_s)
            << "cell (" << from << ", " << to << ")";
      }
    }
  }
}

TEST(AsyncParallelDrain, NeighbourPairLookaheadsWidenWindowsAndPreserveTheTrajectory) {
  // The same churn-free seed drained with the all-known-pairs matrix and
  // with the default neighbour-pair one: bit-identical results (windowing
  // only reorders across shards, never within one), strictly fewer windows
  // with the default, whose cells are minima over a subset of the pairs.
  datasets::EuclideanRttConfig space;
  space.node_count = 512;
  space.seed = 41;
  const Dataset dataset = datasets::MakeEuclideanRtt(space);
  const AsyncSimulationConfig config = LookaheadConfig(dataset, 4);
  const auto all_pairs_run = RunThroughRuntime(
      dataset, config, 10.0, 2, [&](const AsyncDmfsgdSimulation& simulation) {
        return MatrixOf(ScanAllKnownPairs(dataset, simulation.ShardCount()),
                        simulation.ShardCount());
      });
  const auto neighbour_run = RunParallel(dataset, config, 10.0, 2);
  EXPECT_GT(all_pairs_run->MeasurementCount(), 0u);
  ExpectBitIdentical(*all_pairs_run, *neighbour_run);
  EXPECT_LT(neighbour_run->WindowsExecuted(), all_pairs_run->WindowsExecuted());
}

TEST(AsyncParallelDrain, NeighbourPairScanAtSixtyFourKNodes) {
  // The churn-free scan is O(n·k), so construction stays cheap at a node
  // count whose all-pairs scan (4.3e9 pairs) would take minutes.
  datasets::EuclideanRttConfig space;
  space.node_count = 65536;
  const Dataset dataset = datasets::MakeEuclideanRtt(space);
  const AsyncDmfsgdSimulation simulation(dataset, LookaheadConfig(dataset, 4));
  ExpectLookaheadsEqual(simulation, ScanNeighbourPairs(simulation));
}

TEST(AsyncParallelDrain, PairLookaheadViolationStillFires) {
  // Lie to the queue: claim every cross-shard delay is at least ten times
  // the true minimum.  The very first cross-shard message inside a widened
  // window must trip the causality check rather than silently misorder.
  const Dataset dataset = SmallRtt();
  AsyncSimulationConfig config = BaseConfig(dataset);
  config.shard_count = 4;
  AsyncDmfsgdSimulation simulation(dataset, config);
  netsim::LookaheadMatrix lies(4, simulation.LookaheadSeconds() * 1000.0);
  common::ThreadPool pool(1);  // inline drain: handlers stay single-threaded
  EXPECT_THROW(
      simulation.MutableEvents().RunUntilParallel(10.0, pool, lies),
      std::logic_error);
}

}  // namespace
}  // namespace dmfsgd::core
