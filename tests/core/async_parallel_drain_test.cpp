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
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/async_simulation.hpp"
#include "datasets/clusters.hpp"
#include "datasets/hps3.hpp"
#include "datasets/meridian.hpp"
#include "datasets/procedural.hpp"
#include "eval/roc.hpp"
#include "linalg/matrix.hpp"

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

TEST(AsyncParallelDrain, PairLookaheadsWidenWindowsAndPreserveTheTrajectory) {
  // Same seed drained with the global-minimum lookahead and with the
  // per-pair matrix: bit-identical results (windowing only reorders across
  // shards, never within one), strictly fewer windows on the heterogeneous
  // two-cluster delay space (fast metro paths, slow long-haul paths).
  datasets::TwoClusterRttConfig cluster_config;
  cluster_config.node_count = 80;
  cluster_config.seed = 77;
  const Dataset dataset = datasets::MakeTwoClusterRtt(cluster_config);
  AsyncSimulationConfig uniform = BaseConfig(dataset);
  uniform.shard_count = 2;  // shards == the two delay clusters
  uniform.use_pair_lookaheads = false;
  AsyncSimulationConfig pairwise = uniform;
  pairwise.use_pair_lookaheads = true;
  const auto uniform_run = RunParallel(dataset, uniform, 20.0, 2);
  const auto pairwise_run = RunParallel(dataset, pairwise, 20.0, 2);
  EXPECT_GT(uniform_run->MeasurementCount(), 0u);
  ExpectBitIdentical(*uniform_run, *pairwise_run);
  // Cross-cluster lookahead ~200 ms vs the global ~5 ms minimum: windows
  // must widen by a wide margin, not within noise.
  EXPECT_LT(pairwise_run->WindowsExecuted() * 2,
            uniform_run->WindowsExecuted());
}

/// SmallRtt() with gaps and one asymmetric pair.  No measurable pair joins
/// the first and last of three owner blocks (at three shards, two cells of
/// the lookahead matrix have no pair at all), a scatter of further pairs is
/// missing, and the smallest RTT is shaved by 1e-10 relative in its
/// (high, low) direction only, inside the validator's 1e-9 tolerance: only a
/// scan over ordered pairs finds the true minimum.
Dataset GappyAsymmetricRtt() {
  Dataset dataset = SmallRtt();
  dataset.name += " with gaps and an asymmetric pair";
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
  std::size_t lo = 0;
  std::size_t hi = 0;
  double smallest = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (dataset.IsKnown(i, j) && m(i, j) < smallest) {
        smallest = m(i, j);
        lo = i;
        hi = j;
      }
    }
  }
  m(hi, lo) = smallest * (1.0 - 1e-10);
  EXPECT_LT(m(hi, lo), m(lo, hi));
  datasets::ValidateDataset(dataset);
  return dataset;
}

/// The lookaheads an in-test scan over ordered pairs (i, j), i != j, gives:
/// the global minimum one-way delay (RTT; ABW's is the configured lower
/// bound) and the per-owner-block minima of a `shards`-shard queue.
struct ScannedLookaheads {
  double global = 0.0;
  std::vector<double> cells;  ///< row-major shards x shards, +inf if no pair
};

ScannedLookaheads ScanLookaheads(const Dataset& dataset,
                                 const AsyncSimulationConfig& config,
                                 std::size_t shards) {
  const std::size_t n = dataset.NodeCount();
  const bool rtt = dataset.metric == datasets::Metric::kRtt;
  // ABW delays are hash-drawn per pair from a seed private to the
  // simulation.  The delay function does not depend on the shard count, so
  // a queue with one node per shard reads every pair's delay off its
  // lookahead matrix.
  std::optional<AsyncDmfsgdSimulation> per_node;
  if (!rtt) {
    AsyncSimulationConfig one_per_shard = config;
    one_per_shard.shard_count = n;
    one_per_shard.use_pair_lookaheads = true;
    per_node.emplace(dataset, one_per_shard);
  }
  const netsim::ShardedEventQueue queue(n, shards);
  ScannedLookaheads scanned;
  scanned.global = std::numeric_limits<double>::infinity();
  scanned.cells.assign(shards * shards, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || (rtt && !dataset.IsKnown(i, j))) {
        continue;
      }
      double delay = 0.0;
      if (rtt) {
        delay = dataset.Quantity(i, j) / 2.0 / 1000.0;
      } else {
        delay = per_node->PairLookaheads().At(i, j);
        EXPECT_EQ(delay, per_node->PairLookaheads().At(j, i));
        EXPECT_GE(delay, config.min_oneway_delay_s);
        EXPECT_LT(delay, config.max_oneway_delay_s);
      }
      double& cell = scanned.cells[queue.ShardOf(static_cast<NodeId>(i)) * shards +
                                    queue.ShardOf(static_cast<NodeId>(j))];
      cell = std::min(cell, delay);
      scanned.global = std::min(scanned.global, delay);
    }
  }
  if (!rtt) {
    scanned.global = config.min_oneway_delay_s;
  }
  return scanned;
}

TEST(AsyncParallelDrain, LookaheadsMatchABruteForceScan) {
  datasets::EuclideanRttConfig complete;
  complete.node_count = 90;
  complete.seed = 12;
  const Dataset datasets_under_test[] = {
      GappyAsymmetricRtt(), datasets::MakeEuclideanRtt(complete), SmallAbw()};
  std::size_t unconnected_cells = 0;
  for (const Dataset& dataset : datasets_under_test) {
    AsyncSimulationConfig config;
    config.base.rank = 10;
    config.base.neighbor_count = 16;
    config.base.tau = dataset.Procedural() ? datasets::SampledMedianValue(dataset)
                                           : dataset.MedianValue();
    config.base.seed = 5;
    for (const std::size_t shards : {1u, 2u, 3u}) {
      const ScannedLookaheads scanned = ScanLookaheads(dataset, config, shards);
      for (const bool pairwise : {false, true}) {
        SCOPED_TRACE(dataset.name + " shards=" + std::to_string(shards) +
                     " pairwise=" + std::to_string(pairwise));
        config.shard_count = shards;
        config.use_pair_lookaheads = pairwise;
        AsyncDmfsgdSimulation simulation(dataset, config);
        EXPECT_EQ(simulation.LookaheadSeconds(), scanned.global);
        const netsim::LookaheadMatrix& matrix = simulation.PairLookaheads();
        ASSERT_EQ(matrix.ShardCount(), shards);
        for (std::size_t from = 0; from < shards; ++from) {
          for (std::size_t to = 0; to < shards; ++to) {
            const double expected = pairwise && shards > 1
                                        ? scanned.cells[from * shards + to]
                                        : scanned.global;
            EXPECT_EQ(matrix.At(from, to), expected)
                << "cell (" << from << ", " << to << ")";
            unconnected_cells += std::isinf(expected) ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(unconnected_cells, 0u) << "no cell without a measurable pair was checked";
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
