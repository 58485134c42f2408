#include "core/async_simulation.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "core/simulation.hpp"
#include "datasets/hps3.hpp"
#include "datasets/meridian.hpp"
#include "eval/roc.hpp"

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

AsyncSimulationConfig DefaultConfig(const Dataset& dataset) {
  AsyncSimulationConfig config;
  config.base.rank = 10;
  config.base.neighbor_count = 16;
  config.base.tau = dataset.MedianValue();
  config.base.seed = 5;
  config.mean_probe_interval_s = 1.0;
  return config;
}

/// AUC over non-neighbor pairs, computed directly (the async simulator is
/// not a DmfsgdSimulation, so eval::CollectScoredPairs doesn't apply).
double TestAuc(const AsyncDmfsgdSimulation& simulation) {
  const auto& dataset = simulation.dataset();
  std::vector<double> scores;
  std::vector<int> labels;
  for (std::size_t i = 0; i < dataset.NodeCount(); ++i) {
    for (std::size_t j = 0; j < dataset.NodeCount(); ++j) {
      if (i == j || !dataset.IsKnown(i, j) || simulation.IsNeighborPair(i, j)) {
        continue;
      }
      scores.push_back(simulation.Predict(i, j));
      labels.push_back(datasets::ClassOf(dataset.metric, dataset.Quantity(i, j),
                                         simulation.config().tau));
    }
  }
  return eval::Auc(scores, labels);
}

TEST(AsyncSimulation, ValidatesConfig) {
  const Dataset dataset = SmallRtt();
  AsyncSimulationConfig config = DefaultConfig(dataset);
  config.mean_probe_interval_s = 0.0;
  EXPECT_THROW(AsyncDmfsgdSimulation(dataset, config), std::invalid_argument);
  config = DefaultConfig(dataset);
  config.min_oneway_delay_s = 0.0;
  EXPECT_THROW(AsyncDmfsgdSimulation(dataset, config), std::invalid_argument);
  config = DefaultConfig(dataset);
  config.max_oneway_delay_s = config.min_oneway_delay_s / 2.0;
  EXPECT_THROW(AsyncDmfsgdSimulation(dataset, config), std::invalid_argument);
  config = DefaultConfig(dataset);
  config.base.tau = 0.0;
  EXPECT_THROW(AsyncDmfsgdSimulation(dataset, config), std::invalid_argument);
}

// NaN compares false against every bound, so each check must be written to
// fail on it.
TEST(AsyncSimulation, RejectsNaNProbeInterval) {
  const Dataset dataset = SmallRtt();
  AsyncSimulationConfig config = DefaultConfig(dataset);
  config.mean_probe_interval_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(AsyncDmfsgdSimulation(dataset, config), std::invalid_argument);
}

TEST(AsyncSimulation, RejectsNaNMinOneWayDelay) {
  const Dataset dataset = SmallAbw();
  AsyncSimulationConfig config = DefaultConfig(dataset);
  config.min_oneway_delay_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(AsyncDmfsgdSimulation(dataset, config), std::invalid_argument);
}

// An infinite bound would leave the exchanges it delays in flight forever.
TEST(AsyncSimulation, RejectsInfiniteMaxOneWayDelay) {
  const Dataset dataset = SmallAbw();
  AsyncSimulationConfig config = DefaultConfig(dataset);
  config.max_oneway_delay_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(AsyncDmfsgdSimulation(dataset, config), std::invalid_argument);
}

TEST(AsyncSimulation, TimeAdvancesAndProbesFlow) {
  const Dataset dataset = SmallRtt();
  AsyncDmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  EXPECT_EQ(simulation.MeasurementCount(), 0u);
  simulation.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(simulation.Now(), 10.0);
  // ~10 probes per node in 10 s at 1 probe/s; allow wide Poisson slack.
  EXPECT_GT(simulation.AverageMeasurementsPerNode(), 5.0);
  EXPECT_LT(simulation.AverageMeasurementsPerNode(), 15.0);
}

TEST(AsyncSimulation, RejectsRunningBackwards) {
  const Dataset dataset = SmallRtt();
  AsyncDmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  simulation.RunUntil(5.0);
  EXPECT_THROW(simulation.RunUntil(1.0), std::invalid_argument);
}

TEST(AsyncSimulation, LearnsRttDespiteStaleness) {
  const Dataset dataset = SmallRtt();
  AsyncDmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  simulation.RunUntil(600.0);  // ~600 measurements per node
  EXPECT_GT(TestAuc(simulation), 0.88);
}

TEST(AsyncSimulation, LearnsAbwDespiteStaleness) {
  const Dataset dataset = SmallAbw();
  AsyncDmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  simulation.RunUntil(600.0);
  EXPECT_GT(TestAuc(simulation), 0.88);
}

TEST(AsyncSimulation, DeterministicForSeed) {
  const Dataset dataset = SmallRtt();
  AsyncDmfsgdSimulation a(dataset, DefaultConfig(dataset));
  AsyncDmfsgdSimulation b(dataset, DefaultConfig(dataset));
  a.RunUntil(50.0);
  b.RunUntil(50.0);
  EXPECT_EQ(a.MeasurementCount(), b.MeasurementCount());
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(a.Predict(i, j), b.Predict(i, j));
      }
    }
  }
}

TEST(AsyncSimulation, SplitRunsEqualOneLongRun) {
  const Dataset dataset = SmallRtt();
  AsyncDmfsgdSimulation split(dataset, DefaultConfig(dataset));
  AsyncDmfsgdSimulation whole(dataset, DefaultConfig(dataset));
  split.RunUntil(20.0);
  split.RunUntil(60.0);
  whole.RunUntil(60.0);
  EXPECT_EQ(split.MeasurementCount(), whole.MeasurementCount());
  EXPECT_DOUBLE_EQ(split.Predict(1, 2), whole.Predict(1, 2));
}

TEST(AsyncSimulation, MessageLossDropsLegs) {
  const Dataset dataset = SmallRtt();
  AsyncSimulationConfig config = DefaultConfig(dataset);
  config.base.message_loss = 0.3;
  AsyncDmfsgdSimulation lossy(dataset, config);
  lossy.RunUntil(100.0);
  EXPECT_GT(lossy.DroppedLegs(), 0u);
  // Expected delivery rate of a 2-leg RTT exchange is 0.49.
  const double expected = 100.0 * 0.49;
  EXPECT_NEAR(lossy.AverageMeasurementsPerNode(), expected, expected * 0.25);
}

TEST(AsyncSimulation, InFlightDrainsWhenProbingPausesLongEnough) {
  const Dataset dataset = SmallRtt();
  AsyncDmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  simulation.RunUntil(10.0);
  // One-way delays are at most ~0.5 s (max RTT / 2); after the queue runs
  // far past every in-flight deadline, pending exchanges complete.  New
  // probes keep firing, so just check the invariant in_flight is bounded by
  // the node count (each node has at most one probe outstanding per firing,
  // with ~1 s spacing vs <= 0.5 s flight time).
  EXPECT_LE(simulation.InFlight(), simulation.NodeCount());
}

TEST(AsyncSimulation, ConvergesToSameQualityAsSynchronous) {
  // The headline property: asynchrony (stale snapshots, interleaved
  // exchanges) costs essentially nothing relative to the round-based
  // simulator at equal measurement budget.
  const Dataset dataset = SmallRtt();
  AsyncDmfsgdSimulation async_sim(dataset, DefaultConfig(dataset));
  async_sim.RunUntil(600.0);

  SimulationConfig sync_config = DefaultConfig(dataset).base;
  DmfsgdSimulation sync_sim(dataset, sync_config);
  sync_sim.RunRounds(static_cast<std::size_t>(
      async_sim.AverageMeasurementsPerNode()));

  std::vector<double> sync_scores;
  std::vector<int> labels;
  for (std::size_t i = 0; i < dataset.NodeCount(); ++i) {
    for (std::size_t j = 0; j < dataset.NodeCount(); ++j) {
      if (i == j || sync_sim.IsNeighborPair(i, j)) {
        continue;
      }
      sync_scores.push_back(sync_sim.Predict(i, j));
      labels.push_back(datasets::ClassOf(dataset.metric, dataset.Quantity(i, j),
                                         sync_config.tau));
    }
  }
  const double auc_sync = eval::Auc(sync_scores, labels);
  const double auc_async = TestAuc(async_sim);
  EXPECT_NEAR(auc_async, auc_sync, 0.04);
}

}  // namespace
}  // namespace dmfsgd::core
