// Tests for the deployment extensions of the round-based simulator: probe
// scheduling strategies and membership churn.
#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "datasets/meridian.hpp"
#include "eval/roc.hpp"
#include "eval/scored_pairs.hpp"

namespace dmfsgd::core {
namespace {

using datasets::Dataset;

Dataset SmallRtt() {
  datasets::MeridianConfig config;
  config.node_count = 100;
  config.seed = 31;
  return datasets::MakeMeridian(config);
}

SimulationConfig DefaultConfig(const Dataset& dataset) {
  SimulationConfig config;
  config.neighbor_count = 16;
  config.tau = dataset.MedianValue();
  config.seed = 5;
  return config;
}

double TestAuc(const DmfsgdSimulation& simulation) {
  const auto pairs = eval::CollectScoredPairs(simulation);
  return eval::Auc(eval::Scores(pairs), eval::Labels(pairs));
}

TEST(ProbeStrategies, NamesAreDistinct) {
  EXPECT_STRNE(ProbeStrategyName(ProbeStrategy::kUniformRandom),
               ProbeStrategyName(ProbeStrategy::kRoundRobin));
  EXPECT_STRNE(ProbeStrategyName(ProbeStrategy::kRoundRobin),
               ProbeStrategyName(ProbeStrategy::kLossDriven));
}

TEST(ProbeStrategies, AllStrategiesLearn) {
  const Dataset dataset = SmallRtt();
  for (const ProbeStrategy strategy :
       {ProbeStrategy::kUniformRandom, ProbeStrategy::kRoundRobin,
        ProbeStrategy::kLossDriven}) {
    SimulationConfig config = DefaultConfig(dataset);
    config.strategy = strategy;
    DmfsgdSimulation simulation(dataset, config);
    simulation.RunRounds(600);
    EXPECT_GT(TestAuc(simulation), 0.85)
        << "strategy: " << ProbeStrategyName(strategy);
  }
}

TEST(ProbeStrategies, RoundRobinCoversAllNeighborsEvenly) {
  const Dataset dataset = SmallRtt();
  SimulationConfig config = DefaultConfig(dataset);
  config.strategy = ProbeStrategy::kRoundRobin;
  DmfsgdSimulation simulation(dataset, config);
  // After exactly k rounds every node has probed each neighbor exactly once.
  simulation.RunRounds(config.neighbor_count);
  EXPECT_EQ(simulation.MeasurementCount(),
            config.neighbor_count * dataset.NodeCount());
}

TEST(Churn, RejectsBadRate) {
  const Dataset dataset = SmallRtt();
  SimulationConfig config = DefaultConfig(dataset);
  config.churn_rate = 1.0;
  EXPECT_THROW(DmfsgdSimulation(dataset, config), std::invalid_argument);
}

TEST(Churn, ResetNodeReinitializesState) {
  const Dataset dataset = SmallRtt();
  DmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  simulation.RunRounds(100);
  const double before = simulation.Predict(3, 7);
  simulation.ResetNode(3);
  EXPECT_EQ(simulation.ChurnCount(), 1u);
  // Fresh random coordinates: the prediction changes (almost surely).
  EXPECT_NE(simulation.Predict(3, 7), before);
  EXPECT_THROW(simulation.ResetNode(static_cast<NodeId>(dataset.NodeCount())),
               std::out_of_range);
}

TEST(Churn, ChurnedNodesRelearnFromTheSwarm) {
  // A rejoining node bootstraps quickly because the rest of the deployment
  // is already converged: its fresh coordinates meet well-trained remote
  // coordinates on every probe.
  const Dataset dataset = SmallRtt();
  DmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  simulation.RunRounds(600);
  const double converged = TestAuc(simulation);
  for (NodeId i = 0; i < 10; ++i) {
    simulation.ResetNode(i);
  }
  simulation.RunRounds(120);  // brief re-warm
  EXPECT_GT(TestAuc(simulation), converged - 0.03);
}

TEST(Churn, ModerateChurnOnlyMildlyDegradesAccuracy) {
  const Dataset dataset = SmallRtt();
  SimulationConfig stable_config = DefaultConfig(dataset);
  DmfsgdSimulation stable(dataset, stable_config);
  stable.RunRounds(600);

  SimulationConfig churny_config = DefaultConfig(dataset);
  churny_config.churn_rate = 0.002;  // ~0.2% of nodes replaced per round
  DmfsgdSimulation churny(dataset, churny_config);
  churny.RunRounds(600);
  EXPECT_GT(churny.ChurnCount(), 0u);
  EXPECT_GT(TestAuc(churny), TestAuc(stable) - 0.08);
}

TEST(Churn, HeavyChurnDegradesMoreThanModerate) {
  const Dataset dataset = SmallRtt();
  SimulationConfig moderate_config = DefaultConfig(dataset);
  moderate_config.churn_rate = 0.002;
  SimulationConfig heavy_config = DefaultConfig(dataset);
  heavy_config.churn_rate = 0.05;  // 5% of the network replaced every round
  DmfsgdSimulation moderate(dataset, moderate_config);
  DmfsgdSimulation heavy(dataset, heavy_config);
  moderate.RunRounds(400);
  heavy.RunRounds(400);
  EXPECT_LT(TestAuc(heavy), TestAuc(moderate));
}

}  // namespace
}  // namespace dmfsgd::core
