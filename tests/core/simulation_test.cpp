#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "datasets/harvard.hpp"
#include "datasets/hps3.hpp"
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

Dataset SmallAbw() {
  datasets::HpS3Config config;
  config.host_count = 100;
  config.seed = 33;
  return datasets::MakeHpS3(config);
}

SimulationConfig DefaultConfig(const Dataset& dataset) {
  SimulationConfig config;
  config.rank = 10;
  config.neighbor_count = 16;
  config.tau = dataset.MedianValue();
  config.seed = 5;
  return config;
}

double TestAuc(const DmfsgdSimulation& simulation) {
  const auto pairs = eval::CollectScoredPairs(simulation);
  return eval::Auc(eval::Scores(pairs), eval::Labels(pairs));
}

TEST(Simulation, ValidatesConfig) {
  const Dataset dataset = SmallRtt();
  SimulationConfig config = DefaultConfig(dataset);
  config.rank = 0;
  EXPECT_THROW(DmfsgdSimulation(dataset, config), std::invalid_argument);
  config = DefaultConfig(dataset);
  config.neighbor_count = 0;
  EXPECT_THROW(DmfsgdSimulation(dataset, config), std::invalid_argument);
  config = DefaultConfig(dataset);
  config.neighbor_count = dataset.NodeCount();
  EXPECT_THROW(DmfsgdSimulation(dataset, config), std::invalid_argument);
  config = DefaultConfig(dataset);
  config.tau = 0.0;
  EXPECT_THROW(DmfsgdSimulation(dataset, config), std::invalid_argument);
  config = DefaultConfig(dataset);
  config.message_loss = 1.0;
  EXPECT_THROW(DmfsgdSimulation(dataset, config), std::invalid_argument);
  config = DefaultConfig(dataset);
  config.params.eta = 0.0;
  EXPECT_THROW(DmfsgdSimulation(dataset, config), std::invalid_argument);
}

// NaN passes a plain `x <= 0` check, and a NaN or infinite η or λ turns
// the factors NaN on the first step.
TEST(Simulation, RejectsNonFiniteHyperParameters) {
  const Dataset dataset = SmallRtt();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf}) {
    SimulationConfig config = DefaultConfig(dataset);
    config.tau = bad;
    EXPECT_THROW(DmfsgdSimulation(dataset, config), std::invalid_argument);
    config = DefaultConfig(dataset);
    config.params.eta = bad;
    EXPECT_THROW(DmfsgdSimulation(dataset, config), std::invalid_argument);
    config = DefaultConfig(dataset);
    config.params.lambda = bad;
    EXPECT_THROW(DmfsgdSimulation(dataset, config), std::invalid_argument);
  }
}

// The engine's probabilities: a NaN would silently act as 0.
TEST(Simulation, RejectsNanProbabilities) {
  const Dataset dataset = SmallRtt();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SimulationConfig config = DefaultConfig(dataset);
  config.message_loss = nan;
  EXPECT_THROW(DmfsgdSimulation(dataset, config), std::invalid_argument);
  config = DefaultConfig(dataset);
  config.churn_rate = nan;
  EXPECT_THROW(DmfsgdSimulation(dataset, config), std::invalid_argument);
}

TEST(Simulation, NeighborSetsHaveRequestedSize) {
  const Dataset dataset = SmallRtt();
  const DmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  for (const auto& neighbors : simulation.Neighbors()) {
    EXPECT_EQ(neighbors.size(), 16u);
  }
  EXPECT_EQ(simulation.NodeCount(), dataset.NodeCount());
}

TEST(Simulation, NeighborsExcludeSelfAndUnknownPairs) {
  const Dataset dataset = SmallAbw();
  const DmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  for (std::size_t i = 0; i < simulation.NodeCount(); ++i) {
    for (const NodeId j : simulation.Neighbors()[i]) {
      EXPECT_NE(static_cast<std::size_t>(j), i);
      EXPECT_TRUE(dataset.IsKnown(i, j));
    }
  }
}

TEST(Simulation, MeasurementCountTracksRounds) {
  const Dataset dataset = SmallRtt();
  DmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  EXPECT_EQ(simulation.MeasurementCount(), 0u);
  simulation.RunRounds(10);
  // One probe per node per round, no losses configured.
  EXPECT_EQ(simulation.MeasurementCount(), 10u * dataset.NodeCount());
  EXPECT_DOUBLE_EQ(simulation.AverageMeasurementsPerNode(), 10.0);
}

TEST(Simulation, ClassificationLearnsRttClasses) {
  const Dataset dataset = SmallRtt();
  DmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  simulation.RunRounds(600);
  EXPECT_GT(TestAuc(simulation), 0.88);
}

TEST(Simulation, ClassificationLearnsAbwClasses) {
  const Dataset dataset = SmallAbw();
  DmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  simulation.RunRounds(600);
  EXPECT_GT(TestAuc(simulation), 0.88);
}

TEST(Simulation, AucImprovesWithTraining) {
  const Dataset dataset = SmallRtt();
  DmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  const double before = TestAuc(simulation);
  simulation.RunRounds(200);
  const double after = TestAuc(simulation);
  EXPECT_GT(after, before + 0.2);
}

TEST(Simulation, WireFormatDoesNotChangeResults) {
  const Dataset dataset = SmallRtt();
  SimulationConfig config = DefaultConfig(dataset);
  DmfsgdSimulation plain(dataset, config);
  config.use_wire_format = true;
  DmfsgdSimulation wired(dataset, config);
  plain.RunRounds(50);
  wired.RunRounds(50);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 20; ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(plain.Predict(i, j), wired.Predict(i, j));
      }
    }
  }
}

TEST(Simulation, AbwWireFormatEquivalenceToo) {
  const Dataset dataset = SmallAbw();
  SimulationConfig config = DefaultConfig(dataset);
  DmfsgdSimulation plain(dataset, config);
  config.use_wire_format = true;
  DmfsgdSimulation wired(dataset, config);
  plain.RunRounds(30);
  wired.RunRounds(30);
  for (std::size_t i = 0; i < 15; ++i) {
    for (std::size_t j = 0; j < 15; ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(plain.Predict(i, j), wired.Predict(i, j));
      }
    }
  }
}

TEST(Simulation, MessageLossSlowsButDoesNotBreakLearning) {
  const Dataset dataset = SmallRtt();
  SimulationConfig config = DefaultConfig(dataset);
  config.message_loss = 0.3;
  DmfsgdSimulation lossy(dataset, config);
  lossy.RunRounds(600);
  EXPECT_GT(lossy.DroppedLegs(), 0u);
  EXPECT_LT(lossy.MeasurementCount(), 600u * dataset.NodeCount());
  EXPECT_GT(TestAuc(lossy), 0.85);
}

TEST(Simulation, AbwMeasurementAppliedAtTargetEvenIfReplyLost) {
  const Dataset dataset = SmallAbw();
  SimulationConfig config = DefaultConfig(dataset);
  config.message_loss = 0.5;
  DmfsgdSimulation lossy(dataset, config);
  lossy.RunRounds(50);
  // Request leg survives w.p. 0.5, so roughly half the probes reach the
  // target and count as measurements even when the reply leg dies.
  const double applied_fraction =
      static_cast<double>(lossy.MeasurementCount()) /
      (50.0 * static_cast<double>(dataset.NodeCount()));
  EXPECT_NEAR(applied_fraction, 0.5, 0.05);
}

TEST(Simulation, RegressionModePredictsNormalizedQuantities) {
  const Dataset dataset = SmallRtt();
  SimulationConfig config = DefaultConfig(dataset);
  config.mode = PredictionMode::kRegression;
  config.params.loss = LossKind::kL2;
  DmfsgdSimulation simulation(dataset, config);
  simulation.RunRounds(800);
  // Predictions approximate quantity / tau.  RTTs span two orders of
  // magnitude, so the mean *relative* error is dominated by short paths;
  // require it bounded and, more tellingly, that the regression scores rank
  // pairs correctly (low predicted RTT <=> truly good path).
  const auto pairs = eval::CollectScoredPairs(simulation);
  double total_relative_error = 0.0;
  std::vector<double> goodness_scores;
  goodness_scores.reserve(pairs.size());
  for (const auto& pair : pairs) {
    const double predicted = pair.score * config.tau;
    total_relative_error += std::abs(predicted - pair.quantity) / pair.quantity;
    goodness_scores.push_back(-pair.score);  // smaller RTT = better
  }
  EXPECT_LT(total_relative_error / static_cast<double>(pairs.size()), 1.0);
  EXPECT_GT(eval::Auc(goodness_scores, eval::Labels(pairs)), 0.85);
}

TEST(Simulation, ErrorInjectorDegradesAccuracy) {
  const Dataset dataset = SmallRtt();
  const SimulationConfig config = DefaultConfig(dataset);
  const std::vector<ErrorSpec> specs{{ErrorType::kFlipRandom, 0.0, 0.3}};
  // Type 3 is ABW-only in the paper, but the injector supports it on RTT
  // datasets as well; it's the harshest corruption, ideal for this check.
  const ErrorInjector injector(dataset, config.tau, specs, 3);
  DmfsgdSimulation clean(dataset, config);
  DmfsgdSimulation noisy(dataset, config, &injector);
  clean.RunRounds(400);
  noisy.RunRounds(400);
  EXPECT_GT(TestAuc(clean), TestAuc(noisy) + 0.03);
}

TEST(Simulation, TraceReplayAppliesOnlyNeighborRecords) {
  datasets::HarvardConfig harvard_config;
  harvard_config.node_count = 40;
  harvard_config.trace_records = 30000;
  harvard_config.seed = 41;
  const Dataset dataset = datasets::MakeHarvard(harvard_config);

  SimulationConfig config = DefaultConfig(dataset);
  DmfsgdSimulation simulation(dataset, config);
  const std::size_t applied = simulation.ReplayTrace();
  EXPECT_GT(applied, 0u);
  EXPECT_LT(applied, dataset.trace.size());  // most records are non-neighbor
  EXPECT_EQ(applied, simulation.MeasurementCount());
}

TEST(Simulation, TraceReplayLearns) {
  datasets::HarvardConfig harvard_config;
  harvard_config.node_count = 40;
  harvard_config.trace_records = 120000;
  harvard_config.seed = 43;
  const Dataset dataset = datasets::MakeHarvard(harvard_config);
  DmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  (void)simulation.ReplayTrace();
  EXPECT_GT(TestAuc(simulation), 0.8);
}

TEST(Simulation, TraceReplaySurvivesMessageLoss) {
  // Lost legs during replay are dropped exchanges, not errors: the record
  // simply doesn't apply (the engine's loud unconsumed-override check must
  // not fire for legitimately lost legs).
  datasets::HarvardConfig harvard_config;
  harvard_config.node_count = 40;
  harvard_config.trace_records = 30000;
  harvard_config.seed = 41;
  const Dataset dataset = datasets::MakeHarvard(harvard_config);

  SimulationConfig config = DefaultConfig(dataset);
  config.message_loss = 0.4;
  DmfsgdSimulation lossy(dataset, config);
  const std::size_t applied = lossy.ReplayTrace();
  EXPECT_GT(lossy.DroppedLegs(), 0u);
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(applied, lossy.MeasurementCount());
}

TEST(Simulation, ReplayTraceThrowsWithoutTrace) {
  const Dataset dataset = SmallRtt();
  DmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  EXPECT_THROW((void)simulation.ReplayTrace(), std::logic_error);
}

TEST(Simulation, InsensitiveToRandomInitialization) {
  // Paper §5.3: "insensitive to the random initialization of the
  // coordinates as well as the random selection of the neighbors."
  const Dataset dataset = SmallRtt();
  std::vector<double> aucs;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    SimulationConfig config = DefaultConfig(dataset);
    config.seed = seed;
    DmfsgdSimulation simulation(dataset, config);
    simulation.RunRounds(600);
    aucs.push_back(TestAuc(simulation));
  }
  const auto [min_it, max_it] = std::minmax_element(aucs.begin(), aucs.end());
  // At this toy scale (60 nodes) seeds vary more than in the paper's
  // deployments; the claim is "no seed breaks the system".
  EXPECT_LT(*max_it - *min_it, 0.1);
  EXPECT_GT(*min_it, 0.88);
}

TEST(Simulation, PredictBoundsChecked) {
  const Dataset dataset = SmallRtt();
  const DmfsgdSimulation simulation(dataset, DefaultConfig(dataset));
  EXPECT_THROW((void)simulation.Predict(0, dataset.NodeCount()),
               std::out_of_range);
  EXPECT_THROW((void)simulation.node(dataset.NodeCount()), std::out_of_range);
  EXPECT_THROW((void)simulation.IsNeighborPair(dataset.NodeCount(), 0),
               std::out_of_range);
}

}  // namespace
}  // namespace dmfsgd::core
