// Parity pins for the sequential round sweep of DESIGN.md §14.
//
// The load-bearing claim: on the bare immediate stack RunRounds runs
// DeploymentEngine::SequentialRoundSweep, which must be bit-identical to
// the message-driven round — the gather pass replays the per-message RNG
// draw order verbatim, and the apply pass runs the same node updates in
// the same order on live store rows.  The reference is RunRounds over the
// wire-codec stack, which always sends every exchange as messages.  Pinned
// across both exchange algorithms, message loss, churn, every probe
// strategy, the single-round case and a procedural dataset: U and V by
// memcmp, plus every counter.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "core/simulation.hpp"
#include "datasets/hps3.hpp"
#include "datasets/meridian.hpp"
#include "datasets/procedural.hpp"

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

SimulationConfig BaseConfig(const Dataset& dataset) {
  SimulationConfig config;
  config.rank = 10;
  config.neighbor_count = 16;
  config.tau = dataset.MedianValue();
  config.seed = 5;
  return config;
}

void ExpectBitIdentical(const DmfsgdSimulation& a, const DmfsgdSimulation& b,
                        const char* what) {
  const auto& store_a = a.engine().store();
  const auto& store_b = b.engine().store();
  ASSERT_EQ(store_a.NodeCount(), store_b.NodeCount()) << what;
  ASSERT_EQ(store_a.rank(), store_b.rank()) << what;
  const auto u_a = store_a.UData();
  const auto u_b = store_b.UData();
  const auto v_a = store_a.VData();
  const auto v_b = store_b.VData();
  EXPECT_EQ(std::memcmp(u_a.data(), u_b.data(), u_a.size_bytes()), 0)
      << what << ": U diverged";
  EXPECT_EQ(std::memcmp(v_a.data(), v_b.data(), v_a.size_bytes()), 0)
      << what << ": V diverged";
  EXPECT_EQ(a.MeasurementCount(), b.MeasurementCount()) << what;
  EXPECT_EQ(a.DroppedLegs(), b.DroppedLegs()) << what;
  EXPECT_EQ(a.ChurnCount(), b.ChurnCount()) << what;
  EXPECT_EQ(a.engine().InFlight(), b.engine().InFlight()) << what;
}

/// RunRounds on the bare stack (the sweep) against RunRounds through the
/// wire codec (message by message), same dataset, config and rounds.
void ExpectSweepMatchesMessages(const Dataset& dataset,
                                const SimulationConfig& config,
                                std::size_t rounds, const char* what) {
  SimulationConfig wire_config = config;
  wire_config.use_wire_format = true;
  DmfsgdSimulation sweep(dataset, config);
  DmfsgdSimulation messages(dataset, wire_config);
  sweep.RunRounds(rounds);
  messages.RunRounds(rounds);
  ExpectBitIdentical(sweep, messages, what);
}

// ------------------------------------------------------------------------
// Algorithm 1 (RTT)

TEST(SequentialRound, RttBitIdenticalWithLossAndChurn) {
  const Dataset dataset = SmallRtt();
  SimulationConfig config = BaseConfig(dataset);
  config.message_loss = 0.2;
  config.churn_rate = 0.02;
  DmfsgdSimulation probe(dataset, config);
  probe.RunRounds(40);
  EXPECT_GT(probe.DroppedLegs(), 0u);
  EXPECT_GT(probe.ChurnCount(), 0u);
  ExpectSweepMatchesMessages(dataset, config, 40, "rtt loss+churn");
}

TEST(SequentialRound, RttBitIdenticalUnderEveryProbeStrategy) {
  const Dataset dataset = SmallRtt();
  for (const ProbeStrategy strategy :
       {ProbeStrategy::kUniformRandom, ProbeStrategy::kRoundRobin,
        ProbeStrategy::kLossDriven}) {
    SimulationConfig config = BaseConfig(dataset);
    config.strategy = strategy;
    ExpectSweepMatchesMessages(dataset, config, 30,
                               ProbeStrategyName(strategy));
  }
}

TEST(SequentialRound, SingleRound) {
  const Dataset dataset = SmallRtt();
  ExpectSweepMatchesMessages(dataset, BaseConfig(dataset), 1,
                             "rtt single round");
}

// ------------------------------------------------------------------------
// Algorithm 2 (ABW): the target updates even when the reply leg is lost

TEST(SequentialRoundAlg2, AbwBitIdenticalWithLossAndChurn) {
  const Dataset dataset = SmallAbw();
  SimulationConfig config = BaseConfig(dataset);
  config.message_loss = 0.2;
  config.churn_rate = 0.02;
  DmfsgdSimulation probe(dataset, config);
  probe.RunRounds(40);
  EXPECT_GT(probe.DroppedLegs(), 0u);
  EXPECT_GT(probe.ChurnCount(), 0u);
  ExpectSweepMatchesMessages(dataset, config, 40, "abw loss+churn");
}

TEST(SequentialRoundAlg2, AbwBitIdenticalUnderEveryProbeStrategy) {
  const Dataset dataset = SmallAbw();
  for (const ProbeStrategy strategy :
       {ProbeStrategy::kUniformRandom, ProbeStrategy::kRoundRobin,
        ProbeStrategy::kLossDriven}) {
    SimulationConfig config = BaseConfig(dataset);
    config.strategy = strategy;
    ExpectSweepMatchesMessages(dataset, config, 30,
                               ProbeStrategyName(strategy));
  }
}

TEST(SequentialRoundAlg2, SingleRound) {
  const Dataset dataset = SmallAbw();
  ExpectSweepMatchesMessages(dataset, BaseConfig(dataset), 1,
                             "abw single round");
}

// ------------------------------------------------------------------------
// Procedural datasets drive the bench-scale rounds; pin the parity there
// too (small n — the property, not the scale).

TEST(SequentialRound, ProceduralDatasetKeepsParity) {
  datasets::EuclideanRttConfig procedural;
  procedural.node_count = 96;
  procedural.seed = 3;
  const Dataset dataset = datasets::MakeEuclideanRtt(procedural);
  SimulationConfig config;
  config.rank = 10;
  config.neighbor_count = 16;
  config.tau = datasets::SampledMedianValue(dataset);
  config.seed = 5;
  config.message_loss = 0.1;
  ExpectSweepMatchesMessages(dataset, config, 30, "procedural rtt");
}

// ------------------------------------------------------------------------
// Bursts: the gather models one exchange per node per round, so the engine
// sweep rejects them and RunRounds sends a burst's exchanges as messages.

TEST(SequentialRound, SweepRejectsProbeBursts) {
  const Dataset dataset = SmallRtt();
  SimulationConfig config = BaseConfig(dataset);
  config.probe_burst = 3;
  ImmediateDeliveryChannel channel;
  DeploymentEngine engine(dataset, config, nullptr, channel);
  EXPECT_THROW(engine.SequentialRoundSweep(), std::logic_error);

  DmfsgdSimulation simulation(dataset, config);
  simulation.RunRounds(2);
  EXPECT_EQ(simulation.MeasurementCount(), 2 * 3 * dataset.NodeCount());
}

}  // namespace
}  // namespace dmfsgd::core
