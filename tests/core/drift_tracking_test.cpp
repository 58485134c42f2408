// Coordinate drift tracking (DESIGN.md §16): the engine publishes which
// node rows moved so the ANN query plane can refresh its snapshots.  The
// load-bearing properties pinned here:
//
//  * non-interference — enabling tracking is bit-identical to not enabling
//    it, on the sequential sweep, the parallel sweep and message-driven
//    rounds (marking a dirty byte never touches an RNG or a coordinate);
//  * completeness — every row that changed since the last drain is in the
//    dirty set (missing a drifted row would silently rot the index);
//  * the drain returns ascending node ids and resets the set.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "core/simulation.hpp"
#include "datasets/hps3.hpp"
#include "datasets/meridian.hpp"

namespace dmfsgd::core {
namespace {

using datasets::Dataset;

Dataset SmallRtt() {
  datasets::MeridianConfig config;
  config.node_count = 90;
  config.seed = 41;
  return datasets::MakeMeridian(config);
}

Dataset SmallAbw() {
  datasets::HpS3Config config;
  config.host_count = 90;
  config.seed = 43;
  return datasets::MakeHpS3(config);
}

SimulationConfig BaseConfig(const Dataset& dataset) {
  SimulationConfig config;
  config.rank = 8;
  config.neighbor_count = 12;
  config.tau = dataset.MedianValue();
  config.seed = 7;
  return config;
}

// kMessages runs RunRounds over the wire-codec stack, so the per-message
// handlers' drift marks stay covered next to the sweep's (kSequential).
enum class Driver { kSequential, kParallel, kMessages };

std::unique_ptr<DmfsgdSimulation> MakeSimulation(const Dataset& dataset,
                                                 SimulationConfig config,
                                                 Driver driver) {
  config.use_wire_format = driver == Driver::kMessages;
  return std::make_unique<DmfsgdSimulation>(dataset, config);
}

void Drive(DmfsgdSimulation& simulation, Driver driver, std::size_t rounds,
           std::size_t threads) {
  if (driver == Driver::kParallel) {
    common::ThreadPool pool(threads);
    simulation.RunRoundsParallel(rounds, pool);
  } else {
    simulation.RunRounds(rounds);
  }
}

std::unique_ptr<DmfsgdSimulation> RunDriver(const Dataset& dataset,
                                      const SimulationConfig& config,
                                      Driver driver, std::size_t rounds,
                                      bool track) {
  auto simulation = MakeSimulation(dataset, config, driver);
  if (track) {
    simulation->EnableDriftTracking();
  }
  Drive(*simulation, driver, rounds, 4);
  return simulation;
}

void ExpectBitIdentical(const DmfsgdSimulation& a, const DmfsgdSimulation& b) {
  const auto u_a = a.engine().store().UData();
  const auto u_b = b.engine().store().UData();
  const auto v_a = a.engine().store().VData();
  const auto v_b = b.engine().store().VData();
  ASSERT_EQ(u_a.size(), u_b.size());
  EXPECT_EQ(std::memcmp(u_a.data(), u_b.data(), u_a.size_bytes()), 0);
  EXPECT_EQ(std::memcmp(v_a.data(), v_b.data(), v_a.size_bytes()), 0);
  EXPECT_EQ(a.MeasurementCount(), b.MeasurementCount());
  EXPECT_EQ(a.DroppedLegs(), b.DroppedLegs());
  EXPECT_EQ(a.ChurnCount(), b.ChurnCount());
}

TEST(DriftTracking, NeverPerturbsTraining) {
  for (const Dataset& dataset : {SmallRtt(), SmallAbw()}) {
    SimulationConfig config = BaseConfig(dataset);
    config.message_loss = 0.1;
    config.churn_rate = 0.01;
    for (const Driver driver :
         {Driver::kSequential, Driver::kParallel, Driver::kMessages}) {
      const auto tracked = RunDriver(dataset, config, driver, 40, true);
      const auto untracked = RunDriver(dataset, config, driver, 40, false);
      ExpectBitIdentical(*tracked, *untracked);
    }
  }
}

TEST(DriftTracking, DirtySetCoversEveryChangedRow) {
  for (const Dataset& dataset : {SmallRtt(), SmallAbw()}) {
    for (const Driver driver :
         {Driver::kSequential, Driver::kParallel, Driver::kMessages}) {
      auto simulation = MakeSimulation(dataset, BaseConfig(dataset), driver);
      simulation->EnableDriftTracking();
      const auto& store = simulation->engine().store();
      const std::size_t rank = store.rank();
      const std::vector<double> u_before(store.UData().begin(),
                                         store.UData().end());
      const std::vector<double> v_before(store.VData().begin(),
                                         store.VData().end());

      Drive(*simulation, driver, 15, 3);

      const std::vector<NodeId> dirty = simulation->TakeDirtyNodes();
      EXPECT_FALSE(dirty.empty());
      std::vector<bool> marked(store.NodeCount(), false);
      for (const NodeId id : dirty) {
        marked[id] = true;
      }
      const auto u_after = store.UData();
      const auto v_after = store.VData();
      for (std::size_t i = 0; i < store.NodeCount(); ++i) {
        const bool u_moved = std::memcmp(u_before.data() + i * rank,
                                         u_after.data() + i * rank,
                                         rank * sizeof(double)) != 0;
        const bool v_moved = std::memcmp(v_before.data() + i * rank,
                                         v_after.data() + i * rank,
                                         rank * sizeof(double)) != 0;
        if (u_moved || v_moved) {
          EXPECT_TRUE(marked[i]) << "node " << i << " moved but was not marked";
        }
      }
    }
  }
}

TEST(DriftTracking, DrainIsAscendingAndResets) {
  const Dataset dataset = SmallRtt();
  DmfsgdSimulation simulation(dataset, BaseConfig(dataset));
  simulation.EnableDriftTracking();
  simulation.RunRounds(10);
  const std::vector<NodeId> first = simulation.TakeDirtyNodes();
  ASSERT_FALSE(first.empty());
  for (std::size_t r = 1; r < first.size(); ++r) {
    EXPECT_LT(first[r - 1], first[r]);
  }
  // No training in between: the set was drained.
  EXPECT_TRUE(simulation.TakeDirtyNodes().empty());
  // And it refills on further training.
  simulation.RunRounds(1);
  EXPECT_FALSE(simulation.TakeDirtyNodes().empty());
}

TEST(DriftTracking, ChurnedNodesAreMarked) {
  const Dataset dataset = SmallRtt();
  DmfsgdSimulation simulation(dataset, BaseConfig(dataset));
  simulation.EnableDriftTracking();
  (void)simulation.TakeDirtyNodes();
  simulation.ResetNode(23);
  const std::vector<NodeId> dirty = simulation.TakeDirtyNodes();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], 23u);
}

TEST(DriftTracking, ThrowsWhenNeverEnabled) {
  const Dataset dataset = SmallRtt();
  DmfsgdSimulation simulation(dataset, BaseConfig(dataset));
  EXPECT_THROW((void)simulation.TakeDirtyNodes(), std::logic_error);
}

}  // namespace
}  // namespace dmfsgd::core
