#include "core/snapshot.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "datasets/meridian.hpp"

namespace dmfsgd::core {
namespace {

using datasets::Dataset;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("dmfsgd_snapshot_test_") + info->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static Dataset SmallRtt() {
    datasets::MeridianConfig config;
    config.node_count = 40;
    config.seed = 81;
    return datasets::MakeMeridian(config);
  }

  static SimulationConfig SmallConfig(const Dataset& dataset) {
    SimulationConfig config;
    config.neighbor_count = 8;
    config.tau = dataset.MedianValue();
    return config;
  }

  /// Trains in place and returns the archived coordinates (the simulation
  /// itself is pinned to its channel and cannot be moved out).
  static CoordinateSnapshot TrainedSnapshot(const Dataset& dataset) {
    DmfsgdSimulation simulation(dataset, SmallConfig(dataset));
    simulation.RunRounds(100);
    return TakeSnapshot(simulation);
  }

  std::filesystem::path dir_;
};

TEST_F(SnapshotTest, CapturesLivePredictions) {
  const Dataset dataset = SmallRtt();
  DmfsgdSimulation simulation(dataset, SmallConfig(dataset));
  simulation.RunRounds(100);
  const CoordinateSnapshot snapshot = TakeSnapshot(simulation);
  EXPECT_EQ(snapshot.NodeCount(), dataset.NodeCount());
  EXPECT_EQ(snapshot.rank(), simulation.config().rank);
  for (std::size_t i = 0; i < 15; ++i) {
    for (std::size_t j = 0; j < 15; ++j) {
      if (i != j) {
        EXPECT_DOUBLE_EQ(snapshot.Predict(i, j), simulation.Predict(i, j));
      }
    }
  }
}

TEST_F(SnapshotTest, RoundTripsThroughDisk) {
  const Dataset dataset = SmallRtt();
  const CoordinateSnapshot original = TrainedSnapshot(dataset);
  const auto path = dir_ / "model.csv";
  SaveSnapshot(original, path);
  const CoordinateSnapshot loaded = LoadSnapshot(path);
  ASSERT_EQ(loaded.NodeCount(), original.NodeCount());
  ASSERT_EQ(loaded.rank(), original.rank());
  for (std::size_t i = 0; i < loaded.NodeCount(); ++i) {
    for (std::size_t j = 0; j < loaded.NodeCount(); ++j) {
      if (i != j) {
        EXPECT_NEAR(loaded.Predict(i, j), original.Predict(i, j), 1e-9);
      }
    }
  }
}

TEST_F(SnapshotTest, PredictBoundsChecked) {
  const CoordinateSnapshot snapshot = TrainedSnapshot(SmallRtt());
  EXPECT_THROW((void)snapshot.Predict(0, snapshot.NodeCount()),
               std::out_of_range);
}

TEST_F(SnapshotTest, SaveRejectsMalformedSnapshot) {
  // A default snapshot holds an empty store (rank 0) — not archivable.  The
  // SoA store makes per-row rank mismatches unrepresentable by construction.
  const CoordinateSnapshot snapshot;
  EXPECT_THROW(SaveSnapshot(snapshot, dir_ / "bad.csv"), std::invalid_argument);
}

TEST_F(SnapshotTest, LoadRejectsForeignFiles) {
  const auto path = dir_ / "foreign.csv";
  {
    std::ofstream out(path);
    out << "something,else,3\n1,2,3\n";
  }
  EXPECT_THROW((void)LoadSnapshot(path), std::invalid_argument);
  EXPECT_THROW((void)LoadSnapshot(dir_ / "missing.csv"), std::runtime_error);
}

TEST_F(SnapshotTest, LoadRejectsTruncatedRows) {
  const Dataset dataset = SmallRtt();
  const auto path = dir_ / "model.csv";
  SaveSnapshot(TrainedSnapshot(dataset), path);
  // Corrupt: drop the last line.
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  contents.erase(contents.find_last_of('\n', contents.size() - 2) + 1);
  std::ofstream out(path);
  out << contents;
  out.close();
  EXPECT_THROW((void)LoadSnapshot(path), std::invalid_argument);
}

// The header is outside input.  Its counts must be whole unsigned numbers
// ("2x" and " 2" are not 2; a count past 64 bits or a negative one is
// malformed, not an out_of_range or a length_error), and a rank whose
// doubling wraps (2^63 + 1 doubles to 2) must not let two-field rows pass
// the width check into a store sized by the wrapped n·rank.
TEST_F(SnapshotTest, LoadRejectsMalformedHeaderCounts) {
  const auto path = dir_ / "header.csv";
  for (const char* file :
       {"dmfsgd-snapshot,9223372036854775809,2\n1,2\n3,4\n",
        "dmfsgd-snapshot,9223372036854775809,1\n1,2\n",
        "dmfsgd-snapshot,1099511627776,2\n1,2\n3,4\n",
        "dmfsgd-snapshot,2x,1\n1,2,3,4\n", "dmfsgd-snapshot, 2,1\n1,2,3,4\n",
        "dmfsgd-snapshot,2,1x\n1,2,3,4\n",
        "dmfsgd-snapshot,99999999999999999999,1\n1,2\n",
        "dmfsgd-snapshot,-2,1\n1,2\n"}) {
    SCOPED_TRACE(file);
    {
      std::ofstream out(path, std::ios::trunc);
      out << file;
    }
    EXPECT_THROW((void)LoadSnapshot(path), std::invalid_argument);
  }
}

TEST_F(SnapshotTest, PredictAllMatchesPerPairPredictForAnyPoolSize) {
  const Dataset dataset = SmallRtt();
  const CoordinateSnapshot snapshot = TrainedSnapshot(dataset);
  const std::size_t n = snapshot.NodeCount();

  const auto serial = snapshot.PredictAll();
  ASSERT_EQ(serial.size(), n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(serial[i * n + j], snapshot.Predict(i, j));
    }
  }

  common::ThreadPool pool(3);
  EXPECT_EQ(snapshot.PredictAll(&pool), serial);

  std::vector<double> reused(n * n);
  PredictAllInto(snapshot.store, reused, &pool);
  EXPECT_EQ(reused, serial);
  std::vector<double> wrong(n * n - 1);
  EXPECT_THROW(PredictAllInto(snapshot.store, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace dmfsgd::core
