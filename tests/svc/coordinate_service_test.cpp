#include "svc/coordinate_service.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "datasets/meridian.hpp"

namespace dmfsgd::svc {
namespace {

using datasets::Dataset;

Dataset SmallRtt(std::size_t nodes = 48) {
  datasets::MeridianConfig config;
  config.node_count = nodes;
  config.seed = 83;
  return datasets::MakeMeridian(config);
}

ServiceConfig SmallConfig(const Dataset& dataset) {
  ServiceConfig config;
  config.neighbor_count = 8;
  config.tau = dataset.MedianValue();
  config.seed = 7;
  config.staleness_budget = 64;
  return config;
}

/// The shared ingest script the determinism tests replay: rounds, pushed
/// pairs, active probes and a pushed live measurement.
void DriveScript(CoordinateService& service) {
  service.IngestRounds(3);
  (void)service.Ingest(0, 5);
  (void)service.Ingest(17, 2);
  (void)service.IngestProbe(9);
  (void)service.IngestProbe(31);
  (void)service.Ingest(4, 40, 123.5);
  service.IngestRounds(2);
}

void ExpectStoresIdentical(const core::CoordinateStore& actual,
                           const core::CoordinateStore& expected) {
  ASSERT_EQ(actual.NodeCount(), expected.NodeCount());
  ASSERT_EQ(actual.rank(), expected.rank());
  const auto au = actual.UData(), eu = expected.UData();
  const auto av = actual.VData(), ev = expected.VData();
  for (std::size_t x = 0; x < au.size(); ++x) {
    ASSERT_EQ(au[x], eu[x]) << "U mismatch at flat index " << x;
    ASSERT_EQ(av[x], ev[x]) << "V mismatch at flat index " << x;
  }
}

class CoordinateServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("dmfsgd_coordinate_service_test_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(CoordinateServiceTest, SameIngestSequenceGivesSameAnswers) {
  const Dataset dataset = SmallRtt();
  const ServiceConfig config = SmallConfig(dataset);
  CoordinateService a(dataset, config);
  CoordinateService b(dataset, config);
  DriveScript(a);
  DriveScript(b);

  ASSERT_EQ(a.stats().ingests, b.stats().ingests);
  ExpectStoresIdentical(a.store(), b.store());
  for (std::size_t i = 0; i < a.NodeCount(); i += 5) {
    for (std::size_t j = 1; j < a.NodeCount(); j += 7) {
      ASSERT_EQ(a.QueryScore(i, j), b.QueryScore(i, j));
      ASSERT_EQ(a.QueryLevel(i, j), b.QueryLevel(i, j));
    }
    const eval::KnnResult pa = a.QueryNearestPeers(i, 5);
    const eval::KnnResult pb = b.QueryNearestPeers(i, 5);
    ASSERT_EQ(pa.ids, pb.ids);
    ASSERT_EQ(pa.scores, pb.scores);
  }
}

// Index warming reads coordinates but never writes them, so the staleness
// budget must not affect the trained state — an eager service (budget 1)
// and a lazy one (budget ~inf) end bitwise identical, and their exact-mode
// k-NN answers match.
TEST_F(CoordinateServiceTest, StalenessBudgetDoesNotChangeStateOrExactAnswers) {
  const Dataset dataset = SmallRtt();
  ServiceConfig eager = SmallConfig(dataset);
  eager.staleness_budget = 1;
  ServiceConfig lazy = SmallConfig(dataset);
  lazy.staleness_budget = 1u << 30;
  CoordinateService a(dataset, eager);
  CoordinateService b(dataset, lazy);
  DriveScript(a);
  DriveScript(b);

  EXPECT_GT(a.stats().index_refreshes, b.stats().index_refreshes);
  ExpectStoresIdentical(a.store(), b.store());
  const std::size_t n = a.NodeCount();
  for (std::size_t i = 0; i < n; i += 5) {
    const eval::KnnResult pa = a.QueryNearestPeers(i, 4, n);  // ef >= n: exact
    const eval::KnnResult pb = b.QueryNearestPeers(i, 4, n);
    ASSERT_EQ(pa.ids, pb.ids);
    ASSERT_EQ(pa.scores, pb.scores);
  }
}

TEST_F(CoordinateServiceTest, StalenessStaysWithinBudget) {
  const Dataset dataset = SmallRtt();
  ServiceConfig config = SmallConfig(dataset);
  config.staleness_budget = 10;
  CoordinateService service(dataset, config);
  for (std::size_t step = 0; step < 100; ++step) {
    (void)service.IngestProbe(static_cast<core::NodeId>(step % service.NodeCount()));
    ASSERT_LE(service.CurrentStaleness(), config.staleness_budget);
  }
  service.IngestRounds(2);
  EXPECT_LE(service.CurrentStaleness(), config.staleness_budget);
  EXPECT_GT(service.stats().index_refreshes, 0u);
}

TEST_F(CoordinateServiceTest, QueriesNeverMutateTheStore) {
  const Dataset dataset = SmallRtt();
  CoordinateService service(dataset, SmallConfig(dataset));
  service.IngestRounds(3);
  const std::vector<double> u_before(service.store().UData().begin(),
                                     service.store().UData().end());
  const std::vector<double> v_before(service.store().VData().begin(),
                                     service.store().VData().end());
  for (std::size_t i = 0; i < service.NodeCount(); ++i) {
    (void)service.QueryScore(i, (i + 1) % service.NodeCount());
    (void)service.QueryQuantity(i, (i + 3) % service.NodeCount());
    (void)service.QueryLevel(i, (i + 5) % service.NodeCount());
    (void)service.QueryNearestPeers(i, 3);
  }
  EXPECT_TRUE(std::equal(u_before.begin(), u_before.end(),
                         service.store().UData().begin()));
  EXPECT_TRUE(std::equal(v_before.begin(), v_before.end(),
                         service.store().VData().begin()));
  EXPECT_GE(service.stats().queries, 4u * service.NodeCount());
}

// Stats::queries counts answered calls: a query rejected for a bad id
// throws before it answers and must not be counted.
TEST_F(CoordinateServiceTest, RejectedQueriesAreNotCounted) {
  const Dataset dataset = SmallRtt();
  CoordinateService service(dataset, SmallConfig(dataset));
  (void)service.QueryScore(0, 1);
  (void)service.QueryNearestPeers(0, 3);
  const std::uint64_t answered = service.stats().queries;
  ASSERT_EQ(answered, 2u);
  const std::size_t bad = service.NodeCount();
  EXPECT_THROW((void)service.QueryScore(bad, 1), std::out_of_range);
  EXPECT_THROW((void)service.QueryQuantity(0, bad), std::out_of_range);
  EXPECT_THROW((void)service.QueryLevel(bad, 0), std::out_of_range);
  EXPECT_THROW((void)service.QueryNearestPeers(bad, 3), std::out_of_range);
  EXPECT_EQ(service.stats().queries, answered);
}

TEST_F(CoordinateServiceTest, RestartFromCheckpointIsBitIdentical) {
  const Dataset dataset = SmallRtt();
  ServiceConfig config = SmallConfig(dataset);
  config.snapshot_dir = dir_;
  config.snapshot_interval = 50;  // several periodic epochs during the script

  std::vector<double> u_before, v_before;
  std::uint64_t epochs = 0;
  {
    CoordinateService service(dataset, config);
    EXPECT_FALSE(service.stats().resumed);
    DriveScript(service);
    service.Checkpoint();
    epochs = service.stats().epochs;
    u_before.assign(service.store().UData().begin(),
                    service.store().UData().end());
    v_before.assign(service.store().VData().begin(),
                    service.store().VData().end());
  }
  EXPECT_GT(epochs, 1u);

  CoordinateService restarted(dataset, config);
  EXPECT_TRUE(restarted.stats().resumed);
  EXPECT_FALSE(restarted.stats().recovered_torn_tail);
  EXPECT_TRUE(std::equal(u_before.begin(), u_before.end(),
                         restarted.store().UData().begin()));
  EXPECT_TRUE(std::equal(v_before.begin(), v_before.end(),
                         restarted.store().VData().begin()));
}

// A crash mid-epoch leaves a torn tail; the restarted service must come up
// on the last-good-epoch state, bit-identical to what Checkpoint() durably
// wrote — not fail, and not half-apply the tail.
TEST_F(CoordinateServiceTest, RestartAfterTornTailRecoversLastCheckpoint) {
  const Dataset dataset = SmallRtt();
  ServiceConfig config = SmallConfig(dataset);
  config.snapshot_dir = dir_;
  config.snapshot_interval = 1u << 30;  // only explicit checkpoints

  std::vector<double> u_good, v_good;
  {
    CoordinateService service(dataset, config);
    service.IngestRounds(2);
    service.Checkpoint();
    u_good.assign(service.store().UData().begin(),
                  service.store().UData().end());
    v_good.assign(service.store().VData().begin(),
                  service.store().VData().end());
    service.IngestRounds(1);  // trains past the checkpoint, never persisted
  }
  // Simulate the crash tearing a half-written epoch onto the log.
  {
    std::ofstream log(dir_ / "deltas.log", std::ios::app | std::ios::binary);
    log << "epoch,2,3\n4,0.5,0.5";  // no commit line
  }

  CoordinateService restarted(dataset, config);
  EXPECT_TRUE(restarted.stats().resumed);
  EXPECT_TRUE(restarted.stats().recovered_torn_tail);
  EXPECT_TRUE(std::equal(u_good.begin(), u_good.end(),
                         restarted.store().UData().begin()));
  EXPECT_TRUE(std::equal(v_good.begin(), v_good.end(),
                         restarted.store().VData().begin()));
}

TEST_F(CoordinateServiceTest, QueryLevelCountsThresholdsInTheBetterDirection) {
  const Dataset dataset = SmallRtt();
  ServiceConfig config = SmallConfig(dataset);
  config.class_thresholds = {-0.5, 0.0, 0.5};
  CoordinateService service(dataset, config);
  service.IngestRounds(5);

  ASSERT_EQ(service.DefaultOrdering(), eval::KnnOrdering::kLargestFirst);
  bool saw_nonzero = false;
  for (std::size_t i = 0; i < service.NodeCount(); ++i) {
    const std::size_t j = (i + 11) % service.NodeCount();
    if (i == j) {
      continue;
    }
    const double score = service.QueryScore(i, j);
    std::size_t expected = 0;
    for (const double threshold : config.class_thresholds) {
      expected += score > threshold ? 1 : 0;
    }
    ASSERT_EQ(service.QueryLevel(i, j), expected);
    saw_nonzero |= expected > 0;
  }
  EXPECT_TRUE(saw_nonzero);
}

TEST_F(CoordinateServiceTest, BadConfigsThrowThroughTheOneValidator) {
  const Dataset dataset = SmallRtt();
  ServiceConfig bad_shared = SmallConfig(dataset);
  bad_shared.rank = 0;  // a shared-knob violation: the shared validator's job
  EXPECT_THROW(CoordinateService(dataset, bad_shared), std::invalid_argument);

  ServiceConfig bad_budget = SmallConfig(dataset);
  bad_budget.staleness_budget = 0;
  EXPECT_THROW(CoordinateService(dataset, bad_budget), std::invalid_argument);

  ServiceConfig bad_interval = SmallConfig(dataset);
  bad_interval.snapshot_interval = 0;
  EXPECT_THROW(CoordinateService(dataset, bad_interval), std::invalid_argument);
}

}  // namespace
}  // namespace dmfsgd::svc
