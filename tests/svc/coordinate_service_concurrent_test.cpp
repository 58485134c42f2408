// The service's reader–writer query plane (DESIGN.md §18): const queries
// from many threads are bit-identical to a single-thread replay on a
// quiescent service, and queries racing the ingest plane (which refreshes
// a copy of the index underneath and publishes it by pointer swap) always
// see a coherent index within the staleness budget — never a crash, never
// a row outside the store.  Runs under the TSan CI leg, which is what
// actually pins the locking contract.
#include "svc/coordinate_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "datasets/meridian.hpp"

namespace dmfsgd::svc {
namespace {

using datasets::Dataset;

Dataset SmallRtt(std::size_t nodes = 96) {
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

TEST(CoordinateServiceConcurrent, ParallelQueriesMatchSerialOnQuiescentService) {
  const Dataset dataset = SmallRtt();
  const ServiceConfig config = SmallConfig(dataset);
  CoordinateService service(dataset, config);
  service.IngestRounds(4);

  const std::size_t n = service.NodeCount();
  std::vector<double> serial_scores(n);
  std::vector<eval::KnnResult> serial_peers(n);
  for (std::size_t i = 0; i < n; ++i) {
    serial_scores[i] = service.QueryScore(i, (i + 1) % n);
    serial_peers[i] = service.QueryNearestPeers(i, 5);
  }

  for (const std::size_t threads : {2u, 4u, 8u}) {
    std::vector<double> scores(n);
    std::vector<eval::KnnResult> peers(n);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const auto [begin, end] = common::BlockRange(n, threads, t);
        for (std::size_t i = begin; i < end; ++i) {
          scores[i] = service.QueryScore(i, (i + 1) % n);
          peers[i] = service.QueryNearestPeers(i, 5);
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(scores[i], serial_scores[i]) << "node " << i;
      ASSERT_EQ(peers[i].ids, serial_peers[i].ids) << "node " << i;
      ASSERT_EQ(peers[i].scores, serial_peers[i].scores) << "node " << i;
    }
  }
}

TEST(CoordinateServiceConcurrent, QueriesRacingIngestStayCoherent) {
  const Dataset dataset = SmallRtt();
  ServiceConfig config = SmallConfig(dataset);
  config.staleness_budget = 16;  // force frequent ApplyUpdates under the race
  CoordinateService service(dataset, config);
  service.IngestRounds(1);

  const std::size_t n = service.NodeCount();
  std::atomic<std::uint64_t> answered{0};
  constexpr std::size_t kQueryThreads = 4;
  // Fixed per-thread iteration counts (not a stop flag): a reader-preferring
  // rwlock on a single core would otherwise starve the writer for the whole
  // test; the yield per loop gives the exclusive plane a shot at the lock.
  constexpr std::size_t kPerThread = 150;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kQueryThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t q = 0; q < kPerThread; ++q) {
        const std::size_t i = t * kPerThread + q;
        const double score = service.QueryScore(i % n, (i + 1) % n);
        ASSERT_TRUE(std::isfinite(score));
        const eval::KnnResult peers = service.QueryNearestPeers(i % n, 5);
        ASSERT_LE(peers.Size(), 5u);
        for (std::size_t p = 0; p < peers.Size(); ++p) {
          ASSERT_LT(peers.ids[p], n);
          ASSERT_NE(peers.ids[p], i % n);
          ASSERT_TRUE(std::isfinite(peers.scores[p]));
        }
        ASSERT_LE(service.CurrentStaleness(), config.staleness_budget);
        answered.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
  }

  // The writer: rounds (each blows through the budget alone, so its
  // refresh publishes inside the round's exclusive hold), pushed pairs and
  // active probes (which reach the budget exactly, so their refreshes run
  // off the state lock) while queries run.
  for (std::size_t round = 0; round < 3; ++round) {
    service.IngestRounds(1);
    for (std::size_t p = 0; p < 16; ++p) {
      (void)service.Ingest(p % n, (p + 7) % n);
      (void)service.IngestProbe(static_cast<core::NodeId>((p * 5 + round) % n));
    }
  }
  for (std::thread& worker : workers) {
    worker.join();
  }

  EXPECT_EQ(answered.load(), kQueryThreads * kPerThread);
  const CoordinateService::Stats stats = service.stats();
  // Four rounds publish in their hold; the single ingests add more.
  EXPECT_GT(stats.index_refreshes, 4u);
  EXPECT_GE(stats.queries, answered.load() * 2);  // score + knn per loop
  EXPECT_LE(service.CurrentStaleness(), config.staleness_budget);
}

}  // namespace
}  // namespace dmfsgd::svc
