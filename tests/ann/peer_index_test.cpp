// PeerIndex structural properties (DESIGN.md §16): exact-mode oracle
// parity, determinism, membership maintenance, recall on a static store.
// Drift/staleness behaviour lives in peer_index_drift_test.cpp.
#include "ann/peer_index.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"

namespace dmfsgd::ann {
namespace {

using core::CoordinateStore;
using eval::KnnOrdering;

CoordinateStore RandomStore(std::size_t n, std::size_t rank, std::uint64_t seed) {
  CoordinateStore store(n, rank);
  common::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    store.RandomizeRow(i, rng);
  }
  return store;
}

std::vector<std::vector<std::size_t>> Adjacency(const PeerIndex& index) {
  std::vector<std::vector<std::size_t>> adjacency;
  adjacency.reserve(index.Size());
  for (const std::size_t id : index.Members()) {
    adjacency.push_back(index.NeighborsOf(id));
  }
  return adjacency;
}

TEST(PeerIndex, ExactModeIsBitIdenticalToTheOracle) {
  const CoordinateStore store = RandomStore(128, 8, 11);
  const PeerIndex index(store, PeerIndexOptions{});
  for (const KnnOrdering ordering :
       {KnnOrdering::kSmallestFirst, KnnOrdering::kLargestFirst}) {
    for (const std::size_t query : {0u, 17u, 127u}) {
      const auto exact = index.SearchFrom(query, 10, ordering, index.Size());
      const auto oracle = eval::BruteForceKnnAll(store, query, 10, ordering);
      EXPECT_EQ(exact.ids, oracle.ids);
      EXPECT_EQ(exact.scores, oracle.scores);
    }
  }
}

TEST(PeerIndex, SameSeedSameAdjacencyAndQueryResults) {
  const CoordinateStore store = RandomStore(300, 10, 21);
  PeerIndexOptions options;
  options.seed = 1234;
  const PeerIndex a(store, options);
  const PeerIndex b(store, options);
  EXPECT_EQ(Adjacency(a), Adjacency(b));
  for (const std::size_t query : {3u, 100u, 299u}) {
    const auto ra = a.SearchFrom(query, 10, KnnOrdering::kSmallestFirst);
    const auto rb = b.SearchFrom(query, 10, KnnOrdering::kSmallestFirst);
    EXPECT_EQ(ra.ids, rb.ids);
    EXPECT_EQ(ra.scores, rb.scores);
  }
  // Repeating a query on one index is also stable (const searches keep no
  // result-shaping state).
  const auto first = a.SearchFrom(42, 10, KnnOrdering::kLargestFirst);
  const auto again = a.SearchFrom(42, 10, KnnOrdering::kLargestFirst);
  EXPECT_EQ(first.ids, again.ids);
}

TEST(PeerIndex, GraphSearchRecallIsHighOnAStaticStore) {
  const CoordinateStore store = RandomStore(600, 10, 31);
  const PeerIndex index(store, PeerIndexOptions{});
  for (const KnnOrdering ordering :
       {KnnOrdering::kSmallestFirst, KnnOrdering::kLargestFirst}) {
    double recall_sum = 0.0;
    constexpr std::size_t kQueries = 50;
    for (std::size_t q = 0; q < kQueries; ++q) {
      const std::size_t query = q * 12;  // spread over the id range
      const auto approx = index.SearchFrom(query, 10, ordering);
      const auto oracle = eval::BruteForceKnnAll(store, query, 10, ordering);
      recall_sum += eval::RecallAtK(approx, oracle);
    }
    EXPECT_GE(recall_sum / kQueries, 0.9) << "static-store recall floor";
  }
}

TEST(PeerIndex, SubsetIndexSearchesOnlyItsMembers) {
  const CoordinateStore store = RandomStore(64, 6, 41);
  const std::vector<std::size_t> members{5, 9, 13, 21, 34, 55, 63};
  const PeerIndex index(store, members, PeerIndexOptions{});
  EXPECT_EQ(index.Size(), members.size());
  EXPECT_TRUE(index.Contains(21));
  EXPECT_FALSE(index.Contains(20));
  const auto result = index.SearchFrom(0, 3, KnnOrdering::kSmallestFirst);
  ASSERT_EQ(result.Size(), 3u);
  for (const std::size_t id : result.ids) {
    EXPECT_TRUE(index.Contains(id));
  }
  // Exact mode over the subset == the oracle over the member list.
  const auto exact =
      index.SearchFrom(0, 3, KnnOrdering::kSmallestFirst, members.size());
  const auto oracle =
      eval::BruteForceKnn(store, 0, members, 3, KnnOrdering::kSmallestFirst);
  EXPECT_EQ(exact.ids, oracle.ids);
  EXPECT_EQ(exact.scores, oracle.scores);
}

TEST(PeerIndex, SearchFromExcludesTheQueryEvenViaTheGraph) {
  const CoordinateStore store = RandomStore(400, 8, 51);
  const PeerIndex index(store, PeerIndexOptions{});
  for (const std::size_t query : {0u, 99u, 399u}) {
    const auto result = index.SearchFrom(query, 20, KnnOrdering::kSmallestFirst);
    for (const std::size_t id : result.ids) {
      EXPECT_NE(id, query);
    }
  }
}

TEST(PeerIndex, AddAndRemoveMaintainMembership) {
  const CoordinateStore store = RandomStore(80, 6, 61);
  std::vector<std::size_t> members;
  for (std::size_t id = 0; id < 40; ++id) {
    members.push_back(id);
  }
  PeerIndex index(store, members, PeerIndexOptions{});
  index.Add(77);
  EXPECT_TRUE(index.Contains(77));
  EXPECT_EQ(index.Size(), 41u);
  index.Remove(13);
  EXPECT_FALSE(index.Contains(13));
  EXPECT_EQ(index.Size(), 40u);
  // The removed member never comes back from a search; the added one can.
  const auto result =
      index.SearchFrom(13, index.Size(), KnnOrdering::kSmallestFirst,
                       index.Size());
  for (const std::size_t id : result.ids) {
    EXPECT_NE(id, 13u);
  }
  // No edge list may reference the departed member.
  for (const std::size_t id : index.Members()) {
    for (const std::size_t nb : index.NeighborsOf(id)) {
      EXPECT_NE(nb, 13u);
      EXPECT_TRUE(index.Contains(nb));
    }
  }
  EXPECT_THROW(index.Add(77), std::invalid_argument);
  EXPECT_THROW(index.Remove(13), std::invalid_argument);
}

TEST(PeerIndex, RebuildIsIdempotentAndMatchesConstruction) {
  const CoordinateStore store = RandomStore(250, 10, 71);
  PeerIndexOptions options;
  options.seed = 7;
  PeerIndex index(store, options);
  const auto constructed = Adjacency(index);
  index.RebuildAll();
  const auto rebuilt_once = Adjacency(index);
  index.RebuildAll();
  const auto rebuilt_twice = Adjacency(index);
  // Nothing drifted, so a rebuild reproduces the constructed graph and a
  // second rebuild reproduces the first.
  EXPECT_EQ(constructed, rebuilt_once);
  EXPECT_EQ(rebuilt_once, rebuilt_twice);
}

TEST(PeerIndex, UpdateWithoutDriftIsAnEpsilonSkip) {
  const CoordinateStore store = RandomStore(120, 8, 81);
  PeerIndex index(store, PeerIndexOptions{});
  const auto before = Adjacency(index);
  EXPECT_FALSE(index.Update(17));  // nothing moved
  EXPECT_EQ(Adjacency(index), before);
}

TEST(PeerIndex, ScoreEvaluationsCountExactScans) {
  const CoordinateStore store = RandomStore(100, 6, 91);
  const PeerIndex index(store, PeerIndexOptions{});
  const std::uint64_t before = index.ScoreEvaluations();
  (void)index.SearchFrom(0, 5, KnnOrdering::kSmallestFirst, index.Size());
  EXPECT_EQ(index.ScoreEvaluations() - before, index.Size());
  // A graph search touches strictly fewer members than the exact scan at
  // this size — that gap is the QPS win the bench records.
  const std::uint64_t graph_before = index.ScoreEvaluations();
  (void)index.SearchFrom(0, 5, KnnOrdering::kSmallestFirst, 20);
  EXPECT_LT(index.ScoreEvaluations() - graph_before, index.Size());
}

TEST(PeerIndex, RejectsBadOptionsAndMembers) {
  const CoordinateStore store = RandomStore(10, 4, 101);
  PeerIndexOptions bad;
  bad.degree = 0;
  EXPECT_THROW(PeerIndex(store, bad), std::invalid_argument);
  const std::vector<std::size_t> dup{1, 2, 1};
  EXPECT_THROW(PeerIndex(store, dup, PeerIndexOptions{}), std::invalid_argument);
  const std::vector<std::size_t> oob{1, 99};
  EXPECT_THROW(PeerIndex(store, oob, PeerIndexOptions{}), std::out_of_range);
  const PeerIndex index(store, PeerIndexOptions{});
  EXPECT_THROW((void)index.SearchFrom(0, 0, KnnOrdering::kSmallestFirst),
               std::invalid_argument);
}

TEST(PeerIndex, RejectsNanThresholds) {
  // A NaN threshold passes a plain `x < 0` check and then never triggers.
  const CoordinateStore store = RandomStore(10, 4, 103);
  PeerIndexOptions nan_epsilon;
  nan_epsilon.drift_epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(PeerIndex(store, nan_epsilon), std::invalid_argument);
  PeerIndexOptions nan_fraction;
  nan_fraction.rebuild_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(PeerIndex(store, nan_fraction), std::invalid_argument);
}

}  // namespace
}  // namespace dmfsgd::ann
