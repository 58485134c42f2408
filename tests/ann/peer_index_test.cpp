// PeerIndex structural properties (DESIGN.md §16): exact-mode oracle
// parity, determinism, subset membership, recall on a static store, and
// the out-edge invariant repairs rely on.  Drift/staleness behaviour lives
// in peer_index_drift_test.cpp.
#include "ann/peer_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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

TEST(PeerIndex, RebuildIsIdempotentAndMatchesConstruction) {
  const CoordinateStore store = RandomStore(250, 10, 71);
  PeerIndexOptions options;
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
  bad.ef_search = 0;
  EXPECT_THROW(PeerIndex(store, bad), std::invalid_argument);
  const std::vector<std::size_t> dup{1, 2, 1};
  EXPECT_THROW(PeerIndex(store, dup, PeerIndexOptions{}), std::invalid_argument);
  const std::vector<std::size_t> oob{1, 99};
  EXPECT_THROW(PeerIndex(store, oob, PeerIndexOptions{}), std::out_of_range);
  const PeerIndex index(store, PeerIndexOptions{});
  EXPECT_THROW((void)index.SearchFrom(0, 0, KnnOrdering::kSmallestFirst),
               std::invalid_argument);
}

void ExpectEveryMemberHasAnOutEdge(const PeerIndex& index, const char* step) {
  for (const std::size_t id : index.Members()) {
    EXPECT_FALSE(index.NeighborsOf(id).empty()) << step << ": member " << id;
  }
}

// A repair walks from the member's own out-edges, so every member of an
// index with two or more members must keep at least one through
// construction, repairs after small drift and after jumps, and rebuilds;
// an edgeless member exists only in a one-member index, where a repair
// finds nothing and leaves it edgeless.
TEST(PeerIndex, EveryMemberKeepsAnOutEdge) {
  for (const std::size_t n : {2u, 3u, 300u}) {
    for (const std::size_t cells : {0u, 8u}) {
      SCOPED_TRACE(testing::Message() << "n = " << n << ", cells = " << cells);
      CoordinateStore store = RandomStore(n, 8, 131 + n);
      PeerIndexOptions options;
      options.ivf_cells = cells;
      PeerIndex index(store, options);
      ExpectEveryMemberHasAnOutEdge(index, "construction");

      common::Rng rng(137 + n + cells);
      std::vector<core::NodeId> dirty;
      for (std::size_t i = 0; i < std::max<std::size_t>(1, n / 10); ++i) {
        dirty.push_back(static_cast<core::NodeId>(i));
      }
      for (const core::NodeId id : dirty) {
        for (double& value : store.V(id)) {
          value += rng.Uniform(-0.01, 0.01);
        }
      }
      (void)index.ApplyUpdates(dirty);
      ExpectEveryMemberHasAnOutEdge(index, "small drift");
      for (const core::NodeId id : dirty) {
        store.RandomizeRow(id, rng);
      }
      (void)index.ApplyUpdates(dirty);
      ExpectEveryMemberHasAnOutEdge(index, "re-randomized rows");
      index.RebuildAll();
      ExpectEveryMemberHasAnOutEdge(index, "rebuild");
    }
  }

  CoordinateStore store = RandomStore(16, 8, 139);
  PeerIndex single(store, std::vector<std::size_t>{5}, PeerIndexOptions{});
  EXPECT_TRUE(single.NeighborsOf(5).empty());
  for (double& value : store.V(5)) {
    value += 0.5;
  }
  const std::vector<core::NodeId> dirty{5};
  EXPECT_NO_THROW((void)single.ApplyUpdates(dirty));
  EXPECT_TRUE(single.NeighborsOf(5).empty());
  for (double& value : store.V(5)) {
    value -= 0.25;
  }
  EXPECT_TRUE(single.Update(5));  // the repair itself, on the edgeless member
  EXPECT_TRUE(single.NeighborsOf(5).empty());
}

}  // namespace
}  // namespace dmfsgd::ann
