// The IVF coarse quantizer over the graph index (DESIGN.md §18): exact-mode
// bitwise parity with the brute-force oracle, recall through coarse routing
// at n = 8192, determinism of the centroid/medoid build, and rebuild
// behaviour on the drift escalation path.
#include "ann/peer_index.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

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

TEST(PeerIndexIvf, NprobeCoveringEveryCellIsBitIdenticalToTheOracle) {
  const CoordinateStore store = RandomStore(8192, 8, 57);
  PeerIndexOptions options;
  options.ivf_cells = 64;
  options.ivf_nprobe = 64;  // probes every cell: the exact mode
  const PeerIndex index(store, options);
  ASSERT_EQ(index.CellCount(), 64u);
  for (const KnnOrdering ordering :
       {KnnOrdering::kSmallestFirst, KnnOrdering::kLargestFirst}) {
    for (const std::size_t query : {0u, 511u, 4096u, 8191u}) {
      const auto exact = index.SearchFrom(query, 10, ordering);
      const auto oracle = eval::BruteForceKnnAll(store, query, 10, ordering);
      ASSERT_EQ(exact.ids, oracle.ids) << "query " << query;
      ASSERT_EQ(exact.scores, oracle.scores) << "query " << query;
    }
  }
}

TEST(PeerIndexIvf, WideEfIsExactWithTheCoarseLayerOn) {
  const CoordinateStore store = RandomStore(1024, 8, 67);
  PeerIndexOptions options;
  options.ivf_cells = 16;
  options.ivf_nprobe = 4;
  const PeerIndex index(store, options);
  for (const std::size_t query : {3u, 700u}) {
    const auto exact =
        index.SearchFrom(query, 10, KnnOrdering::kSmallestFirst, index.Size());
    const auto oracle =
        eval::BruteForceKnnAll(store, query, 10, KnnOrdering::kSmallestFirst);
    ASSERT_EQ(exact.ids, oracle.ids);
    ASSERT_EQ(exact.scores, oracle.scores);
  }
}

TEST(PeerIndexIvf, CoarseRoutedRecallHoldsAtEightThousandNodes) {
  const CoordinateStore store = RandomStore(8192, 10, 77);
  PeerIndexOptions options;
  options.ivf_cells = 64;
  options.ivf_nprobe = 8;
  options.ef_search = 192;
  const PeerIndex index(store, options);
  ASSERT_EQ(index.CellCount(), 64u);
  for (const KnnOrdering ordering :
       {KnnOrdering::kSmallestFirst, KnnOrdering::kLargestFirst}) {
    double recall_sum = 0.0;
    constexpr std::size_t kQueries = 64;
    for (std::size_t q = 0; q < kQueries; ++q) {
      const std::size_t query = q * 128;  // spread over the id range
      const auto approx = index.SearchFrom(query, 10, ordering);
      const auto oracle = eval::BruteForceKnnAll(store, query, 10, ordering);
      recall_sum += eval::RecallAtK(approx, oracle);
    }
    EXPECT_GE(recall_sum / kQueries, 0.9) << "IVF-routed recall floor";
  }
}

TEST(PeerIndexIvf, CoarseBuildIsDeterministicAndRngFree) {
  const CoordinateStore store = RandomStore(2048, 8, 87);
  PeerIndexOptions flat;
  PeerIndexOptions ivf = flat;
  ivf.ivf_cells = 32;
  const PeerIndex a(store, ivf);
  const PeerIndex b(store, ivf);
  EXPECT_EQ(a.CellEntries(), b.CellEntries());
  EXPECT_EQ(Adjacency(a), Adjacency(b));

  // The coarse build draws nothing from the link pass's Rng, so switching
  // it on must not shift the adjacency relative to a flat index.
  const PeerIndex plain(store, flat);
  EXPECT_EQ(Adjacency(a), Adjacency(plain));

  for (const std::size_t query : {9u, 1024u, 2047u}) {
    const auto ra = a.SearchFrom(query, 10, KnnOrdering::kSmallestFirst);
    const auto rb = b.SearchFrom(query, 10, KnnOrdering::kSmallestFirst);
    ASSERT_EQ(ra.ids, rb.ids);
    ASSERT_EQ(ra.scores, rb.scores);
  }
}

TEST(PeerIndexIvf, RebuildAllRefreshesTheCoarseLayerIdempotently) {
  const CoordinateStore store = RandomStore(1024, 8, 97);
  PeerIndexOptions options;
  options.ivf_cells = 16;
  PeerIndex index(store, options);
  const auto entries_before = index.CellEntries();
  const auto adjacency_before = Adjacency(index);
  index.RebuildAll();
  // Nothing drifted, so the rebuilt coarse layer and adjacency reproduce
  // the constructed ones exactly.
  EXPECT_EQ(index.CellEntries(), entries_before);
  EXPECT_EQ(Adjacency(index), adjacency_before);
}

TEST(PeerIndexIvf, RejectsDegenerateIvfOptions) {
  const CoordinateStore store = RandomStore(32, 4, 117);
  PeerIndexOptions no_probe;
  no_probe.ivf_cells = 4;
  no_probe.ivf_nprobe = 0;
  EXPECT_THROW(PeerIndex(store, no_probe), std::invalid_argument);
}

}  // namespace
}  // namespace dmfsgd::ann
