// Warm index maintenance allocates nothing (DESIGN.md §18).
//
// Every buffer a link, a repair or a search needs lives in a leased
// SearchScratch that keeps its capacity between uses, so once the first
// batch has sized them, a serve-shaped relink batch performs no heap
// allocation and a flat search allocates only the two vectors of the result
// it returns.  Allocations are counted by replacing the global operator new
// for this test binary.
#include "ann/peer_index.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "core/simulation.hpp"
#include "datasets/procedural.hpp"

namespace {

std::atomic<std::size_t> allocations{0};

void* CountedAllocate(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAllocate(size); }
void* operator new[](std::size_t size) { return CountedAllocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dmfsgd::ann {
namespace {

constexpr std::size_t kNodes = 4096;
constexpr std::size_t kBatch = 256;

class PeerIndexAllocations : public ::testing::Test {
 protected:
  void SetUp() override {
    datasets::EuclideanRttConfig rtt;
    rtt.node_count = kNodes;
    rtt.seed = 2011;
    dataset_ = datasets::MakeEuclideanRtt(rtt);
    core::SimulationConfig config;
    config.rank = 10;
    config.neighbor_count = 10;
    config.tau = datasets::SampledMedianValue(dataset_);
    config.seed = 17;
    simulation_.emplace(dataset_, config);
    simulation_->RunRounds(2);
    simulation_->EnableDriftTracking();
    index_.emplace(simulation_->engine().store(), PeerIndexOptions{});
  }

  /// One serve-shaped batch: kBatch probes from spread-out nodes, then the
  /// dirty set drained into the index.  Returns the allocations the drain
  /// made.
  std::size_t RelinkBatch(std::size_t batch) {
    for (std::size_t t = 0; t < kBatch; ++t) {
      (void)simulation_->IngestProbe(
          static_cast<core::NodeId>((batch * kBatch + t) * 37 % kNodes));
    }
    const std::vector<core::NodeId> dirty = simulation_->TakeDirtyNodes();
    const std::size_t before = allocations.load();
    const PeerIndex::UpdateStats stats = index_->ApplyUpdates(dirty);
    const std::size_t made = allocations.load() - before;
    EXPECT_FALSE(stats.rebuilt);
    EXPECT_GT(stats.relinked, 0u);
    return made;
  }

  datasets::Dataset dataset_;
  std::optional<core::DmfsgdSimulation> simulation_;
  std::optional<PeerIndex> index_;
};

TEST_F(PeerIndexAllocations, WarmRelinkBatchesAllocateNothing) {
  (void)RelinkBatch(0);  // sizes the leased scratch
  EXPECT_EQ(RelinkBatch(1), 0u);
  EXPECT_EQ(RelinkBatch(2), 0u);
}

TEST_F(PeerIndexAllocations, WarmSearchAllocatesOnlyItsResult) {
  (void)RelinkBatch(0);
  (void)index_->SearchFrom(0, 10, eval::KnnOrdering::kSmallestFirst);
  constexpr std::size_t kSearches = 100;
  std::size_t returned = 0;
  const std::size_t before = allocations.load();
  for (std::size_t q = 0; q < kSearches; ++q) {
    returned += index_
                    ->SearchFrom(q * 41 % kNodes, 10,
                                 eval::KnnOrdering::kSmallestFirst)
                    .ids.size();
  }
  const std::size_t made = allocations.load() - before;
  EXPECT_EQ(returned, 10 * kSearches);
  // The result's ids and scores vectors, nothing else.
  EXPECT_EQ(made, 2 * kSearches);
}

TEST(PeerIndexAllocationCounter, SeesAllocations) {
  // The count is live, so the zeros above are not vacuous.
  const std::size_t before = allocations.load();
  void* volatile block = ::operator new(64);
  EXPECT_EQ(allocations.load(), before + 1);
  ::operator delete(block);
}

}  // namespace
}  // namespace dmfsgd::ann
