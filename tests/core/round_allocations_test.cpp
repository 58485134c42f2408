// RunRounds on the bare immediate stack allocates nothing once warm.
//
// The sequential round sweep (DESIGN.md §14) gathers a round's exchanges
// into a buffer reserved for one exchange per node and applies them on
// live store rows, so after the first round — which sizes that buffer and
// the target table — a round performs no heap allocation at all.  The
// message-driven round copies coordinate rows into every reply, which is
// what this test exists to keep out of RunRounds.  Allocations are counted
// by replacing the global operator new for this test binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/simulation.hpp"
#include "datasets/hps3.hpp"
#include "datasets/meridian.hpp"

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

namespace dmfsgd::core {
namespace {

/// Heap allocations made by `rounds` rounds of RunRounds after one warm-up
/// round, at 10% per-leg loss.
std::size_t AllocationsPerRounds(const datasets::Dataset& dataset,
                                 std::size_t rounds) {
  SimulationConfig config;
  config.rank = 10;
  config.neighbor_count = 10;
  config.tau = dataset.MedianValue();
  config.seed = 9;
  config.message_loss = 0.1;
  DmfsgdSimulation simulation(dataset, config);
  simulation.RunRounds(1);
  const std::size_t before = allocations.load();
  simulation.RunRounds(rounds);
  const std::size_t after = allocations.load();
  EXPECT_GT(simulation.DroppedLegs(), 0u);
  return after - before;
}

TEST(RoundAllocations, RttRoundsAllocateNothing) {
  datasets::MeridianConfig meridian;
  meridian.node_count = 120;
  EXPECT_EQ(AllocationsPerRounds(datasets::MakeMeridian(meridian), 10), 0u);
}

TEST(RoundAllocations, AbwRoundsAllocateNothing) {
  datasets::HpS3Config hps3;
  hps3.host_count = 120;
  EXPECT_EQ(AllocationsPerRounds(datasets::MakeHpS3(hps3), 10), 0u);
}

TEST(RoundAllocations, CounterSeesAllocations) {
  // The count is live, so the zeros above are not vacuous.  (A direct
  // operator new call, which the optimizer may not elide.)
  const std::size_t before = allocations.load();
  void* volatile block = ::operator new(64);
  EXPECT_EQ(allocations.load(), before + 1);
  ::operator delete(block);
}

}  // namespace
}  // namespace dmfsgd::core
