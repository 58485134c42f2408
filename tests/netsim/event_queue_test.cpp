#include "netsim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"

namespace dmfsgd::netsim {
namespace {

// ------------------------------------------------------------------------
// ShardedEventQueue

// The queue's basic contract, checked with one shard and with several (the
// sequential drain must not depend on the shard count).
constexpr std::size_t kShardCounts[] = {1, 3};

TEST(ShardedEventQueue, StartsAtTimeZeroEmpty) {
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE(shards);
    ShardedEventQueue queue(3, shards);
    EXPECT_DOUBLE_EQ(queue.Now(), 0.0);
    EXPECT_EQ(queue.Pending(), 0u);
    EXPECT_EQ(queue.Executed(), 0u);
    EXPECT_FALSE(queue.RunOne());
  }
}

TEST(ShardedEventQueue, SameOwnerTiesAreFifo) {
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE(shards);
    ShardedEventQueue queue(3, shards);
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
      queue.Schedule(2, 1.0, [&order, i] { order.push_back(i); });
    }
    queue.RunUntil(1.0);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  }
}

TEST(ShardedEventQueue, RunUntilStopsAtDeadline) {
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE(shards);
    ShardedEventQueue queue(3, shards);
    int fired = 0;
    queue.Schedule(0, 1.0, [&] { ++fired; });
    queue.Schedule(2, 5.0, [&] { ++fired; });
    EXPECT_EQ(queue.RunUntil(2.0), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(queue.Pending(), 1u);
    EXPECT_DOUBLE_EQ(queue.Now(), 2.0);
    queue.RunUntil(5.0);
    EXPECT_EQ(fired, 2);
  }
}

TEST(ShardedEventQueue, CallbacksCanScheduleMoreEvents) {
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE(shards);
    ShardedEventQueue queue(3, shards);
    int chain = 0;
    // Each link hops to the next owner, so with three shards it also hops
    // shards.
    std::function<void()> self_schedule = [&] {
      ++chain;
      if (chain < 5) {
        queue.Schedule(static_cast<ShardedEventQueue::OwnerId>(chain % 3), 1.0,
                       self_schedule);
      }
    };
    queue.Schedule(0, 1.0, self_schedule);
    queue.RunUntil(100.0);
    EXPECT_EQ(chain, 5);
    EXPECT_DOUBLE_EQ(queue.Now(), 100.0);
    EXPECT_EQ(queue.Executed(), 5u);
  }
}

TEST(ShardedEventQueue, NowInsideACallbackIsTheEventTime) {
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE(shards);
    ShardedEventQueue queue(3, shards);
    double observed = -1.0;
    queue.Schedule(1, 2.5, [&] { observed = queue.Now(); });
    queue.RunUntil(3.0);
    EXPECT_DOUBLE_EQ(observed, 2.5);
  }
}

TEST(ShardedEventQueue, RelativeDelaysCompose) {
  // An event scheduled from within a callback is relative to the callback's
  // firing time, not the original schedule time.
  for (const std::size_t shards : kShardCounts) {
    SCOPED_TRACE(shards);
    ShardedEventQueue queue(3, shards);
    double second_fire = 0.0;
    queue.Schedule(0, 2.0, [&] {
      queue.Schedule(2, 3.0, [&] { second_fire = queue.Now(); });
    });
    queue.RunUntil(10.0);
    EXPECT_DOUBLE_EQ(second_fire, 5.0);
  }
}

TEST(ShardedEventQueue, ValidatesConstructionAndArguments) {
  EXPECT_THROW(ShardedEventQueue(0, 1), std::invalid_argument);
  ShardedEventQueue queue(4, 2);
  EXPECT_EQ(queue.ShardCount(), 2u);
  EXPECT_THROW(queue.Schedule(0, -1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.Schedule(0, 1.0, ShardedEventQueue::Callback{}),
               std::invalid_argument);
  EXPECT_THROW(queue.Schedule(4, 1.0, [] {}), std::out_of_range);
  // Shard count clamps to the owner count: no empty shards by construction.
  EXPECT_EQ(ShardedEventQueue(3, 16).ShardCount(), 3u);
}

TEST(ShardedEventQueue, OwnersMapToContiguousNondecreasingShards) {
  const ShardedEventQueue queue(10, 3);
  std::size_t previous = 0;
  std::vector<std::size_t> counts(queue.ShardCount(), 0);
  for (ShardedEventQueue::OwnerId owner = 0; owner < 10; ++owner) {
    const std::size_t shard = queue.ShardOf(owner);
    ASSERT_LT(shard, queue.ShardCount());
    EXPECT_GE(shard, previous) << "shards must be contiguous owner blocks";
    previous = shard;
    ++counts[shard];
  }
  // Balanced split: 10 owners over 3 shards = {4, 3, 3}.
  EXPECT_EQ(counts, (std::vector<std::size_t>{4, 3, 3}));
}

TEST(ShardedEventQueue, SequentialDrainMergesShardsInGlobalTimeOrder) {
  // Owners in different shards, interleaved fire times: the merge must
  // reproduce the exact single-queue order, FIFO on ties.
  ShardedEventQueue queue(4, 4);
  std::vector<int> order;
  queue.Schedule(3, 3.0, [&] { order.push_back(30); });
  queue.Schedule(0, 1.0, [&] { order.push_back(10); });
  queue.Schedule(2, 2.0, [&] { order.push_back(20); });
  queue.Schedule(1, 1.0, [&] { order.push_back(11); });  // tie with owner 0
  queue.Schedule(0, 2.0, [&] { order.push_back(21); });  // tie with owner 2
  EXPECT_EQ(queue.Pending(), 5u);
  queue.RunUntil(10.0);
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21, 30}));
  EXPECT_EQ(queue.Executed(), 5u);
  EXPECT_DOUBLE_EQ(queue.Now(), 10.0);
}

TEST(ShardedEventQueue, SequentialDrainFiresInTimeThenScheduleOrder) {
  // The global ordering rule: events fire in the order of their schedule
  // indices stable-sorted by time, whatever shard each owner lands in.
  const double times[] = {0.5, 0.25, 0.5, 1.0, 0.25, 0.75, 0.5, 0.125};
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](int a, int b) { return times[a] < times[b]; });
  ShardedEventQueue sharded(8, 3);
  std::vector<int> order;
  for (int e = 0; e < 8; ++e) {
    sharded.Schedule(static_cast<ShardedEventQueue::OwnerId>(e), times[e],
                     [&order, e] { order.push_back(e); });
  }
  sharded.RunUntil(2.0);
  EXPECT_EQ(order, expected);
}

TEST(ShardedEventQueue, RunOneExecutesTheGlobalMinimum) {
  ShardedEventQueue queue(2, 2);
  int fired = 0;
  queue.Schedule(1, 2.0, [&] { fired = 2; });
  queue.Schedule(0, 1.0, [&] { fired = 1; });
  EXPECT_TRUE(queue.RunOne());
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(queue.Now(), 1.0);
  EXPECT_EQ(queue.PendingInShard(0), 0u);
  EXPECT_EQ(queue.PendingInShard(1), 1u);
}

TEST(ShardedEventQueue, ParallelDrainPreservesPerOwnerOrder) {
  // Handlers only touch owner-local state (the per-owner log), the contract
  // of the parallel drain; per-owner sequences must come out in time order
  // regardless of pool size.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ShardedEventQueue queue(6, 3);
    common::ThreadPool pool(threads);
    std::map<ShardedEventQueue::OwnerId, std::vector<int>> logs;
    for (ShardedEventQueue::OwnerId owner = 0; owner < 6; ++owner) {
      logs[owner] = {};  // pre-insert: handlers only touch their mapped value
      for (int e = 0; e < 5; ++e) {
        const double t = 0.1 * (owner + 1) + 0.3 * e;
        queue.Schedule(owner, t,
                       [&logs, owner, e] { logs.at(owner).push_back(e); });
      }
    }
    EXPECT_EQ(queue.RunUntilParallel(10.0, pool, 0.05), 30u);
    EXPECT_EQ(queue.Executed(), 30u);
    EXPECT_EQ(queue.Pending(), 0u);
    EXPECT_DOUBLE_EQ(queue.Now(), 10.0);
    for (const auto& [owner, log] : logs) {
      EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4}));
    }
  }
}

TEST(ShardedEventQueue, ParallelDrainAllowsCrossShardSchedulesPastLookahead) {
  ShardedEventQueue queue(4, 4);
  common::ThreadPool pool(2);
  std::vector<int> hops;
  // A chain that hops shards with delay >= lookahead each time.
  std::function<void(ShardedEventQueue::OwnerId, int)> hop =
      [&](ShardedEventQueue::OwnerId owner, int depth) {
        hops.push_back(depth);
        if (depth < 6) {
          queue.Schedule((owner + 1) % 4, 1.0, [&hop, owner, depth] {
            hop((owner + 1) % 4, depth + 1);
          });
        }
      };
  queue.Schedule(0, 0.5, [&] { hop(0, 0); });
  queue.RunUntilParallel(20.0, pool, 1.0);
  EXPECT_EQ(hops, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(ShardedEventQueue, ParallelDrainRejectsLookaheadViolations) {
  ShardedEventQueue queue(4, 4);
  common::ThreadPool pool(2);
  // Owner 0 schedules onto owner 3's shard sooner than the lookahead —
  // causality across shards can no longer be guaranteed, so it must throw.
  queue.Schedule(0, 1.0, [&] { queue.Schedule(3, 0.01, [] {}); });
  EXPECT_THROW(queue.RunUntilParallel(10.0, pool, 0.5), std::logic_error);
}

TEST(ShardedEventQueue, ParallelDrainStopsAtDeadlineLikeSequential) {
  ShardedEventQueue queue(2, 2);
  common::ThreadPool pool(2);
  int fired = 0;
  queue.Schedule(0, 1.0, [&] { ++fired; });
  queue.Schedule(1, 5.0, [&] { ++fired; });
  EXPECT_EQ(queue.RunUntilParallel(2.0, pool, 0.25), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.Pending(), 1u);
  EXPECT_DOUBLE_EQ(queue.Now(), 2.0);
  queue.RunUntilParallel(5.0, pool, 0.25);
  EXPECT_EQ(fired, 2);
}

TEST(ShardedEventQueue, ParallelAndSequentialDrainsExecuteTheSameEvents) {
  // With owner-local handlers the two drain modes must produce identical
  // per-owner event sequences (global interleaving is free to differ).
  auto build = [](ShardedEventQueue& queue,
                  std::map<ShardedEventQueue::OwnerId, std::vector<int>>& logs) {
    for (ShardedEventQueue::OwnerId owner = 0; owner < 8; ++owner) {
      logs[owner] = {};
      for (int e = 0; e < 4; ++e) {
        const double t = 0.05 + 0.2 * e + 0.01 * owner;
        queue.Schedule(owner, t,
                       [&logs, owner, e] { logs.at(owner).push_back(e); });
      }
    }
  };
  ShardedEventQueue sequential(8, 4);
  ShardedEventQueue parallel(8, 4);
  std::map<ShardedEventQueue::OwnerId, std::vector<int>> seq_logs;
  std::map<ShardedEventQueue::OwnerId, std::vector<int>> par_logs;
  build(sequential, seq_logs);
  build(parallel, par_logs);
  sequential.RunUntil(5.0);
  common::ThreadPool pool(3);
  parallel.RunUntilParallel(5.0, pool, 0.02);
  EXPECT_EQ(par_logs, seq_logs);
  EXPECT_EQ(parallel.Executed(), sequential.Executed());
}

// ------------------------------------------------------------------------
// Per-shard-pair lookaheads (DESIGN.md §12)

TEST(LookaheadMatrix, ValidatesItsEntries) {
  EXPECT_THROW(LookaheadMatrix(0, 1.0), std::invalid_argument);
  EXPECT_THROW(LookaheadMatrix(2, 0.0), std::invalid_argument);
  EXPECT_THROW(LookaheadMatrix(2, -1.0), std::invalid_argument);
  LookaheadMatrix matrix(2, 0.5);
  EXPECT_DOUBLE_EQ(matrix.At(0, 1), 0.5);
  matrix.Set(0, 1, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(matrix.At(0, 1)));
  EXPECT_THROW(matrix.Set(1, 0, 0.0), std::invalid_argument);
  EXPECT_THROW((void)matrix.At(2, 0), std::out_of_range);
}

TEST(ShardedEventQueue, ConservativeWindowEndsUsePerPairLookaheads) {
  LookaheadMatrix matrix(3, 1.0);
  matrix.Set(0, 1, 10.0);
  matrix.Set(1, 0, 4.0);
  const std::vector<double> mins = {2.0, 5.0,
                                    std::numeric_limits<double>::infinity()};
  const auto ends = ShardedEventQueue::ConservativeWindowEnds(mins, matrix);
  // end(0) = min(m1 + L(1,0), -) = 5 + 4; shard 2 is empty and contributes
  // nothing.  end(1) = m0 + L(0,1) = 2 + 10.  end(2) = min(2 + 1, 5 + 1).
  EXPECT_DOUBLE_EQ(ends[0], 9.0);
  EXPECT_DOUBLE_EQ(ends[1], 12.0);
  EXPECT_DOUBLE_EQ(ends[2], 3.0);
  // A lone non-empty shard has no one to fear: its horizon is unbounded.
  const std::vector<double> lone = {2.0, std::numeric_limits<double>::infinity(),
                                    std::numeric_limits<double>::infinity()};
  EXPECT_TRUE(std::isinf(ShardedEventQueue::ConservativeWindowEnds(lone, matrix)[0]));
}

namespace {

/// Two shard blocks with fast intra-block chains and slow (delay 8.0)
/// cross-block pings — the heterogeneous delay shape where per-pair
/// lookaheads beat the global minimum.  A struct so the recursive ping
/// handler outlives the drain that fires it.
struct HeterogeneousSchedule {
  explicit HeterogeneousSchedule(ShardedEventQueue& queue) : queue(&queue) {
    for (ShardedEventQueue::OwnerId owner = 0; owner < 4; ++owner) {
      logs[owner] = {};
      for (int e = 0; e < 12; ++e) {
        queue.Schedule(owner, 0.1 + 0.4 * e + 0.02 * owner,
                       [this, owner, e] { logs.at(owner).push_back(e); });
      }
    }
    // Cross-block ping chain, delay 8.0 each hop (owners 0-1 = shard 0,
    // owners 2-3 = shard 1).
    queue.Schedule(0, 0.2, [this] { Ping(0, 0); });
  }

  void Ping(ShardedEventQueue::OwnerId owner, int depth) {
    logs.at(owner).push_back(100 + depth);
    if (depth < 3) {
      const ShardedEventQueue::OwnerId peer = owner < 2 ? 3 : 0;
      queue->Schedule(peer, 8.0, [this, peer, depth] { Ping(peer, depth + 1); });
    }
  }

  ShardedEventQueue* queue;
  std::map<ShardedEventQueue::OwnerId, std::vector<int>> logs;
};

}  // namespace

TEST(ShardedEventQueue, PairLookaheadsWidenWindowsAndPreserveResults) {
  // Same schedule drained three ways: sequential merge, uniform global-min
  // lookahead, per-pair matrix.  Per-owner sequences must agree everywhere;
  // the per-pair drain must need *fewer* windows (wider horizons).
  common::ThreadPool pool(2);

  ShardedEventQueue sequential(4, 2);
  HeterogeneousSchedule seq_schedule(sequential);
  sequential.RunUntil(40.0);

  // The uniform drain may only assume the global minimum cross-shard delay.
  ShardedEventQueue uniform(4, 2);
  HeterogeneousSchedule uniform_schedule(uniform);
  uniform.RunUntilParallel(40.0, pool, 0.5);

  LookaheadMatrix matrix(2, 8.0);  // the true per-pair minimum
  ShardedEventQueue pairwise(4, 2);
  HeterogeneousSchedule pair_schedule(pairwise);
  pairwise.RunUntilParallel(40.0, pool, matrix);

  EXPECT_EQ(uniform_schedule.logs, seq_schedule.logs);
  EXPECT_EQ(pair_schedule.logs, seq_schedule.logs);
  EXPECT_EQ(pairwise.Executed(), sequential.Executed());
  EXPECT_LT(pairwise.WindowsExecuted(), uniform.WindowsExecuted());
}

TEST(ShardedEventQueue, PairLookaheadViolationStillThrows) {
  LookaheadMatrix matrix(2, 1.0);
  matrix.Set(0, 1, 5.0);  // promise: shard 0 never reaches shard 1 sooner
  ShardedEventQueue queue(4, 2);
  common::ThreadPool pool(2);
  queue.Schedule(0, 1.0, [&] { queue.Schedule(3, 2.0, [] {}); });
  queue.Schedule(2, 1.0, [] {});  // keeps shard 1's horizon finite
  EXPECT_THROW(queue.RunUntilParallel(10.0, pool, matrix), std::logic_error);
}

TEST(ShardedEventQueue, OwnersOfShardInvertsShardOf) {
  const ShardedEventQueue queue(11, 4);
  for (std::size_t s = 0; s < queue.ShardCount(); ++s) {
    const auto [begin, end] = queue.OwnersOfShard(s);
    ASSERT_LT(begin, end);
    for (ShardedEventQueue::OwnerId owner = begin; owner < end; ++owner) {
      EXPECT_EQ(queue.ShardOf(owner), s);
    }
  }
  EXPECT_EQ(queue.OwnersOfShard(0).first, 0u);
  EXPECT_EQ(queue.OwnersOfShard(queue.ShardCount() - 1).second, 11u);
  EXPECT_THROW((void)queue.OwnersOfShard(4), std::out_of_range);
}

// ------------------------------------------------------------------------
// NaN times: NaN compares false against everything, so an unchecked NaN key
// breaks the heap's strict weak ordering and an unchecked NaN horizon never
// stops a drain.

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(ShardedEventQueue, ScheduleRejectsNaNDelay) {
  ShardedEventQueue queue(4, 2);
  EXPECT_THROW(queue.Schedule(0, kNaN, [] {}), std::invalid_argument);
  EXPECT_EQ(queue.Pending(), 0u);
}

TEST(ShardedEventQueue, ScheduleRemoteRejectsNaNDelay) {
  ShardedEventQueue queue(4, 2);
  queue.SetOwnedShardRange(0, 1);  // owners 2-3 live in a peer process
  common::ThreadPool pool(1);
  bool rejected = false;
  queue.Schedule(0, 0.0, [&] {
    try {
      queue.ScheduleRemote(2, kNaN, std::vector<std::byte>{std::byte{1}});
    } catch (const std::invalid_argument&) {
      rejected = true;
    }
  });
  queue.BeginWindow({1.0, 1.0});
  queue.DrainOwnedShards(pool, 1.0);
  queue.FinishWindow();
  EXPECT_TRUE(rejected);
  EXPECT_TRUE(queue.TakeRemoteEvents().empty());
}

TEST(ShardedEventQueue, InjectRemoteRejectsNonFiniteTime) {
  ShardedEventQueue queue(4, 2);
  queue.SetOwnedShardRange(0, 1);
  for (const double time : {kNaN, std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(queue.InjectRemote(0, time, 1, 0, [] {}),
                 std::invalid_argument);
  }
  EXPECT_EQ(queue.Pending(), 0u);
}

TEST(ShardedEventQueue, RunUntilRejectsNaNHorizon) {
  ShardedEventQueue queue(4, 2);
  int fired = 0;
  queue.Schedule(0, 1.0, [&] { ++fired; });
  EXPECT_THROW(queue.RunUntil(kNaN), std::invalid_argument);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(queue.Now(), 0.0);
}

TEST(ShardedEventQueue, RunUntilParallelRejectsNaNHorizon) {
  ShardedEventQueue queue(4, 2);
  common::ThreadPool pool(2);
  queue.Schedule(0, 1.0, [] {});
  EXPECT_THROW(queue.RunUntilParallel(kNaN, pool, 0.5), std::invalid_argument);
  EXPECT_THROW(queue.RunUntilParallel(kNaN, pool, LookaheadMatrix(2, 0.5)),
               std::invalid_argument);
  EXPECT_DOUBLE_EQ(queue.Now(), 0.0);
  EXPECT_EQ(queue.Pending(), 1u);
}

}  // namespace
}  // namespace dmfsgd::netsim
