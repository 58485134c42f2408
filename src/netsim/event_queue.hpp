// Discrete-event simulation engine.
//
// The round-based driver in core/simulation.hpp executes probes as atomic
// exchanges; this engine supports the *asynchronous* deployment model of a
// real network (core/async_simulation.hpp): messages take one-way delays to
// travel, so the coordinates a node learns from are snapshots that may be
// stale by the time they arrive — exactly the regime SGD must tolerate in
// practice.
//
// Events fire in (time, insertion order) — ties are FIFO, which keeps runs
// fully deterministic for a given schedule.
//
// ShardedEventQueue partitions the pending events by *owner node* into
// sub-queues, with a deterministic cross-shard merge, a conservative-
// lookahead parallel drain (DESIGN.md §9) whose windows are bounded per shard
// pair (LookaheadMatrix), and a window-level API that lets a multi-process
// shard runtime drive the same drain over an inter-shard channel
// (DESIGN.md §12).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"

namespace dmfsgd::netsim {

/// The one contiguous block-split rule (common/thread_pool.hpp), re-exported
/// where the shard partitions live.
using common::BlockRange;

/// Per-shard-pair conservative lookaheads for the parallel drain
/// (DESIGN.md §12): cell (from, to) is a lower bound on the delay of any
/// cross-shard schedule issued by an owner in `from`'s block onto an owner in
/// `to`'s block.  +infinity means "no event ever crosses this pair" and is a
/// legal (maximally wide) bound; the diagonal is ignored — a shard's own
/// events execute in key order regardless.  The global-minimum lookahead of
/// DESIGN.md §9 is the uniform special case.
class LookaheadMatrix {
 public:
  LookaheadMatrix() = default;

  /// `shard_count` x `shard_count` cells, all `uniform_s`.  Requires
  /// shard_count >= 1 and uniform_s > 0 (+infinity allowed).
  LookaheadMatrix(std::size_t shard_count, double uniform_s);

  [[nodiscard]] std::size_t ShardCount() const noexcept { return shard_count_; }

  /// Requires from, to < ShardCount() (each checked — an out-of-range `to`
  /// must not alias a valid flat index).
  [[nodiscard]] double At(std::size_t from, std::size_t to) const {
    RequireCell(from, to);
    return cells_[from * shard_count_ + to];
  }

  /// Requires from, to < ShardCount() and lookahead_s > 0 (+inf allowed).
  void Set(std::size_t from, std::size_t to, double lookahead_s);

 private:
  void RequireCell(std::size_t from, std::size_t to) const {
    if (from >= shard_count_ || to >= shard_count_) {
      throw std::out_of_range("LookaheadMatrix: shard index out of range");
    }
  }

  std::size_t shard_count_ = 0;
  std::vector<double> cells_;
};

/// A discrete-event queue partitioned by *owner node* into shard sub-queues.
///
/// Every event belongs to an owner (the node whose handler it runs — a
/// message's destination, a timer's node); owners map to shards in contiguous
/// blocks.  Two drain modes share one ordering rule:
///
///  * `RunUntil` — sequential k-way merge across shards.  Global order is
///    (time, lane, lane sequence); events scheduled outside a parallel drain
///    all share the "driver" lane with one monotonic counter, so ties are
///    globally FIFO — with any shard count, a sequential drain fires events
///    in (time, schedule order), the order of one global heap.
///  * `RunUntilParallel` — conservative-lookahead windows (DESIGN.md §9).
///    Each window executes, on every shard s, the events due before s's
///    per-window horizon: with m[s'] the earliest pending event of shard s'
///    at window start, end(s) = min over s' != s of m[s'] + lookahead(s', s).
///    Any event a shard s' executes this window has time >= m[s'], so any
///    cross-shard event it emits toward s arrives at or after end(s) — the
///    per-pair generalization of the global-minimum window, and strictly
///    wider on heterogeneous delay spaces.  Shards drain concurrently (one
///    deterministic fork-join per window); cross-shard events scheduled
///    inside a window are buffered in per-source-shard outboxes and merged
///    after the join.  The caller guarantees the lookaheads: a handler may
///    schedule onto another shard only at a delay >= the pair's configured
///    lookahead (violations throw std::logic_error).  Within a shard, events
///    still fire in (time, lane, sequence) order, so per-owner event order —
///    the order that determines simulation results when handlers touch only
///    owner-local state — is preserved.  For a fixed shard count the drain
///    is bit-identical for every pool size, including 1.
///
/// ## Multi-process drains (DESIGN.md §12)
///
/// The same windowed drain can span processes: each process owns a
/// contiguous shard range (`SetOwnedShardRange`) and drives the window-level
/// API directly (ShardMinTimes / BeginWindow / DrainOwnedShards /
/// FinishWindow / AdvanceNow) under a netsim::ShardRuntime that agrees on
/// window horizons over an InterShardChannel.  Cross-shard events whose
/// destination shard is *not* locally owned cannot carry a callback across
/// the process boundary, so the scheduling layer ships them as stamped
/// payload records instead: `ScheduleRemote` consumes the executing shard's
/// lane sequence exactly as a local cross-shard Schedule would (which is
/// what keeps the distributed merge order bit-identical to the in-process
/// one) and buffers a RemoteEvent; the receiving process re-materializes the
/// callback and enqueues it with the original stamp via `InjectRemote`.
///
/// Thread-safety: `Schedule`/`ScheduleRemote` may be called concurrently
/// only from inside callbacks executing under a parallel window (each
/// executing shard routes through its own lane); all other members are
/// driver-thread only.
class ShardedEventQueue {
 public:
  using Callback = std::function<void()>;
  using OwnerId = std::uint32_t;

  /// A cross-shard event bound for a shard owned by another process: the
  /// deterministic stamp (time, lane, seq) plus an opaque payload the
  /// scheduling layer knows how to turn back into a callback.
  struct RemoteEvent {
    OwnerId owner = 0;
    double time = 0.0;
    std::uint32_t lane = 0;
    std::uint64_t seq = 0;
    std::vector<std::byte> payload;
  };

  /// `owner_count` owners spread over `shard_count` contiguous blocks.
  /// Requires owner_count >= 1; shard_count is clamped to [1, owner_count].
  ShardedEventQueue(std::size_t owner_count, std::size_t shard_count);

  /// Current simulation time in seconds.
  [[nodiscard]] double Now() const noexcept { return now_; }

  /// Pending events across all shards.
  [[nodiscard]] std::size_t Pending() const noexcept;

  /// Pending events in one shard.  Requires shard < ShardCount().
  [[nodiscard]] std::size_t PendingInShard(std::size_t shard) const;

  /// Total events executed so far.
  [[nodiscard]] std::uint64_t Executed() const noexcept { return executed_; }

  /// Parallel windows executed so far (RunUntilParallel or BeginWindow).
  [[nodiscard]] std::uint64_t WindowsExecuted() const noexcept {
    return windows_;
  }

  [[nodiscard]] std::size_t ShardCount() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t OwnerCount() const noexcept { return owner_count_; }

  /// True while a parallel window is open (between BeginWindow and
  /// FinishWindow).  Scheduling layers use it to route around driver-only
  /// state: the flag is written by the driver thread only, before the fork
  /// and after the join, so reading it from window callbacks is safe.
  [[nodiscard]] bool InParallelWindow() const noexcept { return in_window_; }

  /// The shard an owner's events run in (contiguous block mapping, so
  /// neighboring owners share a shard and false sharing stays off the menu).
  [[nodiscard]] std::size_t ShardOf(OwnerId owner) const;

  /// The contiguous owner block [first, last) of one shard.  Requires
  /// shard < ShardCount().
  [[nodiscard]] std::pair<OwnerId, OwnerId> OwnersOfShard(std::size_t shard) const;

  // -- process ownership (multi-process drains, DESIGN.md §12) -------------

  /// Declares the contiguous shard range this process drains; the rest are
  /// *remote* (owned by peer processes).  Defaults to every shard.  Driver-
  /// side schedules onto remote shards are allowed and simply never drain
  /// here (each process replays the same deterministic construction);
  /// in-window schedules onto remote shards must go through ScheduleRemote.
  /// Requires 0 <= begin < end <= ShardCount() and no active window.
  void SetOwnedShardRange(std::size_t begin, std::size_t end);

  [[nodiscard]] std::size_t OwnedShardBegin() const noexcept { return owned_begin_; }
  [[nodiscard]] std::size_t OwnedShardEnd() const noexcept { return owned_end_; }
  [[nodiscard]] bool IsOwnedShard(std::size_t shard) const noexcept {
    return shard >= owned_begin_ && shard < owned_end_;
  }

  /// Schedules `callback` to run `delay_s` seconds from now in `owner`'s
  /// shard.  Requires delay_s >= 0 (NaN is rejected), a non-empty callback
  /// and owner < OwnerCount().  Inside a parallel window, a cross-shard
  /// schedule whose fire time lands inside the destination shard's window
  /// throws std::logic_error (lookahead violation), as does any in-window
  /// schedule onto a remote (non-owned) shard — those must use
  /// ScheduleRemote.
  void Schedule(OwnerId owner, double delay_s, Callback callback);

  /// Cross-process cousin of an in-window cross-shard Schedule: stamps the
  /// event with the executing shard's lane and next sequence — the *same*
  /// counter a local Schedule would consume, so the distributed merge stays
  /// bit-identical to the in-process one — and buffers it for
  /// TakeRemoteEvents instead of a destination heap.  Requires an executing
  /// parallel window, delay_s >= 0, a non-empty payload and an `owner` whose
  /// shard is remote.  Throws std::logic_error on a lookahead violation.
  void ScheduleRemote(OwnerId owner, double delay_s,
                      std::vector<std::byte> payload);

  /// Sequential drain in exact global order: runs events until the queue
  /// drains or simulated time would exceed `until_s` (not NaN), then sets
  /// Now() to `until_s` if it is ahead.  Events scheduled during execution
  /// participate.  Returns the number of events executed by this call.
  /// Requires full shard ownership, like RunUntilParallel: under a partial
  /// range the first cross-process message would have no outside-window
  /// buffering path, so the mode is rejected up front (multi-process drains
  /// always run windowed, under a ShardRuntime).
  std::uint64_t RunUntil(double until_s);

  /// Runs exactly one event (the globally next one) if available.
  /// Requires full shard ownership (see RunUntil).
  bool RunOne();

  /// Parallel drain in conservative windows bounded by a uniform
  /// `lookahead_s` (> 0) on every shard pair, spread over `pool`.  Requires
  /// until_s >= Now() (not NaN) and full shard ownership (multi-process
  /// drains go through a ShardRuntime).  See the class comment for the
  /// ordering contract; callbacks must touch only owner-local state plus
  /// what the lookahead guarantee makes safe.
  std::uint64_t RunUntilParallel(double until_s, common::ThreadPool& pool,
                                 double lookahead_s);

  /// Parallel drain with per-shard-pair lookaheads.  Requires
  /// lookaheads.ShardCount() == ShardCount().
  std::uint64_t RunUntilParallel(double until_s, common::ThreadPool& pool,
                                 const LookaheadMatrix& lookaheads);

  // -- window-level API (ShardRuntime and RunUntilParallel) ----------------

  /// Earliest pending event time per shard (+infinity when empty).  Only
  /// owned shards carry meaningful values in a multi-process drain — remote
  /// shards hold the stale replicas of the deterministic construction.
  [[nodiscard]] std::vector<double> ShardMinTimes() const;

  /// The per-shard window horizons for one conservative window:
  /// ends[s] = min over s' != s with finite mins[s'] of
  /// mins[s'] + lookaheads(s', s), or +infinity when no other shard has
  /// pending events.  Requires mins.size() == lookaheads.ShardCount().
  [[nodiscard]] static std::vector<double> ConservativeWindowEnds(
      std::span<const double> mins, const LookaheadMatrix& lookaheads);

  /// Opens a parallel window with the given per-shard horizons (exclusive).
  /// Requires ends.size() == ShardCount() and no active window.
  void BeginWindow(std::vector<double> shard_ends);

  /// Executes every owned shard's events with time < its horizon and
  /// <= until_s, one deterministic fork-join over `pool`.  Requires an open
  /// window.  A throwing callback (or lookahead violation) closes the
  /// window — merging what completed — and rethrows.
  void DrainOwnedShards(common::ThreadPool& pool, double until_s);

  /// Closes the window: merges every local outbox into its destination heap
  /// and folds per-shard executed counts.  Returns the events this window
  /// executed.  Requires an open window.
  std::uint64_t FinishWindow();

  /// Drains the remote-event buffers filled by ScheduleRemote, in source-
  /// shard order (deterministic).  Requires no active window.
  [[nodiscard]] std::vector<RemoteEvent> TakeRemoteEvents();

  /// Enqueues an event received from a peer process with its original stamp.
  /// Requires no active window, a finite time, an owned destination shard
  /// and lane < ShardCount().
  void InjectRemote(OwnerId owner, double time, std::uint32_t lane,
                    std::uint64_t seq, Callback callback);

  /// Advances Now() to `t` if ahead (windowed drains advance time to the
  /// window frontier, never backwards).
  void AdvanceNow(double t) noexcept { now_ = now_ < t ? t : now_; }

 private:
  struct Entry {
    double time;
    std::uint32_t lane;      // source context: shard id, or shard count = driver
    std::uint64_t sequence;  // per-lane monotonic; ties are FIFO per lane
    Callback callback;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      if (a.lane != b.lane) {
        return a.lane > b.lane;
      }
      return a.sequence > b.sequence;
    }
  };
  using Heap = std::priority_queue<Entry, std::vector<Entry>, Later>;

  /// Per-shard state, cache-line separated: during a parallel window each
  /// shard's heap, lane counter and outboxes are touched by exactly one
  /// thread.
  struct alignas(64) Shard {
    Heap heap;
    std::uint64_t next_sequence = 0;
    std::uint64_t executed = 0;
    /// Cross-shard events produced during the current window, merged into
    /// destination heaps after the join. first = destination shard.
    std::vector<std::pair<std::size_t, Entry>> outbox;
    /// Cross-process events produced during the current window, handed to
    /// the shard runtime by TakeRemoteEvents.
    std::vector<RemoteEvent> remote_outbox;
  };

  /// Shard with the globally least pending entry among owned shards, or
  /// ShardCount() if all owned shards are empty.
  [[nodiscard]] std::size_t MinShard() const;

  /// Throws std::logic_error unless every shard is owned locally.
  void RequireFullOwnership(const char* what) const;

  /// Windowed drain core shared by both RunUntilParallel overloads.
  std::uint64_t RunWindowedDrain(double until_s, common::ThreadPool& pool,
                                 const LookaheadMatrix& lookaheads);

  /// After a window's join: merges every outbox into its destination heap and
  /// folds per-shard executed counts into the totals.  Returns the number of
  /// events the window executed.
  std::uint64_t MergeWindow();

  std::size_t owner_count_;
  std::vector<Shard> shards_;
  double now_ = 0.0;
  std::uint64_t driver_sequence_ = 0;  ///< lane counter for driver-side schedules
  std::uint64_t executed_ = 0;
  std::uint64_t windows_ = 0;
  std::vector<double> window_ends_;  ///< per-shard exclusive window horizons
  bool in_window_ = false;
  std::size_t owned_begin_ = 0;
  std::size_t owned_end_ = 0;
};

}  // namespace dmfsgd::netsim
