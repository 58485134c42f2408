#include "netsim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/thread_pool.hpp"

namespace dmfsgd::netsim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

// ------------------------------------------------------------------------
// LookaheadMatrix

LookaheadMatrix::LookaheadMatrix(std::size_t shard_count, double uniform_s)
    : shard_count_(shard_count) {
  if (shard_count == 0) {
    throw std::invalid_argument("LookaheadMatrix: shard_count must be > 0");
  }
  if (!(uniform_s > 0.0)) {
    throw std::invalid_argument("LookaheadMatrix: lookahead must be > 0");
  }
  cells_.assign(shard_count * shard_count, uniform_s);
}

void LookaheadMatrix::Set(std::size_t from, std::size_t to, double lookahead_s) {
  if (!(lookahead_s > 0.0)) {
    throw std::invalid_argument("LookaheadMatrix::Set: lookahead must be > 0");
  }
  RequireCell(from, to);
  cells_[from * shard_count_ + to] = lookahead_s;
}

// ------------------------------------------------------------------------
// ShardedEventQueue

namespace {

/// The shard context of the callback currently executing on this thread
/// during a parallel window.  `queue` doubles as the active flag; it is set
/// per shard iteration and cleared when the thread's block ends, so a stale
/// value can never alias a later drain.
struct ParallelDrainTls {
  const void* queue = nullptr;
  std::size_t shard = 0;
  double local_now = 0.0;
};
thread_local ParallelDrainTls tls_drain;

}  // namespace

ShardedEventQueue::ShardedEventQueue(std::size_t owner_count,
                                     std::size_t shard_count)
    : owner_count_(owner_count) {
  if (owner_count == 0) {
    throw std::invalid_argument("ShardedEventQueue: owner_count must be > 0");
  }
  shard_count = std::clamp<std::size_t>(shard_count, 1, owner_count);
  shards_ = std::vector<Shard>(shard_count);
  owned_end_ = shard_count;
}

std::size_t ShardedEventQueue::ShardOf(OwnerId owner) const {
  if (owner >= owner_count_) {
    throw std::out_of_range("ShardedEventQueue::ShardOf: owner out of range");
  }
  // Closed-form inverse of BlockRange (neighboring owners share a shard);
  // the OwnersOfShardInvertsShardOf test pins the agreement.
  const std::size_t parts = shards_.size();
  const std::size_t base = owner_count_ / parts;
  const std::size_t extra = owner_count_ % parts;
  const std::size_t boundary = extra * (base + 1);
  if (owner < boundary) {
    return owner / (base + 1);
  }
  return extra + (owner - boundary) / base;
}

std::pair<ShardedEventQueue::OwnerId, ShardedEventQueue::OwnerId>
ShardedEventQueue::OwnersOfShard(std::size_t shard) const {
  if (shard >= shards_.size()) {
    throw std::out_of_range("ShardedEventQueue::OwnersOfShard: bad shard");
  }
  const auto [first, last] = BlockRange(owner_count_, shards_.size(), shard);
  return {static_cast<OwnerId>(first), static_cast<OwnerId>(last)};
}

void ShardedEventQueue::SetOwnedShardRange(std::size_t begin, std::size_t end) {
  if (in_window_) {
    throw std::logic_error(
        "ShardedEventQueue::SetOwnedShardRange: window in progress");
  }
  if (begin >= end || end > shards_.size()) {
    throw std::invalid_argument(
        "ShardedEventQueue::SetOwnedShardRange: bad range");
  }
  owned_begin_ = begin;
  owned_end_ = end;
}

std::size_t ShardedEventQueue::Pending() const noexcept {
  std::size_t pending = 0;
  for (const Shard& shard : shards_) {
    pending += shard.heap.size();
  }
  return pending;
}

void ShardedEventQueue::Schedule(OwnerId owner, double delay_s,
                                 Callback callback) {
  if (!(delay_s >= 0.0)) {
    throw std::invalid_argument(
        "ShardedEventQueue::Schedule: delay must be >= 0");
  }
  if (!callback) {
    throw std::invalid_argument("ShardedEventQueue::Schedule: empty callback");
  }
  const std::size_t dest = ShardOf(owner);
  if (in_window_ && tls_drain.queue == this) {
    // Scheduled from a callback inside a parallel window: stamp with the
    // executing shard's lane and time, touching only that shard's state.
    Shard& source = shards_[tls_drain.shard];
    Entry entry{tls_drain.local_now + delay_s,
                static_cast<std::uint32_t>(tls_drain.shard),
                source.next_sequence++, std::move(callback)};
    if (dest == tls_drain.shard) {
      source.heap.push(std::move(entry));
      return;
    }
    if (!IsOwnedShard(dest)) {
      throw std::logic_error(
          "ShardedEventQueue::Schedule: in-window schedule onto a remote "
          "shard — a callback cannot cross the process boundary; route the "
          "event through ScheduleRemote");
    }
    if (entry.time < window_ends_[dest]) {
      throw std::logic_error(
          "ShardedEventQueue: cross-shard schedule lands inside the "
          "destination's lookahead window — the configured lookahead is not "
          "a true minimum cross-owner delay");
    }
    source.outbox.emplace_back(dest, std::move(entry));
    return;
  }
  // Driver-side (sequential) schedule: one shared lane with one monotonic
  // counter, so sequential drains tie-break globally FIFO.
  shards_[dest].heap.push(Entry{now_ + delay_s,
                                static_cast<std::uint32_t>(shards_.size()),
                                driver_sequence_++, std::move(callback)});
}

void ShardedEventQueue::ScheduleRemote(OwnerId owner, double delay_s,
                                       std::vector<std::byte> payload) {
  if (!(delay_s >= 0.0)) {
    throw std::invalid_argument(
        "ShardedEventQueue::ScheduleRemote: delay must be >= 0");
  }
  if (payload.empty()) {
    throw std::invalid_argument(
        "ShardedEventQueue::ScheduleRemote: empty payload");
  }
  if (!in_window_ || tls_drain.queue != this) {
    throw std::logic_error(
        "ShardedEventQueue::ScheduleRemote: only valid from a callback "
        "inside a parallel window");
  }
  const std::size_t dest = ShardOf(owner);
  if (IsOwnedShard(dest)) {
    throw std::logic_error(
        "ShardedEventQueue::ScheduleRemote: destination shard is owned "
        "locally — use Schedule");
  }
  Shard& source = shards_[tls_drain.shard];
  RemoteEvent event{owner, tls_drain.local_now + delay_s,
                    static_cast<std::uint32_t>(tls_drain.shard),
                    source.next_sequence++, std::move(payload)};
  if (event.time < window_ends_[dest]) {
    throw std::logic_error(
        "ShardedEventQueue: cross-process schedule lands inside the "
        "destination's lookahead window — the configured lookahead is not a "
        "true minimum cross-owner delay");
  }
  source.remote_outbox.push_back(std::move(event));
}

void ShardedEventQueue::RequireFullOwnership(const char* what) const {
  if (owned_begin_ != 0 || owned_end_ != shards_.size()) {
    throw std::logic_error(
        std::string("ShardedEventQueue::") + what +
        ": partial shard ownership — a multi-process drain must run "
        "windowed under a ShardRuntime");
  }
}

std::size_t ShardedEventQueue::MinShard() const {
  const Later later;
  std::size_t best = shards_.size();
  for (std::size_t s = owned_begin_; s < owned_end_; ++s) {
    if (shards_[s].heap.empty()) {
      continue;
    }
    // a earlier than b  <=>  Later()(b, a).
    if (best == shards_.size() ||
        later(shards_[best].heap.top(), shards_[s].heap.top())) {
      best = s;
    }
  }
  return best;
}

std::uint64_t ShardedEventQueue::RunUntil(double until_s) {
  if (std::isnan(until_s)) {
    throw std::invalid_argument("ShardedEventQueue::RunUntil: NaN horizon");
  }
  RequireFullOwnership("RunUntil");
  std::uint64_t ran = 0;
  for (;;) {
    const std::size_t s = MinShard();
    if (s == shards_.size() || shards_[s].heap.top().time > until_s) {
      break;
    }
    Entry entry = shards_[s].heap.top();
    shards_[s].heap.pop();
    now_ = entry.time;
    entry.callback();
    ++executed_;
    ++ran;
  }
  if (now_ < until_s) {
    now_ = until_s;
  }
  return ran;
}

std::vector<double> ShardedEventQueue::ShardMinTimes() const {
  std::vector<double> mins(shards_.size(), kInf);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s].heap.empty()) {
      mins[s] = shards_[s].heap.top().time;
    }
  }
  return mins;
}

std::vector<double> ShardedEventQueue::ConservativeWindowEnds(
    std::span<const double> mins, const LookaheadMatrix& lookaheads) {
  if (mins.size() != lookaheads.ShardCount()) {
    throw std::invalid_argument(
        "ShardedEventQueue::ConservativeWindowEnds: size mismatch");
  }
  std::vector<double> ends(mins.size(), kInf);
  for (std::size_t to = 0; to < mins.size(); ++to) {
    for (std::size_t from = 0; from < mins.size(); ++from) {
      if (from == to || mins[from] == kInf) {
        continue;
      }
      ends[to] = std::min(ends[to], mins[from] + lookaheads.At(from, to));
    }
  }
  return ends;
}

void ShardedEventQueue::BeginWindow(std::vector<double> shard_ends) {
  if (in_window_) {
    throw std::logic_error("ShardedEventQueue::BeginWindow: window already open");
  }
  if (shard_ends.size() != shards_.size()) {
    throw std::invalid_argument(
        "ShardedEventQueue::BeginWindow: one horizon per shard required");
  }
  window_ends_ = std::move(shard_ends);
  in_window_ = true;
  ++windows_;
}

void ShardedEventQueue::DrainOwnedShards(common::ThreadPool& pool,
                                         double until_s) {
  if (!in_window_) {
    throw std::logic_error("ShardedEventQueue::DrainOwnedShards: no open window");
  }
  try {
    pool.ParallelFor(owned_begin_, owned_end_,
                     [&](std::size_t lo, std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s) {
        Shard& shard = shards_[s];
        tls_drain.queue = this;
        tls_drain.shard = s;
        const double end = window_ends_[s];
        while (!shard.heap.empty() && shard.heap.top().time < end &&
               shard.heap.top().time <= until_s) {
          Entry entry = shard.heap.top();
          shard.heap.pop();
          tls_drain.local_now = entry.time;
          entry.callback();
          ++shard.executed;
        }
      }
      tls_drain.queue = nullptr;
    });
  } catch (...) {
    // A throwing callback (or a lookahead violation) leaves pending events
    // in an unspecified but self-consistent state; the window flag must not
    // leak into later sequential scheduling.
    in_window_ = false;
    MergeWindow();
    throw;
  }
}

std::uint64_t ShardedEventQueue::FinishWindow() {
  if (!in_window_) {
    throw std::logic_error("ShardedEventQueue::FinishWindow: no open window");
  }
  in_window_ = false;
  return MergeWindow();
}

std::vector<ShardedEventQueue::RemoteEvent>
ShardedEventQueue::TakeRemoteEvents() {
  if (in_window_) {
    throw std::logic_error(
        "ShardedEventQueue::TakeRemoteEvents: window in progress");
  }
  std::vector<RemoteEvent> events;
  for (Shard& shard : shards_) {
    for (RemoteEvent& event : shard.remote_outbox) {
      events.push_back(std::move(event));
    }
    shard.remote_outbox.clear();
  }
  return events;
}

void ShardedEventQueue::InjectRemote(OwnerId owner, double time,
                                     std::uint32_t lane, std::uint64_t seq,
                                     Callback callback) {
  if (in_window_) {
    throw std::logic_error("ShardedEventQueue::InjectRemote: window in progress");
  }
  if (!callback) {
    throw std::invalid_argument("ShardedEventQueue::InjectRemote: empty callback");
  }
  if (!std::isfinite(time)) {
    throw std::invalid_argument(
        "ShardedEventQueue::InjectRemote: time must be finite");
  }
  if (lane >= shards_.size()) {
    throw std::invalid_argument(
        "ShardedEventQueue::InjectRemote: lane is not a shard");
  }
  const std::size_t dest = ShardOf(owner);
  if (!IsOwnedShard(dest)) {
    throw std::invalid_argument(
        "ShardedEventQueue::InjectRemote: destination shard is not owned");
  }
  shards_[dest].heap.push(Entry{time, lane, seq, std::move(callback)});
}

std::uint64_t ShardedEventQueue::RunUntilParallel(
    double until_s, common::ThreadPool& pool, const LookaheadMatrix& lookaheads) {
  if (lookaheads.ShardCount() != shards_.size()) {
    throw std::invalid_argument(
        "ShardedEventQueue::RunUntilParallel: lookahead matrix shard count "
        "mismatch");
  }
  if (!(until_s >= now_)) {
    throw std::invalid_argument(
        "ShardedEventQueue::RunUntilParallel: time in the past or NaN");
  }
  RequireFullOwnership("RunUntilParallel");
  std::uint64_t ran_total = 0;
  for (;;) {
    const std::vector<double> mins = ShardMinTimes();
    const double t_min = *std::min_element(mins.begin(), mins.end());
    if (!(t_min <= until_s)) {
      break;  // drained, or everything pending lies beyond the horizon
    }
    BeginWindow(ConservativeWindowEnds(mins, lookaheads));
    DrainOwnedShards(pool, until_s);
    ran_total += FinishWindow();
    // Every event left pending has time >= its shard's horizon (earlier ones
    // ran; merged arrivals satisfy the lookahead bound), so the global
    // frontier may advance to the least horizon.
    AdvanceNow(std::min(
        until_s, *std::min_element(window_ends_.begin(), window_ends_.end())));
  }
  now_ = until_s;
  return ran_total;
}

std::uint64_t ShardedEventQueue::MergeWindow() {
  std::uint64_t ran = 0;
  for (Shard& shard : shards_) {
    for (auto& [dest, entry] : shard.outbox) {
      shards_[dest].heap.push(std::move(entry));
    }
    shard.outbox.clear();
    ran += shard.executed;
    executed_ += shard.executed;
    shard.executed = 0;
  }
  return ran;
}

}  // namespace dmfsgd::netsim
