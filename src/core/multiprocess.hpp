// Multi-process async DMFSGD simulation coordinator (DESIGN.md §12).
//
// Distributes one AsyncDmfsgdSimulation across the processes of an
// InterShardChannel: every process performs the same deterministic
// construction from (dataset, config), owns a contiguous block of event
// shards (and therefore of nodes), and drains conservative windows in lock
// step under a netsim::ShardRuntime.  Handlers only ever touch the state of
// the node they run at, every cross-owner influence travels as a protocol
// message (a stamped wire message when it crosses processes), and all
// randomness flows through per-node streams — so the distributed run is
// bit-identical to a single-process parallel drain of the same seed and
// shard count, window for window.
//
// At End the coordinator (process 0) folds the deployment back together:
// peers ship their owned coordinate rows and counter sums, and process 0
// assembles the full final factors plus exact global counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/async_simulation.hpp"
#include "netsim/inter_shard_channel.hpp"
#include "netsim/shard_runtime.hpp"

namespace dmfsgd::core {

/// The folded outcome of one process's share of a distributed run.  On the
/// coordinator, `u`/`v` hold the complete final factors (every process's
/// owned rows) and the counters are global sums; on a peer they cover only
/// the locally owned nodes (rows outside the owned block are the stale
/// construction-time replicas and are not shipped).
struct MultiprocessRunReport {
  std::size_t process_index = 0;
  std::size_t process_count = 1;
  bool coordinator = false;

  std::size_t node_count = 0;
  std::size_t rank = 0;
  /// First and one-past-last node this process owned.
  NodeId owned_begin = 0;
  NodeId owned_end = 0;
  std::vector<double> u;  ///< row-major, stride = rank
  std::vector<double> v;

  std::uint64_t events_executed = 0;  ///< global sum on the coordinator
  std::uint64_t windows = 0;          ///< identical on every process
  std::uint64_t measurements = 0;
  std::uint64_t dropped_legs = 0;
  std::uint64_t churns = 0;
  /// Inter-shard frames this process shipped (local, never folded) — what
  /// envelope coalescing (config.base.coalesce_delivery) reduces.
  std::uint64_t frames_sent = 0;

  // Transport-health counters snapshotted from the channel after the fold
  // (local to this process, never summed — each process has its own link).
  // Nonzero retransmits/duplicates mean the reliability layer actually
  // repaired faults during the run; dropped/stray come from the UDP backend.
  std::uint64_t dropped_datagrams = 0;
  std::uint64_t stray_datagrams = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates_suppressed = 0;
};

/// One chunk of a peer's owned coordinate rows in the result fold.
struct FoldRows {
  std::uint32_t index = 0;  ///< chunk number; `last` marks the final one
  bool last = false;
  std::vector<std::uint32_t> nodes;
  std::vector<double> u;  ///< row-major, the same stride (rank) per node
  std::vector<double> v;
};

/// A peer's counters in the result fold, which the coordinator sums.
struct FoldStats {
  std::uint64_t events_executed = 0;
  std::uint64_t measurements = 0;
  std::uint64_t dropped_legs = 0;
  std::uint64_t churns = 0;
};

/// Encodes a rows chunk (frame type 16): type, chunk index, last flag, row
/// count, then per row its node id, u row and v row.
[[nodiscard]] std::vector<std::byte> EncodeFoldRows(const FoldRows& rows);

/// Decodes a rows chunk of `rank`-wide rows: throws common::DecodeError on
/// a wrong type byte, a last flag other than 0 or 1, truncation or trailing
/// bytes.  Which nodes a peer may send the coordinator checks.
[[nodiscard]] FoldRows DecodeFoldRows(std::span<const std::byte> bytes,
                                      std::size_t rank);

/// Encodes a counters frame (frame type 17): type, then the four counters.
[[nodiscard]] std::vector<std::byte> EncodeFoldStats(const FoldStats& stats);

/// Decodes a counters frame: throws common::DecodeError on a wrong type
/// byte, truncation or trailing bytes.
[[nodiscard]] FoldStats DecodeFoldStats(std::span<const std::byte> bytes);

/// Runs this process's share of a distributed async simulation to
/// `until_s` and performs the End fold over `channel`.  Blocking; every
/// process of the channel must call it with the same dataset, config and
/// until_s.  Requires config.shard_count >= channel.ProcessCount(), so each
/// process owns at least one shard.  `pool` parallelizes the local drain.
/// `runtime_options` tunes the window protocol and the result fold (the
/// stall timeout, the event-frame byte budget); every process must pass
/// the same values.  With
/// config.base.coalesce_delivery on, same-destination same-time
/// cross-process replies ship as one batch frame per group (DESIGN.md §13):
/// results stay bit-identical to the per-message run, while events_executed
/// and frames_sent drop.  The coordinator throws common::DecodeError on
/// malformed fold frames and when a peer's rows leave its owned node block,
/// repeat a node or do not cover the block.
[[nodiscard]] MultiprocessRunReport RunMultiprocessAsyncSimulation(
    const datasets::Dataset& dataset, const AsyncSimulationConfig& config,
    netsim::InterShardChannel& channel, double until_s, common::ThreadPool& pool,
    const netsim::ShardRuntimeOptions& runtime_options =
        netsim::ShardRuntimeOptions());

}  // namespace dmfsgd::core
