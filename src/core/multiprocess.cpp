#include "core/multiprocess.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/bytes.hpp"
#include "common/thread_pool.hpp"
#include "netsim/shard_runtime.hpp"

namespace dmfsgd::core {

namespace {

// Result-fold frame types; disjoint from the ShardRuntime window frame
// (type 2), which parks them for ShardRuntime::Receive when they race
// ahead.
constexpr std::uint8_t kFrameNodeRows = 16;
constexpr std::uint8_t kFrameRunStats = 17;

/// First and one-past-last node of process `process`'s shard block.
std::pair<NodeId, NodeId> OwnedNodes(const netsim::ShardedEventQueue& events,
                                     std::size_t processes,
                                     std::size_t process) {
  const auto [begin, end] =
      common::BlockRange(events.ShardCount(), processes, process);
  return {events.OwnersOfShard(begin).first,
          events.OwnersOfShard(end - 1).second};
}

/// Per-peer gather state of the coordinator's result fold.
struct PeerFold {
  NodeId begin = 0;  ///< the peer's owned node block
  NodeId end = 0;
  netsim::ChunkAssembler rows;
  std::size_t rows_received = 0;
  bool stats_received = false;

  [[nodiscard]] bool Complete() const {
    return stats_received && rows.Complete();
  }
};

void SendOwnedRows(netsim::InterShardChannel& channel,
                   const MultiprocessRunReport& report) {
  // Rows chunked so each frame stays under the channel's budget (which a
  // reliability decorator shrinks by its header).
  const std::size_t row_bytes = 8 + 2 * report.rank * sizeof(double);
  const std::size_t rows_per_chunk =
      std::max<std::size_t>(1, (channel.MaxFrameBytes() - 64) / row_bytes);
  const std::size_t owned =
      static_cast<std::size_t>(report.owned_end - report.owned_begin);
  const std::size_t chunk_count = std::max<std::size_t>(
      1, (owned + rows_per_chunk - 1) / rows_per_chunk);
  for (std::size_t c = 0; c < chunk_count; ++c) {
    const std::size_t first = report.owned_begin + c * rows_per_chunk;
    const std::size_t last =
        std::min<std::size_t>(first + rows_per_chunk, report.owned_end);
    FoldRows rows;
    rows.index = static_cast<std::uint32_t>(c);
    rows.last = c + 1 == chunk_count;
    for (std::size_t i = first; i < last; ++i) {
      rows.nodes.push_back(static_cast<std::uint32_t>(i));
    }
    const auto from = static_cast<std::ptrdiff_t>(first * report.rank);
    const auto to = static_cast<std::ptrdiff_t>(last * report.rank);
    rows.u.assign(report.u.begin() + from, report.u.begin() + to);
    rows.v.assign(report.v.begin() + from, report.v.begin() + to);
    channel.Send(0, EncodeFoldRows(rows));
  }
  channel.Send(0, EncodeFoldStats({report.events_executed, report.measurements,
                                   report.dropped_legs, report.churns}));
}

/// The coordinator's half of the fold: every peer's rows and counters,
/// received through the runtime so the stall timeout and liveness rules of
/// the window loop apply here too.  A peer's rows must cover exactly its
/// owned node block, each node once; anything else is hostile peer bytes
/// and throws common::DecodeError before the offending frame writes a row.
void GatherPeerResults(netsim::ShardRuntime& runtime,
                       const netsim::ShardedEventQueue& events,
                       MultiprocessRunReport& report) {
  std::vector<PeerFold> folds(report.process_count);
  for (std::size_t p = 1; p < folds.size(); ++p) {
    std::tie(folds[p].begin, folds[p].end) =
        OwnedNodes(events, report.process_count, p);
  }
  std::vector<std::uint8_t> received(report.node_count, 0);
  auto all_complete = [&] {
    for (std::size_t p = 1; p < folds.size(); ++p) {
      if (!folds[p].Complete()) {
        return false;
      }
    }
    return true;
  };
  while (!all_complete()) {
    const netsim::InterShardFrame frame = runtime.Receive("result-fold");
    const std::uint8_t type = common::ByteReader(frame.bytes).U8();
    PeerFold& fold = folds.at(frame.from_process);
    if (type == kFrameRunStats) {
      const FoldStats stats = DecodeFoldStats(frame.bytes);
      if (fold.stats_received) {
        continue;  // duplicated datagram
      }
      fold.stats_received = true;
      report.events_executed += stats.events_executed;
      report.measurements += stats.measurements;
      report.dropped_legs += stats.dropped_legs;
      report.churns += stats.churns;
      continue;
    }
    if (type != kFrameNodeRows) {
      // A duplicated datagram of a peer's final-window event chunk can
      // straggle in after RunUntil consumed the original — the same
      // duplicates the window protocol itself tolerates.  Drop them.
      continue;
    }
    const FoldRows rows = DecodeFoldRows(frame.bytes, report.rank);
    if (!fold.rows.Mark(rows.index, rows.last)) {
      continue;  // duplicated datagram
    }
    for (const std::uint32_t node : rows.nodes) {
      if (node < fold.begin || node >= fold.end) {
        throw common::DecodeError(
            "RunMultiprocessAsyncSimulation: peer sent an out-of-range node "
            "(outside its owned block)");
      }
      if (received[node] != 0) {
        throw common::DecodeError(
            "RunMultiprocessAsyncSimulation: peer sent a node's row twice");
      }
      received[node] = 1;
    }
    const std::size_t rank = report.rank;
    for (std::size_t r = 0; r < rows.nodes.size(); ++r) {
      std::copy_n(rows.u.data() + r * rank, rank,
                  report.u.data() + rows.nodes[r] * rank);
      std::copy_n(rows.v.data() + r * rank, rank,
                  report.v.data() + rows.nodes[r] * rank);
    }
    fold.rows_received += rows.nodes.size();
    if (fold.rows.Complete() && fold.rows_received != fold.end - fold.begin) {
      throw common::DecodeError(
          "RunMultiprocessAsyncSimulation: peer's rows do not cover its owned "
          "block");
    }
  }
}

}  // namespace

std::vector<std::byte> EncodeFoldRows(const FoldRows& rows) {
  const std::size_t rank =
      rows.nodes.empty() ? 0 : rows.u.size() / rows.nodes.size();
  common::ByteWriter writer;
  writer.U8(kFrameNodeRows);
  writer.U32(rows.index);
  writer.U8(rows.last ? 1 : 0);
  writer.U32(static_cast<std::uint32_t>(rows.nodes.size()));
  for (std::size_t r = 0; r < rows.nodes.size(); ++r) {
    writer.U32(rows.nodes[r]);
    for (std::size_t d = 0; d < rank; ++d) {
      writer.F64(rows.u[r * rank + d]);
    }
    for (std::size_t d = 0; d < rank; ++d) {
      writer.F64(rows.v[r * rank + d]);
    }
  }
  return writer.Take();
}

FoldRows DecodeFoldRows(std::span<const std::byte> bytes, std::size_t rank) {
  common::ByteReader reader(bytes);
  if (reader.U8() != kFrameNodeRows) {
    throw common::DecodeError("DecodeFoldRows: not a rows frame");
  }
  FoldRows rows;
  rows.index = reader.U32();
  const std::uint8_t last = reader.U8();
  if (last > 1) {
    throw common::DecodeError("DecodeFoldRows: last flag is not 0 or 1");
  }
  rows.last = last == 1;
  const std::uint32_t count = reader.U32();
  for (std::uint32_t r = 0; r < count; ++r) {
    rows.nodes.push_back(reader.U32());
    for (std::size_t d = 0; d < rank; ++d) {
      rows.u.push_back(reader.F64());
    }
    for (std::size_t d = 0; d < rank; ++d) {
      rows.v.push_back(reader.F64());
    }
  }
  if (!reader.AtEnd()) {
    throw common::DecodeError("DecodeFoldRows: trailing bytes");
  }
  return rows;
}

std::vector<std::byte> EncodeFoldStats(const FoldStats& stats) {
  common::ByteWriter writer;
  writer.U8(kFrameRunStats);
  writer.U64(stats.events_executed);
  writer.U64(stats.measurements);
  writer.U64(stats.dropped_legs);
  writer.U64(stats.churns);
  return writer.Take();
}

FoldStats DecodeFoldStats(std::span<const std::byte> bytes) {
  common::ByteReader reader(bytes);
  if (reader.U8() != kFrameRunStats) {
    throw common::DecodeError("DecodeFoldStats: not a counters frame");
  }
  FoldStats stats;
  stats.events_executed = reader.U64();
  stats.measurements = reader.U64();
  stats.dropped_legs = reader.U64();
  stats.churns = reader.U64();
  if (!reader.AtEnd()) {
    throw common::DecodeError("DecodeFoldStats: trailing bytes");
  }
  return stats;
}

MultiprocessRunReport RunMultiprocessAsyncSimulation(
    const datasets::Dataset& dataset, const AsyncSimulationConfig& config,
    netsim::InterShardChannel& channel, double until_s, common::ThreadPool& pool,
    const netsim::ShardRuntimeOptions& runtime_options) {
  if (config.shard_count < channel.ProcessCount()) {
    throw std::invalid_argument(
        "RunMultiprocessAsyncSimulation: need at least one shard per process");
  }

  // Identical deterministic construction in every process; the runtime then
  // narrows this process to its owned shard range.
  AsyncDmfsgdSimulation simulation(dataset, config);
  netsim::ShardedEventQueue& events = simulation.MutableEvents();
  ShardedEventQueueDeliveryChannel& delivery = simulation.ShardedChannel();
  netsim::ShardRuntime runtime(
      events, channel, simulation.PairLookaheads(),
      [&delivery](netsim::ShardedEventQueue::OwnerId owner,
                  std::vector<std::byte> payload) {
        return delivery.DecodeEnvelopeCallback(owner, std::move(payload));
      },
      runtime_options);
  if (config.base.coalesce_delivery) {
    // Same-destination same-time cross-process *replies* ship as one batch
    // frame (DESIGN.md §13; request groups are declined — their handlers
    // emit).  Every process derives this from the shared config, so the
    // fleet agrees on event counts.
    runtime.SetRemoteEventMerger(
        &ShardedEventQueueDeliveryChannel::MergeEnvelopesIfReplies);
  }
  simulation.RunUntilDistributed(until_s, pool, runtime);

  MultiprocessRunReport report;
  report.process_index = channel.ProcessIndex();
  report.process_count = channel.ProcessCount();
  report.coordinator = channel.ProcessIndex() == 0;
  report.node_count = simulation.NodeCount();
  report.rank = simulation.config().rank;
  std::tie(report.owned_begin, report.owned_end) =
      OwnedNodes(events, channel.ProcessCount(), channel.ProcessIndex());
  const auto u = simulation.engine().store().UData();
  const auto v = simulation.engine().store().VData();
  report.u.assign(u.begin(), u.end());
  report.v.assign(v.begin(), v.end());
  report.windows = simulation.WindowsExecuted();
  report.frames_sent = runtime.FramesSent();
  report.events_executed = simulation.EventsExecuted();
  report.measurements = simulation.MeasurementCount();
  report.dropped_legs = simulation.DroppedLegs();
  report.churns = simulation.ChurnCount();

  auto snapshot_transport = [&] {
    const netsim::ChannelDiagnostics diagnostics = channel.Diagnostics();
    report.dropped_datagrams = diagnostics.dropped_datagrams;
    report.stray_datagrams = diagnostics.stray_datagrams;
    for (const netsim::PeerChannelStats& peer : diagnostics.peers) {
      report.retransmits += peer.retransmits;
      report.duplicates_suppressed += peer.duplicates_suppressed;
    }
  };
  if (channel.ProcessCount() == 1) {
    report.coordinator = true;
    snapshot_transport();
    return report;
  }
  if (!report.coordinator) {
    SendOwnedRows(channel, report);
    // A reliable channel services its retransmit timers inside Send/Receive,
    // so exiting right after the last Send would strand any dropped row
    // frame; drain until the coordinator acked everything (no-op on plain
    // backends).  Bounded well under the stall timeout: if the final ack
    // never comes the data still arrived, and waiting longer buys nothing.
    // Then linger like the coordinator: a third process whose last window
    // chunk this one acked, with the ack dropped, is still retransmitting
    // it from its terminal Flush, which would otherwise wait out its
    // stall timeout.
    (void)channel.Flush(10'000);
    (void)channel.Receive(300);
    snapshot_transport();
    return report;
  }
  GatherPeerResults(runtime, events, report);
  // Push out the delayed acks for the peers' final frames, then linger
  // briefly to re-ack any retransmission whose ack the network dropped —
  // otherwise a peer's Flush retransmits into the void until its timeout.
  (void)channel.Flush(1000);
  (void)channel.Receive(300);
  snapshot_transport();
  return report;
}

}  // namespace dmfsgd::core
