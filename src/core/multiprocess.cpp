#include "core/multiprocess.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/bytes.hpp"
#include "common/thread_pool.hpp"
#include "netsim/shard_runtime.hpp"

namespace dmfsgd::core {

namespace {

// Result-fold frame types; disjoint from the ShardRuntime window protocol
// (types 1-2), which parks them for ShardRuntime::Receive when they race
// ahead.
constexpr std::uint8_t kFrameNodeRows = 16;
constexpr std::uint8_t kFrameRunStats = 17;

/// Per-peer gather state of the coordinator's result fold.
struct PeerFold {
  netsim::ChunkAssembler rows;
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
    common::ByteWriter writer;
    writer.U8(kFrameNodeRows);
    writer.U32(static_cast<std::uint32_t>(c));
    writer.U8(c + 1 == chunk_count ? 1 : 0);
    writer.U32(static_cast<std::uint32_t>(last - first));
    for (std::size_t i = first; i < last; ++i) {
      writer.U32(static_cast<std::uint32_t>(i));
      for (std::size_t d = 0; d < report.rank; ++d) {
        writer.F64(report.u[i * report.rank + d]);
      }
      for (std::size_t d = 0; d < report.rank; ++d) {
        writer.F64(report.v[i * report.rank + d]);
      }
    }
    channel.Send(0, writer.Take());
  }
  common::ByteWriter stats;
  stats.U8(kFrameRunStats);
  stats.U64(report.events_executed);
  stats.U64(report.measurements);
  stats.U64(report.dropped_legs);
  stats.U64(report.churns);
  channel.Send(0, stats.Take());
}

/// The coordinator's half of the fold: every peer's rows and counters,
/// received through the runtime so the stall timeout and liveness rules of
/// the window loop apply here too.
void GatherPeerResults(netsim::ShardRuntime& runtime,
                       MultiprocessRunReport& report) {
  std::vector<PeerFold> folds(report.process_count);
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
    common::ByteReader reader(frame.bytes);
    const std::uint8_t type = reader.U8();
    PeerFold& fold = folds.at(frame.from_process);
    if (type == kFrameRunStats) {
      if (fold.stats_received) {
        continue;  // duplicated datagram
      }
      fold.stats_received = true;
      report.events_executed += reader.U64();
      report.measurements += reader.U64();
      report.dropped_legs += reader.U64();
      report.churns += reader.U64();
      continue;
    }
    if (type != kFrameNodeRows) {
      // A duplicated datagram of a peer's final-window proposal or event
      // chunk can straggle in after RunUntil consumed the original — the
      // same duplicates the window protocol itself tolerates.  Drop them.
      continue;
    }
    const std::uint32_t chunk = reader.U32();
    const bool is_last = reader.U8() != 0;
    const std::uint32_t rows = reader.U32();
    if (!fold.rows.Mark(chunk, is_last)) {
      continue;  // duplicated datagram
    }
    for (std::uint32_t r = 0; r < rows; ++r) {
      const std::uint32_t node = reader.U32();
      if (node >= report.node_count) {
        throw std::logic_error(
            "RunMultiprocessAsyncSimulation: peer sent an out-of-range node");
      }
      for (std::size_t d = 0; d < report.rank; ++d) {
        report.u[node * report.rank + d] = reader.F64();
      }
      for (std::size_t d = 0; d < report.rank; ++d) {
        report.v[node * report.rank + d] = reader.F64();
      }
    }
  }
}

}  // namespace

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
  report.owned_begin = events.OwnersOfShard(events.OwnedShardBegin()).first;
  report.owned_end = events.OwnersOfShard(events.OwnedShardEnd() - 1).second;
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
    (void)channel.Flush(10'000);
    snapshot_transport();
    return report;
  }
  GatherPeerResults(runtime, report);
  // Push out the delayed acks for the peers' final frames, then linger
  // briefly to re-ack any retransmission whose ack the network dropped —
  // otherwise a peer's Flush retransmits into the void until its timeout.
  (void)channel.Flush(1000);
  (void)channel.Receive(300);
  snapshot_transport();
  return report;
}

}  // namespace dmfsgd::core
