#include "netsim/shard_runtime.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/bytes.hpp"
#include "common/thread_pool.hpp"

namespace dmfsgd::netsim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Window-protocol frame types.  Higher layers using the same channel (the
// coordinator's result fold) must pick types outside this range; the runtime
// parks frames it does not recognize for ShardRuntime::Receive.
constexpr std::uint8_t kFramePropose = 1;
constexpr std::uint8_t kFrameEventChunk = 2;

std::string FormatStall(std::uint64_t window_id, const std::string& phase,
                        const std::vector<std::uint64_t>& frames_received_from,
                        const ChannelDiagnostics& diagnostics) {
  std::ostringstream out;
  out << "inter-shard channel stalled in the " << phase
      << " gather of window " << window_id
      << ": a peer died or fell behind past the stall timeout";
  if (diagnostics.dropped_datagrams != 0 || diagnostics.stray_datagrams != 0) {
    out << "; transport dropped " << diagnostics.dropped_datagrams
        << " and discarded " << diagnostics.stray_datagrams
        << " stray datagrams";
  }
  for (std::size_t p = 0; p < diagnostics.peers.size(); ++p) {
    const PeerChannelStats& peer = diagnostics.peers[p];
    out << "\n  peer " << p << ": "
        << (p < frames_received_from.size() ? frames_received_from[p] : 0)
        << " protocol frames received";
    if (peer.frames_sent != 0 || peer.frames_received != 0 ||
        peer.retransmits != 0 || peer.unacked_frames != 0) {
      out << ", " << peer.unacked_frames << " unacked toward it ("
          << peer.retransmits << " retransmits, " << peer.duplicates_suppressed
          << " duplicates suppressed)";
    }
    if (peer.seconds_since_heard >= 0.0) {
      out << ", last heard " << peer.seconds_since_heard << "s ago";
    } else {
      out << ", never heard from";
    }
  }
  return out.str();
}

}  // namespace

StallError::StallError(std::uint64_t window_id, std::string phase,
                       std::vector<std::uint64_t> frames_received_from,
                       ChannelDiagnostics diagnostics)
    : std::runtime_error(
          FormatStall(window_id, phase, frames_received_from, diagnostics)),
      window_id_(window_id),
      phase_(std::move(phase)),
      frames_received_from_(std::move(frames_received_from)),
      diagnostics_(std::move(diagnostics)) {}

/// Gather state for one window: which peers proposed, and each peer's
/// event-batch reassembly (duplicate-safe via ChunkAssembler — a duplicated
/// datagram must not inject its events twice).
struct ShardRuntime::WindowExchange {
  explicit WindowExchange(std::size_t processes, std::vector<double> mins)
      : proposed(processes, false),
        batches(processes),
        merged_mins(std::move(mins)) {}

  std::vector<bool> proposed;
  std::vector<ChunkAssembler> batches;
  std::vector<double> merged_mins;

  [[nodiscard]] bool AllProposed(std::size_t self) const {
    for (std::size_t p = 0; p < proposed.size(); ++p) {
      if (p != self && !proposed[p]) {
        return false;
      }
    }
    return true;
  }
  [[nodiscard]] bool AllBatchesComplete(std::size_t self) const {
    for (std::size_t p = 0; p < proposed.size(); ++p) {
      if (p != self && !batches[p].Complete()) {
        return false;
      }
    }
    return true;
  }
};

ShardRuntime::ShardRuntime(ShardedEventQueue& queue, InterShardChannel& channel,
                           LookaheadMatrix lookaheads, RemoteEventDecoder decoder,
                           Options options)
    : queue_(&queue),
      channel_(&channel),
      lookaheads_(std::move(lookaheads)),
      decoder_(std::move(decoder)),
      options_(options) {
  if (options_.receive_poll_ms <= 0) {
    throw std::invalid_argument(
        "ShardRuntime: receive_poll_ms must be positive");
  }
  if (!(options_.stall_timeout_s > 0.0)) {
    throw std::invalid_argument(
        "ShardRuntime: stall_timeout_s must be positive");
  }
  // Clamp against the *channel's* budget: a reliability decorator reserves
  // header bytes out of every frame, so the constant overshoots there.
  options_.max_frame_bytes = std::clamp<std::size_t>(
      options_.max_frame_bytes, 256, channel.MaxFrameBytes());
  if (lookaheads_.ShardCount() != queue.ShardCount()) {
    throw std::invalid_argument(
        "ShardRuntime: lookahead matrix shard count mismatch");
  }
  if (!decoder_) {
    throw std::invalid_argument("ShardRuntime: remote event decoder required");
  }
  if (queue.ShardCount() < channel.ProcessCount()) {
    throw std::invalid_argument(
        "ShardRuntime: fewer shards than processes — every process needs at "
        "least one shard");
  }
  process_of_shard_.resize(queue.ShardCount());
  for (std::size_t p = 0; p < channel.ProcessCount(); ++p) {
    const auto [block_begin, block_end] =
        BlockRange(queue.ShardCount(), channel.ProcessCount(), p);
    for (std::size_t s = block_begin; s < block_end; ++s) {
      process_of_shard_[s] = p;
    }
  }
  const auto [begin, end] = BlockRange(queue.ShardCount(), channel.ProcessCount(),
                                       channel.ProcessIndex());
  queue.SetOwnedShardRange(begin, end);
  frames_received_from_.resize(channel.ProcessCount(), 0);
}

std::uint64_t ShardRuntime::RunUntil(double until_s, common::ThreadPool& pool) {
  const std::size_t processes = channel_->ProcessCount();
  std::uint64_t executed = 0;
  for (;;) {
    // Local truth for owned shards only; remote shards hold the stale
    // replicas of the deterministic construction and must be overridden by
    // their owners' proposals.
    const std::vector<double> local = queue_->ShardMinTimes();
    std::vector<double> mins(queue_->ShardCount(), kInf);
    for (std::size_t s = queue_->OwnedShardBegin(); s < queue_->OwnedShardEnd();
         ++s) {
      mins[s] = local[s];
    }
    WindowExchange exchange(processes, std::move(mins));
    if (processes > 1) {
      BroadcastProposal(window_id_, local);
      GatherProposals(window_id_, exchange);
    }
    const double t_min =
        *std::min_element(exchange.merged_mins.begin(), exchange.merged_mins.end());
    if (!(t_min <= until_s)) {
      break;  // every process computes the same vector, so all agree to stop
    }
    std::vector<double> ends = ShardedEventQueue::ConservativeWindowEnds(
        exchange.merged_mins, lookaheads_);
    const double frontier =
        std::min(until_s, *std::min_element(ends.begin(), ends.end()));
    queue_->BeginWindow(std::move(ends));
    queue_->DrainOwnedShards(pool, until_s);
    executed += queue_->FinishWindow();
    if (processes > 1) {
      SendEventBatches(window_id_,
                       CoalesceRemoteEvents(queue_->TakeRemoteEvents()));
      GatherEventBatches(window_id_, exchange);
    }
    queue_->AdvanceNow(frontier);
    ++window_id_;
  }
  queue_->AdvanceNow(until_s);
  if (processes > 1) {
    // The terminal proposes can still be in flight: every process agreed to
    // stop, but on a lossy link one process's final propose may have been
    // dropped — and a reliability decorator only retransmits inside
    // Send/Receive/Flush.  Returning without a flush would strand the peer
    // in its final gather until its stall timeout with nobody left to
    // retransmit.  Bounded by the stall timeout: against a live peer this
    // settles in a few RTOs; against a dead one the caller was stalling
    // anyway.
    (void)channel_->Flush(
        static_cast<int>(options_.stall_timeout_s * 1000.0));
  }
  return executed;
}

InterShardFrame ShardRuntime::Receive(const char* phase) {
  if (!leftover_.empty()) {
    InterShardFrame frame = std::move(leftover_.front());
    leftover_.pop_front();
    return frame;
  }
  return ReceiveOrThrow(window_id_, phase);
}

void ShardRuntime::BroadcastProposal(std::uint64_t window_id,
                                     const std::vector<double>& local_mins) {
  common::ByteWriter writer;
  writer.U8(kFramePropose);
  writer.U64(window_id);
  const std::size_t begin = queue_->OwnedShardBegin();
  const std::size_t end = queue_->OwnedShardEnd();
  writer.U32(static_cast<std::uint32_t>(end - begin));
  for (std::size_t s = begin; s < end; ++s) {
    writer.U32(static_cast<std::uint32_t>(s));
    writer.F64(local_mins[s]);
  }
  const std::vector<std::byte> frame = writer.Take();
  for (std::size_t p = 0; p < channel_->ProcessCount(); ++p) {
    if (p != channel_->ProcessIndex()) {
      SendFrame(p, frame);
    }
  }
}

void ShardRuntime::SendFrame(std::size_t to_process,
                             std::span<const std::byte> frame) {
  channel_->Send(to_process, frame);
  ++frames_sent_;
}

std::vector<ShardedEventQueue::RemoteEvent> ShardRuntime::CoalesceRemoteEvents(
    std::vector<ShardedEventQueue::RemoteEvent> events) const {
  if (!merger_ || events.size() < 2) {
    return events;
  }
  // Group by identical (owner, time) — not just adjacent runs: a burst's
  // replies converge on one owner from *different* source lanes, so the
  // group's members are scattered across the per-shard outbox order.
  // TakeRemoteEvents yields ascending (lane, seq), so a group's first
  // occurrence carries its least merge key: the batch executes exactly
  // where its first message would have, with the rest applied in stamp
  // order behind it (DESIGN.md §13).
  struct Group {
    std::vector<ShardedEventQueue::RemoteEvent> members;
    std::size_t bytes = 0;
  };
  // A merged payload must still fit one frame of the *configured* budget
  // (the MTU knob exists precisely so no frame outgrows it) with
  // chunk-header headroom; an overfull group splits — the follow-on batch
  // keeps the next member's (later) stamp, so order survives the split.
  const std::size_t byte_budget = options_.max_frame_bytes - 128;
  // 512 mirrors the batch frame's item cap (kMaxWireBatchItems) without
  // making this payload-agnostic layer include the wire codec.
  constexpr std::size_t kMaxGroupPayloads = 512;
  std::vector<Group> groups;
  groups.reserve(events.size());
  std::map<std::pair<ShardedEventQueue::OwnerId, std::uint64_t>, std::size_t>
      index;
  for (ShardedEventQueue::RemoteEvent& event : events) {
    const auto time_bits = std::bit_cast<std::uint64_t>(event.time);
    const std::size_t bytes = event.payload.size() + 8;
    auto [it, inserted] =
        index.try_emplace({event.owner, time_bits}, groups.size());
    if (!inserted &&
        (groups[it->second].bytes + bytes > byte_budget ||
         groups[it->second].members.size() >= kMaxGroupPayloads)) {
      it->second = groups.size();  // start a follow-on group for this key
      inserted = true;
    }
    if (inserted) {
      groups.emplace_back();
    }
    Group& group = groups[it->second];
    group.bytes += bytes;
    group.members.push_back(std::move(event));
  }
  std::vector<ShardedEventQueue::RemoteEvent> merged;
  merged.reserve(groups.size());
  std::vector<std::vector<std::byte>> payloads;
  for (Group& group : groups) {
    if (group.members.size() == 1) {
      merged.push_back(std::move(group.members.front()));
      continue;
    }
    payloads.clear();
    payloads.reserve(group.members.size());
    for (ShardedEventQueue::RemoteEvent& member : group.members) {
      payloads.push_back(std::move(member.payload));
    }
    std::optional<std::vector<std::byte>> combined = merger_(payloads);
    if (!combined.has_value()) {
      // The scheduling layer declined (handlers of these payloads emit, so
      // merging could reorder emission stamps): ship them individually.
      for (std::size_t m = 0; m < group.members.size(); ++m) {
        group.members[m].payload = std::move(payloads[m]);
        merged.push_back(std::move(group.members[m]));
      }
      continue;
    }
    ShardedEventQueue::RemoteEvent batch = std::move(group.members.front());
    batch.payload = std::move(*combined);
    merged.push_back(std::move(batch));
  }
  return merged;
}

void ShardRuntime::SendEventBatches(
    std::uint64_t window_id, std::vector<ShardedEventQueue::RemoteEvent> events) {
  // One bucketing pass maps every event to its owner's process; each peer
  // then gets >= 1 chunk (an empty one doubles as the barrier), each chunk
  // capped at the clamped max_frame_bytes budget.
  std::vector<std::vector<const ShardedEventQueue::RemoteEvent*>> buckets(
      channel_->ProcessCount());
  for (const auto& event : events) {
    buckets[process_of_shard_[queue_->ShardOf(event.owner)]].push_back(&event);
  }
  for (std::size_t p = 0; p < channel_->ProcessCount(); ++p) {
    if (p == channel_->ProcessIndex()) {
      continue;
    }
    // Pre-partition into chunks by serialized size so every chunk can carry
    // its index and a last-chunk flag (UDP may reorder chunks in flight).
    // First-fit-decreasing: big records (merged reply envelopes) open
    // chunks, small ones fill the tails — order across and within chunks is
    // free because every event carries its own deterministic stamp, and the
    // packing itself is deterministic (stable sort, first-fit scan).
    std::vector<const ShardedEventQueue::RemoteEvent*> ordered = buckets[p];
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const auto* a, const auto* b) {
                       return a->payload.size() > b->payload.size();
                     });
    std::vector<std::vector<const ShardedEventQueue::RemoteEvent*>> chunks(1);
    std::vector<std::size_t> chunk_bytes(1, 64);  // header headroom
    for (const auto* event : ordered) {
      const std::size_t bytes = 28 + event->payload.size();
      std::size_t slot = chunks.size();
      for (std::size_t c = 0; c < chunks.size(); ++c) {
        if (chunk_bytes[c] + bytes <= options_.max_frame_bytes ||
            chunks[c].empty()) {
          slot = c;
          break;
        }
      }
      if (slot == chunks.size()) {
        chunks.emplace_back();
        chunk_bytes.push_back(64);
      }
      chunks[slot].push_back(event);
      chunk_bytes[slot] += bytes;
    }
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      common::ByteWriter writer(chunk_bytes[c]);
      writer.U8(kFrameEventChunk);
      writer.U64(window_id);
      writer.U32(static_cast<std::uint32_t>(c));
      writer.U8(c + 1 == chunks.size() ? 1 : 0);
      writer.U32(static_cast<std::uint32_t>(chunks[c].size()));
      for (const auto* event : chunks[c]) {
        writer.U32(event->owner);
        writer.F64(event->time);
        writer.U32(event->lane);
        writer.U64(event->seq);
        writer.U32(static_cast<std::uint32_t>(event->payload.size()));
        writer.Bytes(event->payload);
      }
      SendFrame(p, writer.Take());
    }
  }
}

InterShardFrame ShardRuntime::ReceiveOrThrow(std::uint64_t window_id,
                                             const char* phase) {
  const auto stall_timeout =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.stall_timeout_s));
  auto deadline = std::chrono::steady_clock::now() + stall_timeout;
  std::uint64_t liveness = channel_->LivenessEpoch();
  for (;;) {
    auto frame = channel_->Receive(options_.receive_poll_ms);
    if (frame.has_value()) {
      ++frames_received_from_[frame->from_process];
      return std::move(*frame);
    }
    // No frame surfaced, but the channel may still have seen progress (a
    // reliability layer's acks advancing under retransmission): treat any
    // liveness advance as "peers alive" and re-arm the deadline, so only a
    // peer whose acks stop for the whole timeout trips the stall.
    const std::uint64_t epoch = channel_->LivenessEpoch();
    if (epoch != liveness) {
      liveness = epoch;
      deadline = std::chrono::steady_clock::now() + stall_timeout;
      continue;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      throw StallError(window_id, phase, frames_received_from_,
                       channel_->Diagnostics());
    }
  }
}

void ShardRuntime::HandleFrame(std::uint64_t window_id,
                               const InterShardFrame& frame,
                               WindowExchange& exchange) {
  common::ByteReader reader(frame.bytes);
  const std::uint8_t type = reader.U8();
  if (type != kFramePropose && type != kFrameEventChunk) {
    leftover_.push_back(frame);
    return;
  }
  const std::uint64_t wid = reader.U64();
  if (wid < window_id) {
    return;  // stale duplicate; the window it belongs to already closed
  }
  if (wid > window_id + 1 || (wid == window_id + 1 && type != kFramePropose)) {
    throw std::logic_error(
        "ShardRuntime: peer is ahead by more than the lock-step protocol "
        "allows — window desynchronization");
  }
  if (wid == window_id + 1) {
    pending_.push_back(frame);  // next window's proposal arrived early
    return;
  }
  if (type == kFramePropose) {
    const std::uint32_t count = reader.U32();
    for (std::uint32_t e = 0; e < count; ++e) {
      const std::uint32_t shard = reader.U32();
      const double t_min = reader.F64();
      if (shard >= queue_->ShardCount() ||
          process_of_shard_[shard] != frame.from_process) {
        throw std::logic_error(
            "ShardRuntime: peer proposed for a shard it does not own");
      }
      exchange.merged_mins[shard] = t_min;
    }
    exchange.proposed[frame.from_process] = true;
    return;
  }
  // Event chunk for the current window.
  const std::uint32_t chunk_index = reader.U32();
  const bool is_last = reader.U8() != 0;
  const std::uint32_t count = reader.U32();
  if (!exchange.batches[frame.from_process].Mark(chunk_index, is_last)) {
    return;  // duplicated datagram; its events are already enqueued
  }
  for (std::uint32_t e = 0; e < count; ++e) {
    const auto owner = static_cast<ShardedEventQueue::OwnerId>(reader.U32());
    const double time = reader.F64();
    const std::uint32_t lane = reader.U32();
    const std::uint64_t seq = reader.U64();
    const std::span<const std::byte> payload = reader.Bytes(reader.U32());
    queue_->InjectRemote(
        owner, time, lane, seq,
        decoder_(owner, std::vector<std::byte>(payload.begin(), payload.end())));
  }
}

void ShardRuntime::GatherProposals(std::uint64_t window_id,
                                   WindowExchange& exchange) {
  for (const InterShardFrame& frame : std::exchange(pending_, {})) {
    HandleFrame(window_id, frame, exchange);
  }
  while (!exchange.AllProposed(channel_->ProcessIndex())) {
    HandleFrame(window_id, ReceiveOrThrow(window_id, "propose"), exchange);
  }
}

void ShardRuntime::GatherEventBatches(std::uint64_t window_id,
                                      WindowExchange& exchange) {
  while (!exchange.AllBatchesComplete(channel_->ProcessIndex())) {
    HandleFrame(window_id, ReceiveOrThrow(window_id, "event-batch"), exchange);
  }
}

}  // namespace dmfsgd::netsim
