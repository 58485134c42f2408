#include "netsim/shard_runtime.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
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

// The window protocol's frame type.  Higher layers using the same channel
// (the coordinator's result fold) must pick other types; the runtime parks
// frames it does not recognize for ShardRuntime::Receive.
constexpr std::uint8_t kFrameEventChunk = 2;

// Chunk budget: headroom for the header, then 28 bytes plus the payload per
// event; chunk 0 adds the vector, a count and 8 bytes per shard.
constexpr std::size_t kChunkHeadroom = 64;
constexpr std::size_t VectorBytes(std::size_t shards) { return 4 + 8 * shards; }

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

std::vector<std::byte> EncodeEventChunk(const EventChunk& chunk) {
  common::ByteWriter writer;
  writer.U8(kFrameEventChunk);
  writer.U64(chunk.window_id);
  writer.U32(chunk.index);
  writer.U8(chunk.last ? 1 : 0);
  if (chunk.index == 0) {
    writer.U32(static_cast<std::uint32_t>(chunk.next_mins.size()));
    for (const double t : chunk.next_mins) {
      writer.F64(t);
    }
  }
  writer.U32(static_cast<std::uint32_t>(chunk.events.size()));
  for (const ShardedEventQueue::RemoteEvent& event : chunk.events) {
    writer.U32(event.owner);
    writer.F64(event.time);
    writer.U32(event.lane);
    writer.U64(event.seq);
    writer.U32(static_cast<std::uint32_t>(event.payload.size()));
    writer.Bytes(event.payload);
  }
  return writer.Take();
}

EventChunk DecodeEventChunk(std::span<const std::byte> bytes) {
  common::ByteReader reader(bytes);
  EventChunk chunk;
  if (reader.U8() != kFrameEventChunk) {
    throw common::DecodeError("DecodeEventChunk: not an event chunk");
  }
  chunk.window_id = reader.U64();
  chunk.index = reader.U32();
  const std::uint8_t last = reader.U8();
  if (last > 1) {
    throw common::DecodeError("DecodeEventChunk: last flag is not 0 or 1");
  }
  chunk.last = last == 1;
  if (chunk.index == 0) {
    const std::uint32_t shards = reader.U32();
    for (std::uint32_t s = 0; s < shards; ++s) {
      chunk.next_mins.push_back(reader.F64());
    }
  }
  const std::uint32_t count = reader.U32();
  for (std::uint32_t e = 0; e < count; ++e) {
    ShardedEventQueue::RemoteEvent& event = chunk.events.emplace_back();
    event.owner = reader.U32();
    event.time = reader.F64();
    event.lane = reader.U32();
    event.seq = reader.U64();
    const std::span<const std::byte> payload = reader.Bytes(reader.U32());
    event.payload.assign(payload.begin(), payload.end());
  }
  if (!reader.AtEnd()) {
    throw common::DecodeError("DecodeEventChunk: trailing bytes");
  }
  return chunk;
}

ShardRuntime::ShardRuntime(ShardedEventQueue& queue, InterShardChannel& channel,
                           LookaheadMatrix lookaheads, RemoteEventDecoder decoder,
                           Options options)
    : queue_(&queue),
      channel_(&channel),
      lookaheads_(std::move(lookaheads)),
      decoder_(std::move(decoder)),
      options_(options) {
  // Written so NaN fails.  Past kMaxStallTimeoutS (+inf included) the
  // stall deadline's duration_cast and Flush's int milliseconds overflow:
  // the deadline lands in the past and a stall fires at the first poll.
  if (!(options_.stall_timeout_s > 0.0 &&
        options_.stall_timeout_s <= kMaxStallTimeoutS)) {
    throw std::invalid_argument(
        "ShardRuntime: stall_timeout_s must be positive and at most "
        "2147483.647 s (INT_MAX ms)");
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
  if (channel.ProcessCount() > 1 &&
      kChunkHeadroom + VectorBytes(queue.ShardCount()) >
          options_.max_frame_bytes) {
    throw std::invalid_argument(
        "ShardRuntime: the next-window vector of this many shards does not fit "
        "one frame of max_frame_bytes");
  }
  const auto [begin, end] = BlockRange(queue.ShardCount(), channel.ProcessCount(),
                                       channel.ProcessIndex());
  queue.SetOwnedShardRange(begin, end);
  frames_received_from_.resize(channel.ProcessCount(), 0);
}

std::uint64_t ShardRuntime::RunUntil(double until_s, common::ThreadPool& pool) {
  if (!(until_s >= queue_->Now())) {
    throw std::invalid_argument(
        "ShardRuntime::RunUntil: time in the past or NaN");
  }
  const bool distributed = channel_->ProcessCount() > 1;
  if (next_mins_.empty()) {
    // Before the first window every process holds the replicated
    // construction of every shard, so the local minima are the global ones.
    next_mins_ = queue_->ShardMinTimes();
  }
  std::uint64_t executed = 0;
  for (;;) {
    const double t_min =
        *std::min_element(next_mins_.begin(), next_mins_.end());
    if (!(t_min <= until_s)) {
      break;  // every process holds the same vector, so all agree to stop
    }
    std::vector<double> ends =
        ShardedEventQueue::ConservativeWindowEnds(next_mins_, lookaheads_);
    const double frontier =
        std::min(until_s, *std::min_element(ends.begin(), ends.end()));
    queue_->BeginWindow(std::move(ends));
    queue_->DrainOwnedShards(pool, until_s);
    executed += queue_->FinishWindow();
    next_mins_ = distributed ? ExchangeEventBatches() : queue_->ShardMinTimes();
    queue_->AdvanceNow(frontier);
    ++window_id_;
  }
  queue_->AdvanceNow(until_s);
  if (distributed) {
    // Every process agreed to stop, but on a lossy link a final chunk may
    // have been dropped, and a reliability decorator retransmits only inside
    // Send/Receive/Flush: returning now would strand the peer in its last
    // gather.  Bounded by the stall timeout: a live peer settles in a few
    // RTOs; against a dead one the caller was stalling anyway.
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
  return ReceiveOrThrow(phase);
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

std::vector<double> ShardRuntime::ExchangeEventBatches() {
  // This process's share of every shard's next minimum: its owned shards'
  // heads, and the earliest event it ships to each other shard (the heads
  // of those are stale replicas).  Bucketing maps every event to its
  // owner's process.
  const std::size_t processes = channel_->ProcessCount();
  std::vector<double> mins = queue_->ShardMinTimes();
  for (std::size_t s = 0; s < mins.size(); ++s) {
    mins[s] = queue_->IsOwnedShard(s) ? mins[s] : kInf;
  }
  std::vector<std::vector<ShardedEventQueue::RemoteEvent>> buckets(processes);
  for (ShardedEventQueue::RemoteEvent& event :
       CoalesceRemoteEvents(queue_->TakeRemoteEvents())) {
    const std::size_t shard = queue_->ShardOf(event.owner);
    mins[shard] = std::min(mins[shard], event.time);
    buckets[process_of_shard_[shard]].push_back(std::move(event));
  }
  // Each peer gets >= 1 chunk (an empty one doubles as the barrier), each
  // capped at the clamped max_frame_bytes budget.
  for (std::size_t p = 0; p < processes; ++p) {
    if (p == channel_->ProcessIndex()) {
      continue;
    }
    // Pre-partition into chunks by serialized size so every chunk can carry
    // its index and a last-chunk flag (UDP may reorder chunks in flight).
    // First-fit-decreasing: big records (merged reply envelopes) open
    // chunks, small ones fill the tails — order across and within chunks is
    // free because every event carries its own deterministic stamp, and the
    // packing itself is deterministic (stable sort, first-fit scan).  Chunk
    // 0's budget includes the vector: only a lone event may exceed it.
    std::vector<ShardedEventQueue::RemoteEvent>& ordered = buckets[p];
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const auto& a, const auto& b) {
                       return a.payload.size() > b.payload.size();
                     });
    std::vector<EventChunk> chunks(1);
    chunks[0].next_mins = mins;
    std::vector<std::size_t> chunk_bytes(
        1, kChunkHeadroom + VectorBytes(mins.size()));
    for (ShardedEventQueue::RemoteEvent& event : ordered) {
      const std::size_t bytes = 28 + event.payload.size();
      std::size_t slot = 0;
      while (slot < chunks.size() &&
             chunk_bytes[slot] + bytes > options_.max_frame_bytes) {
        ++slot;
      }
      if (slot == chunks.size()) {
        chunks.emplace_back().index = static_cast<std::uint32_t>(slot);
        chunk_bytes.push_back(kChunkHeadroom);
      }
      chunks[slot].events.push_back(std::move(event));
      chunk_bytes[slot] += bytes;
    }
    chunks.back().last = true;
    for (EventChunk& chunk : chunks) {
      chunk.window_id = window_id_;
      channel_->Send(p, EncodeEventChunk(chunk));
      ++frames_sent_;
    }
  }
  // Gather every peer's batch, whatever order the frames arrive in;
  // duplicate-safe via ChunkAssembler, since a duplicated datagram must not
  // inject its events twice.
  std::vector<ChunkAssembler> batches(processes);
  for (const InterShardFrame& frame : std::exchange(pending_, {})) {
    HandleFrame(frame, batches, mins);
  }
  for (std::size_t p = 0; p < processes; ++p) {
    while (p != channel_->ProcessIndex() && !batches[p].Complete()) {
      HandleFrame(ReceiveOrThrow("event-batch"), batches, mins);
    }
  }
  // Every owned shard's head must now equal the merged entry; a mismatch
  // means a peer's vector disagrees with the events it sent.
  const std::vector<double> heads = queue_->ShardMinTimes();
  for (std::size_t s = queue_->OwnedShardBegin(); s < queue_->OwnedShardEnd();
       ++s) {
    if (heads[s] != mins[s]) {
      throw common::DecodeError(
          "ShardRuntime: a peer's next-window vector disagrees with the events "
          "it sent");
    }
  }
  return mins;
}

InterShardFrame ShardRuntime::ReceiveOrThrow(const char* phase) {
  const auto stall_timeout =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.stall_timeout_s));
  auto deadline = std::chrono::steady_clock::now() + stall_timeout;
  std::uint64_t liveness = channel_->LivenessEpoch();
  for (;;) {
    auto frame = channel_->Receive(kReceivePollMs);
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
      throw StallError(window_id_, phase, frames_received_from_,
                       channel_->Diagnostics());
    }
  }
}

void ShardRuntime::HandleFrame(const InterShardFrame& frame,
                               std::vector<ChunkAssembler>& batches,
                               std::vector<double>& mins) {
  if (common::ByteReader(frame.bytes).U8() != kFrameEventChunk) {
    leftover_.push_back(frame);
    return;
  }
  EventChunk chunk = DecodeEventChunk(frame.bytes);
  if (chunk.window_id < window_id_) {
    return;  // stale duplicate; the window it belongs to already closed
  }
  if (chunk.window_id > window_id_ + 1) {
    throw common::DecodeError(
        "ShardRuntime: peer is ahead by more than the lock-step protocol "
        "allows — window desynchronization");
  }
  if (chunk.window_id == window_id_ + 1) {
    // The peer finished this window's gather and sent its next batch while
    // this process still waits on another peer or a retransmission.
    pending_.push_back(frame);
    return;
  }
  // Every check comes before the first event is injected.
  if (chunk.index == 0 &&
      (chunk.next_mins.size() != mins.size() ||
       std::any_of(chunk.next_mins.begin(), chunk.next_mins.end(),
                   [](double t) { return std::isnan(t); }))) {
    throw common::DecodeError(
        "ShardRuntime: next-window vector of the wrong length or with a NaN");
  }
  for (const ShardedEventQueue::RemoteEvent& event : chunk.events) {
    if (event.owner >= queue_->OwnerCount() ||
        !queue_->IsOwnedShard(queue_->ShardOf(event.owner)) ||
        event.lane >= queue_->ShardCount() || !std::isfinite(event.time)) {
      throw common::DecodeError(
          "ShardRuntime: peer sent an event this process does not own, from "
          "a lane that is not a shard, or at a time that is not finite");
    }
  }
  if (!batches[frame.from_process].Mark(chunk.index, chunk.last)) {
    return;  // duplicated datagram; its events are already enqueued
  }
  for (std::size_t s = 0; s < chunk.next_mins.size(); ++s) {
    mins[s] = std::min(mins[s], chunk.next_mins[s]);
  }
  for (ShardedEventQueue::RemoteEvent& event : chunk.events) {
    queue_->InjectRemote(event.owner, event.time, event.lane, event.seq,
                         decoder_(event.owner, std::move(event.payload)));
  }
}

}  // namespace dmfsgd::netsim
