#include "netsim/inter_shard_channel.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "common/bytes.hpp"

namespace dmfsgd::netsim {

void InterShardChannel::RequireSendable(std::size_t to_process,
                                        std::span<const std::byte> frame) const {
  if (to_process >= ProcessCount()) {
    throw std::invalid_argument("InterShardChannel::Send: bad process index");
  }
  if (to_process == ProcessIndex()) {
    throw std::invalid_argument("InterShardChannel::Send: self-send");
  }
  if (frame.empty()) {
    throw std::invalid_argument("InterShardChannel::Send: empty frame");
  }
  if (frame.size() > MaxFrameBytes()) {
    throw std::invalid_argument(
        "InterShardChannel::Send: frame exceeds MaxFrameBytes() — chunk it");
  }
}

// ------------------------------------------------------------------------
// Loopback backend

LoopbackInterShardHub::LoopbackInterShardHub(std::size_t process_count) {
  if (process_count == 0) {
    throw std::invalid_argument("LoopbackInterShardHub: process_count must be > 0");
  }
  mailboxes_.reserve(process_count);
  for (std::size_t p = 0; p < process_count; ++p) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

void LoopbackInterShardHub::Post(std::size_t from, std::size_t to,
                                 std::span<const std::byte> frame) {
  Mailbox& mailbox = *mailboxes_.at(to);
  {
    const std::lock_guard<std::mutex> lock(mailbox.mutex);
    mailbox.frames.push_back(
        InterShardFrame{from, std::vector<std::byte>(frame.begin(), frame.end())});
  }
  mailbox.ready.notify_one();
}

std::optional<InterShardFrame> LoopbackInterShardHub::Take(std::size_t process,
                                                           int timeout_ms) {
  Mailbox& mailbox = *mailboxes_.at(process);
  std::unique_lock<std::mutex> lock(mailbox.mutex);
  if (!mailbox.ready.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                              [&] { return !mailbox.frames.empty(); })) {
    return std::nullopt;
  }
  InterShardFrame frame = std::move(mailbox.frames.front());
  mailbox.frames.pop_front();
  return frame;
}

LoopbackInterShardChannel::LoopbackInterShardChannel(LoopbackInterShardHub& hub,
                                                     std::size_t index)
    : hub_(&hub), index_(index) {
  if (index >= hub.ProcessCount()) {
    throw std::invalid_argument("LoopbackInterShardChannel: bad process index");
  }
}

void LoopbackInterShardChannel::Send(std::size_t to_process,
                                     std::span<const std::byte> frame) {
  RequireSendable(to_process, frame);
  hub_->Post(index_, to_process, frame);
}

std::optional<InterShardFrame> LoopbackInterShardChannel::Receive(
    int timeout_ms) {
  return hub_->Take(index_, timeout_ms);
}

// ------------------------------------------------------------------------
// UDP backend

UdpInterShardChannel::UdpInterShardChannel(transport::UdpSocket socket,
                                           std::size_t process_index,
                                           std::vector<std::uint16_t> ports)
    : socket_(std::move(socket)), index_(process_index), ports_(std::move(ports)) {
  if (ports_.empty() || index_ >= ports_.size()) {
    throw std::invalid_argument("UdpInterShardChannel: bad process index");
  }
  if (socket_.Port() != ports_[index_]) {
    throw std::invalid_argument(
        "UdpInterShardChannel: socket is not bound to this process's port");
  }
  // Window barriers arrive in bursts (every peer's chunks at once); a
  // roomy receive buffer makes loopback drops from overflow unlikely.
  (void)socket_.SetReceiveBufferBytes(4 * 1024 * 1024);
}

void UdpInterShardChannel::Send(std::size_t to_process,
                                std::span<const std::byte> frame) {
  RequireSendable(to_process, frame);
  common::ByteWriter datagram(sizeof(std::uint32_t) + frame.size());
  datagram.U32(static_cast<std::uint32_t>(index_));
  datagram.Bytes(frame);
  socket_.SendTo(datagram.Take(), ports_[to_process]);
}

std::optional<InterShardFrame> UdpInterShardChannel::Receive(int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    auto datagram = socket_.Receive(timeout_ms);
    if (!datagram.has_value()) {
      return std::nullopt;
    }
    // Malformed or stray datagrams (too short, unknown claimed sender, a
    // sender port that doesn't match the claimed process) are counted and
    // dropped, not fatal: UDP delivers whatever was addressed to the port,
    // and the counters surface in ShardRuntime's stall diagnostics.
    if (datagram->payload.size() <= sizeof(std::uint32_t)) {
      ++dropped_datagrams_;
    } else {
      common::ByteReader reader(datagram->payload);
      const std::uint32_t from = reader.U32();
      if (from >= ports_.size() || ports_[from] != datagram->sender_port) {
        ++stray_datagrams_;
      } else if (from == index_) {
        ++dropped_datagrams_;
      } else {
        const std::span<const std::byte> frame =
            reader.Bytes(datagram->payload.size() - sizeof(std::uint32_t));
        return InterShardFrame{from,
                               std::vector<std::byte>(frame.begin(), frame.end())};
      }
    }
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      return std::nullopt;
    }
    timeout_ms = static_cast<int>(remaining.count());
  }
}

ChannelDiagnostics UdpInterShardChannel::Diagnostics() const {
  ChannelDiagnostics diagnostics;
  diagnostics.dropped_datagrams = dropped_datagrams_;
  diagnostics.stray_datagrams = stray_datagrams_;
  diagnostics.peers.resize(ports_.size());
  return diagnostics;
}

// ------------------------------------------------------------------------
// Chunked transfers

bool ChunkAssembler::Mark(std::uint32_t index, bool is_last) {
  const std::uint64_t count = std::uint64_t{index} + 1;
  if (expected_ != kUnknown &&
      (count > expected_ || (is_last && count != expected_))) {
    throw std::logic_error(
        "ChunkAssembler: chunk index contradicts the established final chunk");
  }
  if (is_last) {
    if (!seen_.empty() && *seen_.rbegin() > index) {
      throw std::logic_error(
          "ChunkAssembler: chunks received beyond the final chunk");
    }
    expected_ = count;
  }
  return seen_.insert(index).second;
}

}  // namespace dmfsgd::netsim
