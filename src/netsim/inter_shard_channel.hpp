// Inter-shard transport for multi-process async simulation (DESIGN.md §12).
//
// The owner partition of netsim::ShardedEventQueue is the natural seam for
// distributing the async simulation across processes: each process drains a
// contiguous shard range, and everything that crosses the partition —
// window proposals, barrier-carrying event batches, result folds — travels
// as small self-contained byte frames between processes.  InterShardChannel
// is that frame transport, deliberately dumber than core::DeliveryChannel:
// it moves opaque frames between *processes*, knows nothing about protocol
// messages or event stamps (that is netsim::ShardRuntime's job), and never
// consumes randomness.
//
// Two backends:
//
//   LoopbackInterShardChannel  in-process queues through a shared hub; lets
//                              tests and benches run N "processes" as N
//                              threads with zero sockets.
//   UdpInterShardChannel       real datagrams over transport::UdpSocket on
//                              the loopback interface — the backend the
//                              forked multiprocess example and test use.
//
// Frames are limited to kMaxFrameBytes so every frame fits one UDP datagram;
// ShardRuntime chunks larger payloads (event batches, result folds) itself.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "transport/udp.hpp"

namespace dmfsgd::netsim {

/// One received frame: opaque bytes plus the sending process's index.
struct InterShardFrame {
  std::size_t from_process = 0;
  std::vector<std::byte> bytes;
};

/// Largest frame any backend must carry: one UDP datagram minus headroom for
/// the channel's own process-id prefix.
inline constexpr std::size_t kMaxFrameBytes = 60000;

/// Per-peer transport counters a channel can report for stall diagnostics
/// (netsim::StallError) and the multiprocess example's summary line.  All
/// fields are zero for channels that do not track the quantity.
struct PeerChannelStats {
  std::uint64_t frames_sent = 0;        ///< data frames shipped to this peer
  std::uint64_t frames_received = 0;    ///< data frames accepted from this peer
  std::uint64_t retransmits = 0;        ///< resends of unacked frames
  std::uint64_t duplicates_suppressed = 0;  ///< received frames already seen
  std::uint64_t unacked_frames = 0;     ///< still awaiting this peer's ack
  /// Seconds since this peer was last heard from (any frame or ack), or a
  /// negative value when it has not been heard from at all.
  double seconds_since_heard = -1.0;
};

/// Snapshot of a channel's transport-level health.  The base implementation
/// returns empty stats; decorators and the UDP backend fill in what they
/// track.
struct ChannelDiagnostics {
  std::uint64_t dropped_datagrams = 0;  ///< malformed datagrams discarded
  std::uint64_t stray_datagrams = 0;    ///< datagrams from unknown senders
  std::vector<PeerChannelStats> peers;  ///< indexed by process, self row zero
};

/// Moves opaque byte frames between the processes of one distributed drain.
/// Frames from one sender to one receiver arrive in order on the loopback
/// backend and effectively in order on loopback UDP; ShardRuntime's window
/// protocol additionally tolerates reordering across window boundaries and
/// duplication.  Frame *loss* is handled one layer up: loopback queues
/// never drop and the UDP backend sizes its receive buffer so overflow
/// drops are unlikely, but a genuinely lossy link (multi-host, injected
/// faults) needs the ReliableInterShardChannel decorator
/// (netsim/reliable_channel.hpp, DESIGN.md §15), which adds per-peer-pair
/// sequence numbers, cumulative acks and timeout-driven retransmission so
/// a lost frame is retransmitted instead of surfacing as the runtime's
/// stall timeout.
class InterShardChannel {
 public:
  virtual ~InterShardChannel() = default;

  /// Processes participating in the drain (>= 1).
  [[nodiscard]] virtual std::size_t ProcessCount() const noexcept = 0;

  /// This endpoint's process index in [0, ProcessCount()).
  [[nodiscard]] virtual std::size_t ProcessIndex() const noexcept = 0;

  /// Ships one frame to `to_process`.  Requires to_process < ProcessCount(),
  /// to_process != ProcessIndex(), and a non-empty frame of at most
  /// MaxFrameBytes().
  virtual void Send(std::size_t to_process, std::span<const std::byte> frame) = 0;

  /// Receives one frame, waiting up to `timeout_ms` (0 = just poll).
  /// Returns std::nullopt on timeout.
  [[nodiscard]] virtual std::optional<InterShardFrame> Receive(int timeout_ms) = 0;

  [[nodiscard]] virtual const char* Name() const noexcept = 0;

  /// Largest frame Send accepts.  Backends carry kMaxFrameBytes; decorators
  /// that add their own header (the reliability layer) advertise less, and
  /// layers that size frames (ShardRuntime's chunking, the result fold)
  /// must budget against this, not the constant.
  [[nodiscard]] virtual std::size_t MaxFrameBytes() const noexcept {
    return kMaxFrameBytes;
  }

  /// Transport-health snapshot for stall diagnostics.  The base returns an
  /// empty snapshot (peers sized to ProcessCount(), all zero).
  [[nodiscard]] virtual ChannelDiagnostics Diagnostics() const {
    ChannelDiagnostics diagnostics;
    diagnostics.peers.resize(ProcessCount());
    return diagnostics;
  }

  /// Drives the channel until every frame this endpoint sent is delivered
  /// as far as the channel can tell, or `timeout_ms` elapses.  Plain
  /// backends have nothing to wait for and return true immediately; the
  /// reliability decorator keeps retransmitting and acking until its unacked
  /// buffers drain (returns false on timeout).  Call before abandoning a
  /// channel whose timers are serviced inside Send/Receive — a process that
  /// exits right after its last Send would otherwise strand frames that the
  /// network dropped.  Frames that arrive while flushing are buffered for
  /// the next Receive, never lost.
  virtual bool Flush(int timeout_ms) {
    (void)timeout_ms;
    return true;
  }

  /// Monotonic counter that advances whenever the channel observes forward
  /// progress that a caller's Receive cannot see directly — for the
  /// reliability layer, a peer's cumulative ack advancing (the peer is alive
  /// and draining retransmissions even if no data frame surfaced yet).
  /// Stall detection treats an advance as "peer alive" and re-arms its
  /// timeout, so retransmission and stall detection compose instead of
  /// racing.  Plain backends never advance it.
  [[nodiscard]] virtual std::uint64_t LivenessEpoch() const noexcept {
    return 0;
  }

 protected:
  /// Shared argument validation for Send implementations.
  void RequireSendable(std::size_t to_process,
                       std::span<const std::byte> frame) const;
};

// ------------------------------------------------------------------------
// Loopback backend

/// Shared mailbox hub for N in-process endpoints (one per simulated
/// process).  Thread-safe; endpoints must not outlive the hub.
class LoopbackInterShardHub {
 public:
  explicit LoopbackInterShardHub(std::size_t process_count);

  [[nodiscard]] std::size_t ProcessCount() const noexcept {
    return mailboxes_.size();
  }

  void Post(std::size_t from, std::size_t to, std::span<const std::byte> frame);
  [[nodiscard]] std::optional<InterShardFrame> Take(std::size_t process,
                                                    int timeout_ms);

 private:
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<InterShardFrame> frames;
  };
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
};

class LoopbackInterShardChannel final : public InterShardChannel {
 public:
  /// `hub` must outlive this endpoint.  Requires index < hub.ProcessCount().
  LoopbackInterShardChannel(LoopbackInterShardHub& hub, std::size_t index);

  [[nodiscard]] std::size_t ProcessCount() const noexcept override {
    return hub_->ProcessCount();
  }
  [[nodiscard]] std::size_t ProcessIndex() const noexcept override {
    return index_;
  }
  void Send(std::size_t to_process, std::span<const std::byte> frame) override;
  [[nodiscard]] std::optional<InterShardFrame> Receive(int timeout_ms) override;
  [[nodiscard]] const char* Name() const noexcept override { return "loopback"; }

 private:
  LoopbackInterShardHub* hub_;
  std::size_t index_;
};

// ------------------------------------------------------------------------
// UDP backend

/// Frame transport over a real UDP socket on 127.0.0.1.  Two discovery
/// modes: bind all sockets before a fork (children inherit them, so
/// `ports[p]` is known everywhere), or — for processes with no common
/// ancestor — exchange ports through a netsim::PortRegistry rendezvous
/// file (port_registry.hpp) and construct the channel from the exchanged
/// vector.  Each datagram carries a 4-byte little-endian sender-process
/// prefix (common/bytes.hpp); datagrams from unknown ports or with
/// malformed prefixes are counted (StrayDatagrams/DroppedDatagrams) and
/// dropped, never fatal.
class UdpInterShardChannel final : public InterShardChannel {
 public:
  /// Requires ports.size() >= 1, process_index < ports.size(), and `socket`
  /// bound to ports[process_index].
  UdpInterShardChannel(transport::UdpSocket socket, std::size_t process_index,
                       std::vector<std::uint16_t> ports);

  [[nodiscard]] std::size_t ProcessCount() const noexcept override {
    return ports_.size();
  }
  [[nodiscard]] std::size_t ProcessIndex() const noexcept override {
    return index_;
  }
  void Send(std::size_t to_process, std::span<const std::byte> frame) override;
  [[nodiscard]] std::optional<InterShardFrame> Receive(int timeout_ms) override;
  [[nodiscard]] const char* Name() const noexcept override { return "udp"; }
  [[nodiscard]] ChannelDiagnostics Diagnostics() const override;

  /// Datagrams discarded because they were malformed (too short to carry
  /// the sender prefix, or a self-addressed prefix).
  [[nodiscard]] std::uint64_t DroppedDatagrams() const noexcept {
    return dropped_datagrams_;
  }
  /// Datagrams discarded because the claimed sender did not match the port
  /// table (an unknown process index, or a spoofed/unknown source port).
  [[nodiscard]] std::uint64_t StrayDatagrams() const noexcept {
    return stray_datagrams_;
  }

 private:
  transport::UdpSocket socket_;
  std::size_t index_;
  std::vector<std::uint16_t> ports_;
  std::uint64_t dropped_datagrams_ = 0;
  std::uint64_t stray_datagrams_ = 0;
};

// ------------------------------------------------------------------------
// Chunked transfers

/// Reassembly tracker for one sender's chunked transfer (event batches,
/// result folds): duplicate- and reorder-tolerant, and loud — an index that
/// contradicts an established final chunk is a protocol error, not a
/// silent stall.  Chunks carry (index, is_last); the final chunk reveals
/// the total.  The index comes straight from peer bytes, so any u32 is
/// accepted without wrapping the total, and memory grows with the chunks
/// received, never with the largest index claimed.
class ChunkAssembler {
 public:
  /// Marks chunk `index` as received; `is_last` establishes the chunk
  /// count.  Returns false for a duplicate (the caller must then skip the
  /// chunk's payload — it was already consumed).  Throws std::logic_error
  /// on an index at or beyond an established final chunk, or a second,
  /// contradicting final chunk.
  bool Mark(std::uint32_t index, bool is_last);

  /// Every chunk up to the final one arrived.
  [[nodiscard]] bool Complete() const noexcept {
    return expected_ != kUnknown && seen_.size() == expected_;
  }

 private:
  /// The chunk count is index + 1 in 64 bits: 2^32 for the largest index,
  /// so no index collides with this sentinel.
  static constexpr std::uint64_t kUnknown = ~std::uint64_t{0};
  std::uint64_t expected_ = kUnknown;
  std::set<std::uint32_t> seen_;
};

}  // namespace dmfsgd::netsim
