// DeliveryChannel over real UDP sockets.
//
// The same core::DeliveryChannel seam the simulators plug into, backed by
// loopback datagrams: Send() encodes a protocol message through the wire
// codec and ships it from the sender's socket to the receiver's port; Pump()
// drains pending datagrams, decodes them, and hands them to the bound sink.
// This lets the full deployment engine — membership, strategies, churn, the
// Algorithm 1/2 state machines — run unchanged over an actual network stack
// (tests do exactly that), and is the framing layer UdpDmfsgdPeer builds on.
//
// Return routes are learned: every incoming datagram maps its embedded
// sender id to the observed source port, so a node can answer probers it
// was never introduced to.  Malformed datagrams (truncated, bad version,
// garbage lengths) are counted and dropped — a corrupt packet can never
// crash the process or poison coordinates (core/wire.hpp checks).
#pragma once

#include <cstdint>
#include <map>

#include "core/delivery.hpp"
#include "transport/udp.hpp"

namespace dmfsgd::transport {

class UdpDeliveryChannel final : public core::DeliveryChannel {
 public:
  /// Opens a loopback socket for a local node and returns its bound port.
  /// Throws std::invalid_argument if the id is already registered.
  std::uint16_t Register(core::NodeId id);

  /// The bound port of a registered local node; throws std::out_of_range.
  [[nodiscard]] std::uint16_t Port(core::NodeId id) const;

  /// Registers (or updates) the contact port of a node — typically a remote
  /// peer in another process; local nodes are contactable automatically.
  void AddContact(core::NodeId id, std::uint16_t port);
  [[nodiscard]] bool HasContact(core::NodeId id) const {
    return contact_.contains(id);
  }

  /// Encodes and ships one message.  Throws std::invalid_argument if `from`
  /// is not a registered local node and std::runtime_error if `to` has no
  /// known contact.
  void Send(core::NodeId from, core::NodeId to,
            core::ProtocolMessage message) override;

  /// Ships an envelope as packed batch-frame datagrams (DESIGN.md §13):
  /// messages are greedily packed until kMaxBatchDatagramBytes, so a burst
  /// of replies to one destination costs one datagram instead of one per
  /// message.  One-item envelopes go out in the plain single-message format.
  /// Every datagram of a split batch leaves from the *first* item's sender
  /// socket (a batch shares one wire hop); per-item sender ids stay intact
  /// inside the frames.  Throws like Send.
  void SendBatch(core::MessageBatch batch);

  /// Payload budget per batched datagram — under the 64 KiB UDP limit with
  /// headroom, and the split bound of SendBatch.
  static constexpr std::size_t kMaxBatchDatagramBytes = 60000;

  [[nodiscard]] const char* Name() const noexcept override { return "udp"; }

  /// Services up to `max_datagrams` pending datagrams across all local
  /// sockets without blocking, delivering decoded messages to the sink.
  /// Returns the number of datagrams handled (malformed ones included).
  std::size_t Pump(std::size_t max_datagrams = 64);

  [[nodiscard]] std::size_t MalformedDatagrams() const noexcept {
    return malformed_datagrams_;
  }
  [[nodiscard]] std::size_t LocalNodeCount() const noexcept {
    return sockets_.size();
  }
  /// Datagrams shipped (single messages and packed batches both count 1 per
  /// wire send) — the quantity batching reduces.
  [[nodiscard]] std::size_t DatagramsSent() const noexcept {
    return datagrams_sent_;
  }
  /// Messages carried by those datagrams (>= DatagramsSent(); the gap is
  /// the packing win).
  [[nodiscard]] std::size_t MessagesSent() const noexcept {
    return messages_sent_;
  }

 private:
  void SendFrame(UdpSocket& socket, std::span<const std::byte> frame,
                 std::uint16_t port, std::size_t messages);

  std::map<core::NodeId, UdpSocket> sockets_;       ///< local nodes
  std::map<core::NodeId, std::uint16_t> contact_;   ///< id -> port (all known)
  std::size_t malformed_datagrams_ = 0;
  std::size_t datagrams_sent_ = 0;
  std::size_t messages_sent_ = 0;
};

}  // namespace dmfsgd::transport
