// A DMFSGD node speaking the wire protocol over a real UDP socket.
//
// This is what a deployed agent looks like: a DmfsgdNode (two length-r
// rows), a UdpDeliveryChannel for framing (encode/decode, socket, learned
// return routes), a table of neighbor node-ids, and a measurement callback
// (in production: run ping / send a UDP train; here: supplied by the
// caller, typically backed by a netsim substrate).  The peer is the
// node-local half of the protocol — the same exchange reactions the
// deployment engine executes globally, driven through the same
// DeliveryChannel interface the simulators use.
//
// The peer is single-threaded and non-blocking: call Probe() to launch an
// exchange toward a random neighbor, and Pump() regularly to service
// incoming datagrams (answering probe requests from others and consuming
// replies to our own probes).  Malformed datagrams are counted and dropped
// — a corrupt packet can never crash the node or poison its coordinates
// (core/wire.hpp length/version checks; rank checks in DmfsgdNode).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "core/node.hpp"
#include "core/protocol_config.hpp"
#include "transport/udp_channel.hpp"

namespace dmfsgd::transport {

/// Produces the training measurement for a directed pair: a ±1 class label
/// in classification mode or a τ-normalized quantity in regression mode.
using MeasurementFn =
    std::function<double(core::NodeId prober, core::NodeId target)>;

/// The UDP peer's config: the shared protocol knobs (rank, η/λ/loss, τ,
/// seed, probe_burst, coalesce_delivery — see core/protocol_config.hpp;
/// validated by the one shared ValidateProtocolConfig) plus the node-local
/// knobs below.
///
/// Peer semantics of the inherited knobs: τ is carried in ABW probe
/// requests (the probing rate); probe_burst is the probes launched per
/// Probe() call (targets picked independently with replacement — a burst
/// measures some neighbors repeatedly, legitimate repeated samples of the
/// same path); coalesce_delivery packs a burst's same-target probes into
/// one datagram and answers a request batch with one packed reply batch
/// (DESIGN.md §13).  Every received message takes its own SGD step, in
/// envelope order.
struct UdpPeerConfig : core::ProtocolConfig {
  /// A standalone peer defaults τ to 1 (a deployment overrides it); the
  /// simulators inherit ProtocolConfig's unset 0 and force callers to pick.
  UdpPeerConfig() { tau = 1.0; }

  core::NodeId id = 0;
  /// True for symmetric sender-measured metrics (Algorithm 1 / RTT);
  /// false for target-measured metrics (Algorithm 2 / ABW).
  bool symmetric_metric = true;
};

class UdpDmfsgdPeer {
 public:
  /// Binds an ephemeral loopback port.  `measure` must outlive the peer.
  UdpDmfsgdPeer(const UdpPeerConfig& config, MeasurementFn measure);

  [[nodiscard]] std::uint16_t Port() const { return channel_.Port(config_.id); }
  [[nodiscard]] core::NodeId Id() const noexcept { return config_.id; }

  /// Registers a neighbor's contact address.
  void AddNeighbor(core::NodeId id, std::uint16_t port);
  [[nodiscard]] std::size_t NeighborCount() const noexcept {
    return neighbors_.size();
  }

  /// Sends one probe to a uniformly random neighbor (no-op without
  /// neighbors).  The exchange completes later, through Pump().
  void Probe();

  /// Services up to `max_datagrams` pending datagrams without blocking.
  /// Returns the number handled.
  std::size_t Pump(std::size_t max_datagrams = 64);

  /// x̂ toward a remote node whose v row is known (for serving predictions).
  [[nodiscard]] double Predict(std::span<const double> v_remote) const {
    return node_.Predict(v_remote);
  }
  [[nodiscard]] const core::DmfsgdNode& node() const noexcept { return node_; }

  [[nodiscard]] std::size_t MeasurementsApplied() const noexcept {
    return measurements_applied_;
  }
  /// Wire-level rejects (channel) plus semantic rejects (rank mismatches
  /// from foreign deployments).
  [[nodiscard]] std::size_t MalformedDatagrams() const noexcept {
    return channel_.MalformedDatagrams() + rejected_messages_;
  }
  /// Datagrams this peer's socket shipped — the coalescing win shows as
  /// fewer datagrams per applied measurement.
  [[nodiscard]] std::size_t DatagramsSent() const noexcept {
    return channel_.DatagramsSent();
  }

 private:
  void HandleBatch(const core::MessageBatch& batch);
  /// Applies one message.  Replies go out at once, or, with coalescing on,
  /// join `replies`, which HandleBatch ships per prober after the batch.
  void Handle(core::NodeId from, const core::ProtocolMessage& message,
              std::vector<core::MessageBatch>& replies);
  void Reply(core::NodeId to, core::ProtocolMessage message,
             std::vector<core::MessageBatch>& replies);

  UdpPeerConfig config_;
  MeasurementFn measure_;
  common::Rng rng_;
  core::DmfsgdNode node_;
  UdpDeliveryChannel channel_;
  std::vector<core::NodeId> neighbors_;
  std::size_t measurements_applied_ = 0;
  std::size_t rejected_messages_ = 0;
};

}  // namespace dmfsgd::transport
