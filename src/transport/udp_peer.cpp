#include "transport/udp_peer.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dmfsgd::transport {

namespace {

/// Throwing pass-through so the shared protocol knobs are validated (by the
/// one ValidateProtocolConfig) before any member that depends on them is
/// built.
const UdpPeerConfig& RequirePeerConfig(const UdpPeerConfig& config) {
  core::ValidateProtocolConfig(config, "UdpDmfsgdPeer");
  return config;
}

}  // namespace

UdpDmfsgdPeer::UdpDmfsgdPeer(const UdpPeerConfig& config, MeasurementFn measure)
    : config_(RequirePeerConfig(config)),
      measure_(std::move(measure)),
      rng_(config.seed),
      node_(config.id, config.rank, rng_) {
  if (!measure_) {
    throw std::invalid_argument("UdpDmfsgdPeer: measurement callback required");
  }
  (void)channel_.Register(config_.id);
  channel_.BindSink(
      [this](const core::MessageBatch& batch) { HandleBatch(batch); });
}

void UdpDmfsgdPeer::AddNeighbor(core::NodeId id, std::uint16_t port) {
  if (id == config_.id) {
    throw std::invalid_argument("UdpDmfsgdPeer::AddNeighbor: cannot neighbor self");
  }
  neighbors_.push_back(id);
  channel_.AddContact(id, port);
}

void UdpDmfsgdPeer::Probe() {
  if (neighbors_.empty()) {
    return;
  }
  auto pick = [&] {
    return neighbors_[rng_.UniformInt(
        static_cast<std::uint64_t>(neighbors_.size()))];
  };
  auto request = [&]() -> core::ProtocolMessage {
    if (config_.symmetric_metric) {
      return core::RttProbeRequest{config_.id};
    }
    return core::AbwProbeRequest{config_.id, node_.UCopy(), config_.tau};
  };
  if (!config_.coalesce_delivery) {
    for (std::size_t b = 0; b < config_.probe_burst; ++b) {
      channel_.Send(config_.id, pick(), request());
    }
    return;
  }
  // Coalesced burst: group the picks by target (first-pick order) so each
  // target gets one packed request datagram — and answers with one packed
  // reply datagram.
  std::vector<std::pair<core::NodeId, std::size_t>> grouped;
  for (std::size_t b = 0; b < config_.probe_burst; ++b) {
    const core::NodeId target = pick();
    bool found = false;
    for (auto& [id, count] : grouped) {
      if (id == target) {
        ++count;
        found = true;
        break;
      }
    }
    if (!found) {
      grouped.emplace_back(target, 1);
    }
  }
  for (const auto& [target, count] : grouped) {
    core::MessageBatch batch;
    batch.to = target;
    for (std::size_t c = 0; c < count; ++c) {
      batch.items.push_back(core::BatchItem{config_.id, request()});
    }
    channel_.SendBatch(std::move(batch));
  }
}

std::size_t UdpDmfsgdPeer::Pump(std::size_t max_datagrams) {
  return channel_.Pump(max_datagrams);
}

void UdpDmfsgdPeer::HandleBatch(const core::MessageBatch& batch) {
  // Every item takes its own per-message step, in envelope order.  With
  // coalescing on, replies are held back and each prober's go out as one
  // packed envelope after the whole batch (DESIGN.md §13).
  std::vector<core::MessageBatch> replies;
  for (const core::BatchItem& item : batch.items) {
    Handle(item.from, item.message, replies);
  }
  for (core::MessageBatch& reply : replies) {
    channel_.SendBatch(std::move(reply));
  }
}

void UdpDmfsgdPeer::Reply(core::NodeId to, core::ProtocolMessage message,
                          std::vector<core::MessageBatch>& replies) {
  if (!config_.coalesce_delivery) {
    channel_.Send(config_.id, to, std::move(message));
    return;
  }
  auto existing = std::find_if(
      replies.begin(), replies.end(),
      [to](const core::MessageBatch& reply) { return reply.to == to; });
  if (existing == replies.end()) {
    existing = replies.insert(replies.end(), core::MessageBatch{});
    existing->to = to;
  }
  existing->items.push_back(core::BatchItem{config_.id, std::move(message)});
}

void UdpDmfsgdPeer::Handle(core::NodeId from, const core::ProtocolMessage& message,
                           std::vector<core::MessageBatch>& replies) {
  // A hostile datagram that decodes but doesn't fit this deployment (e.g. a
  // foreign rank) must never take the node down: semantic rejects are
  // counted and the message dropped.
  try {
    std::visit(
        [&](const auto& typed) {
          using T = std::decay_t<decltype(typed)>;
          if constexpr (std::is_same_v<T, core::RttProbeRequest>) {
            Reply(from,
                  core::RttProbeReply{config_.id, node_.UCopy(), node_.VCopy()},
                  replies);
          } else if constexpr (std::is_same_v<T, core::RttProbeReply>) {
            // Algorithm 1: the prober measures x_ij itself (in a real agent
            // the request/reply timing *is* the measurement; here the
            // callback supplies it).
            const double x = measure_(config_.id, typed.target);
            node_.RttUpdate(x, typed.u, typed.v, config_.params);
            ++measurements_applied_;
          } else if constexpr (std::is_same_v<T, core::AbwProbeRequest>) {
            // Algorithm 2, target side: infer x_ij, reply with the
            // pre-update v_j (step 3 sends before step 4 updates).
            const double x = measure_(typed.prober, config_.id);
            Reply(from, core::AbwProbeReply{config_.id, x, node_.VCopy()},
                  replies);
            node_.AbwTargetUpdate(x, typed.u, config_.params);
            ++measurements_applied_;
          } else {
            node_.AbwProberUpdate(typed.measurement, typed.v, config_.params);
          }
        },
        message);
  } catch (const std::invalid_argument&) {
    ++rejected_messages_;
  }
}

}  // namespace dmfsgd::transport
