#include "netsim/fault_channel.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace dmfsgd::netsim {

namespace {

/// Hold window for reordered frames: long enough that the next frame toward
/// the same peer usually overtakes first, short enough that a pure-reorder
/// stack (no reliable layer) cannot wedge the lock-step barrier.
constexpr std::chrono::milliseconds kReorderFlush{5};

void RequireRate(double rate, const char* name) {
  // Written so NaN fails: a NaN rate would silently act as 0.
  if (!(rate >= 0.0 && rate <= 1.0)) {
    throw std::invalid_argument(std::string("FaultSpec: ") + name +
                                " must be in [0, 1]");
  }
}

void RequireSpec(const FaultSpec& spec) {
  RequireRate(spec.drop_rate, "drop_rate");
  RequireRate(spec.duplicate_rate, "duplicate_rate");
  RequireRate(spec.reorder_rate, "reorder_rate");
}

}  // namespace

FaultInjectingInterShardChannel::FaultInjectingInterShardChannel(
    InterShardChannel& inner, FaultChannelOptions options)
    : inner_(&inner), options_(options) {
  RequireSpec(options_.outbound);
  RequireSpec(options_.inbound);
  // One decorrelated stream per direction so each (peer, ordinal) pair maps
  // to the same fault decision regardless of interleaving with other peers.
  common::Rng root(options_.seed);
  out_streams_.reserve(inner_->ProcessCount());
  in_streams_.reserve(inner_->ProcessCount());
  for (std::size_t p = 0; p < inner_->ProcessCount(); ++p) {
    out_streams_.push_back(root.Split());
    in_streams_.push_back(root.Split());
  }
}

FaultInjectingInterShardChannel::Fault FaultInjectingInterShardChannel::Draw(
    common::Rng& rng, const FaultSpec& spec) {
  // One draw per frame keeps the stream aligned with the frame ordinal: the
  // same frame number always sees the same uniform value for a given seed.
  const double roll = rng.Uniform();
  double edge = spec.drop_rate;
  if (roll < edge) {
    return Fault::kDrop;
  }
  edge += spec.duplicate_rate;
  if (roll < edge) {
    return Fault::kDuplicate;
  }
  edge += spec.reorder_rate;
  if (roll < edge) {
    return Fault::kReorder;
  }
  return Fault::kNone;
}

void FaultInjectingInterShardChannel::FlushHeld(Clock::time_point now) {
  while (!held_.empty() && held_.front().release <= now) {
    HeldFrame held = std::move(held_.front());
    held_.pop_front();
    inner_->Send(held.to_process, held.bytes);
  }
}

void FaultInjectingInterShardChannel::Send(std::size_t to_process,
                                           std::span<const std::byte> frame) {
  RequireSendable(to_process, frame);
  const auto now = Clock::now();
  if (options_.kill_after_frames > 0 &&
      frames_sent_ >= options_.kill_after_frames) {
    killed_ = true;
  }
  ++frames_sent_;
  if (killed_) {
    held_.clear();  // a dead process's in-flight frames die with it
    return;
  }
  const Fault fault = Draw(out_streams_[to_process], options_.outbound);
  // A newer frame toward a held frame's peer overtakes it: release the hold
  // right after this send so the pair arrives swapped.
  switch (fault) {
    case Fault::kDrop:
      ++frames_dropped_;
      break;
    case Fault::kDuplicate:
      ++frames_duplicated_;
      inner_->Send(to_process, frame);
      inner_->Send(to_process, frame);
      break;
    case Fault::kReorder: {
      ++frames_reordered_;
      const bool peer_has_hold =
          std::any_of(held_.begin(), held_.end(), [&](const HeldFrame& h) {
            return h.to_process == to_process;
          });
      if (peer_has_hold) {
        // A frame toward this peer is already waiting to be overtaken; this
        // send is the overtaker.  Ship it now and let the epilogue release
        // the hold behind it — otherwise back-to-back reorder draws would
        // stack holds and drain them FIFO, preserving order after all.
        inner_->Send(to_process, frame);
        break;
      }
      HeldFrame held;
      held.to_process = to_process;
      held.bytes.assign(frame.begin(), frame.end());
      held.release = now + kReorderFlush;
      held_.push_back(std::move(held));
      return;  // flush below would release it immediately on a quiet link
    }
    case Fault::kNone:
      inner_->Send(to_process, frame);
      break;
  }
  // This send overtook every frame still in the hold box; release the ones
  // headed to the same peer so the swap actually happens.
  for (auto it = held_.begin(); it != held_.end();) {
    if (it->to_process == to_process) {
      inner_->Send(it->to_process, it->bytes);
      it = held_.erase(it);
    } else {
      ++it;
    }
  }
  FlushHeld(now);
}

bool FaultInjectingInterShardChannel::Flush(int timeout_ms) {
  if (killed_) {
    held_.clear();
    return false;
  }
  while (!held_.empty()) {
    HeldFrame held = std::move(held_.front());
    held_.pop_front();
    inner_->Send(held.to_process, held.bytes);
  }
  return inner_->Flush(timeout_ms);
}

std::optional<InterShardFrame> FaultInjectingInterShardChannel::Receive(
    int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto now = Clock::now();
    if (!killed_) {
      FlushHeld(now);
    }
    if (!inbound_ready_.empty()) {
      InterShardFrame frame = std::move(inbound_ready_.front());
      inbound_ready_.pop_front();
      return frame;
    }
    // Poll in short slices so held outbound frames keep flushing while the
    // caller blocks; a dead endpoint still consumes (and discards) traffic.
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    if (remaining.count() < 0) {
      break;
    }
    const int slice =
        static_cast<int>(std::min<std::int64_t>(remaining.count(), 2));
    auto frame = inner_->Receive(slice);
    if (!frame.has_value()) {
      if (Clock::now() >= deadline) {
        break;
      }
      continue;
    }
    if (killed_) {
      continue;  // blackhole: the dead process hears nothing
    }
    const Fault fault = Draw(in_streams_[frame->from_process], options_.inbound);
    switch (fault) {
      case Fault::kDrop:
        ++frames_dropped_;
        continue;
      case Fault::kDuplicate:
        ++frames_duplicated_;
        inbound_ready_.push_back(*frame);
        return frame;
      case Fault::kReorder:
        // Inbound reorder: step aside and let the next arrival pass first.
        // The held frame queues behind whatever frame ends this loop (or is
        // returned outright at the deadline, so reorder never loses it).
        ++frames_reordered_;
        if (inbound_held_.has_value()) {
          inbound_ready_.push_back(std::move(*inbound_held_));
        }
        inbound_held_ = std::move(*frame);
        continue;
      case Fault::kNone:
        if (inbound_held_.has_value()) {
          inbound_ready_.push_back(std::move(*inbound_held_));
          inbound_held_.reset();
        }
        return frame;
    }
  }
  // Deadline reached.  A reorder-held frame has nothing left to swap with —
  // release it rather than lose it (time-based flush for the no-reliable
  // stacking, mirroring FlushHeld on the outbound side).
  if (!killed_ && inbound_held_.has_value()) {
    InterShardFrame frame = std::move(*inbound_held_);
    inbound_held_.reset();
    return frame;
  }
  return std::nullopt;
}

}  // namespace dmfsgd::netsim
