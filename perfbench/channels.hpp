// Pass-through decorators of netsim::InterShardChannel for the traced drain
// runs and the self-test.  Each forwards every call to the channel beneath
// it unchanged (the same frames, in the same order) and only counts, and
// for TimingChannel times, what passes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "netsim/inter_shard_channel.hpp"
#include "support.hpp"

namespace perfbench {

/// Forwards every call to `inner`; decorators override what they observe.
class ForwardingChannel : public dmfsgd::netsim::InterShardChannel {
 public:
  /// `inner` must outlive this channel.
  explicit ForwardingChannel(InterShardChannel& inner) : inner_(&inner) {}

  [[nodiscard]] std::size_t ProcessCount() const noexcept override {
    return inner_->ProcessCount();
  }
  [[nodiscard]] std::size_t ProcessIndex() const noexcept override {
    return inner_->ProcessIndex();
  }
  void Send(std::size_t to_process, std::span<const std::byte> frame) override {
    inner_->Send(to_process, frame);
  }
  [[nodiscard]] std::optional<dmfsgd::netsim::InterShardFrame> Receive(
      int timeout_ms) override {
    return inner_->Receive(timeout_ms);
  }
  [[nodiscard]] const char* Name() const noexcept override {
    return inner_->Name();
  }
  [[nodiscard]] std::size_t MaxFrameBytes() const noexcept override {
    return inner_->MaxFrameBytes();
  }
  [[nodiscard]] dmfsgd::netsim::ChannelDiagnostics Diagnostics() const override {
    return inner_->Diagnostics();
  }
  bool Flush(int timeout_ms) override { return inner_->Flush(timeout_ms); }
  [[nodiscard]] std::uint64_t LivenessEpoch() const noexcept override {
    return inner_->LivenessEpoch();
  }

 protected:
  InterShardChannel& inner() { return *inner_; }

 private:
  InterShardChannel* inner_;
};

/// Sits between netsim::ShardRuntime and the reliable channel: times every
/// Send, Receive and Flush and records each as a span under whatever span
/// is open on `spans` (the drain call).
class TimingChannel final : public ForwardingChannel {
 public:
  struct Stats {
    std::uint64_t send_calls = 0;
    double send_s = 0.0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t recv_calls = 0;
    double recv_wait_s = 0.0;
    std::uint64_t recv_timeouts = 0;
    std::uint64_t flush_calls = 0;
    double flush_s = 0.0;
  };

  /// `inner` and `spans` must outlive this channel.
  TimingChannel(InterShardChannel& inner, SpanLog& spans)
      : ForwardingChannel(inner), spans_(&spans) {}

  /// While disabled the channel forwards without timing or counting.
  void SetEnabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  void Send(std::size_t to_process, std::span<const std::byte> frame) override;
  [[nodiscard]] std::optional<dmfsgd::netsim::InterShardFrame> Receive(
      int timeout_ms) override;
  bool Flush(int timeout_ms) override;

 private:
  SpanLog* spans_;
  bool enabled_ = true;
  Stats stats_;
};

/// Counts the frames and bytes sent through it.  Under the reliable channel
/// that is what the reliable layer puts on the link (data frames,
/// retransmissions and standalone acks); with `keep_frames` it also keeps a
/// copy of each frame (the self-test compares them).
class LinkCountingChannel final : public ForwardingChannel {
 public:
  using Frames = std::vector<std::pair<std::size_t, std::vector<std::byte>>>;

  explicit LinkCountingChannel(InterShardChannel& inner, bool keep_frames = false)
      : ForwardingChannel(inner), keep_frames_(keep_frames) {}

  [[nodiscard]] std::uint64_t frames() const { return frames_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] const Frames& kept() const { return kept_; }

  void Send(std::size_t to_process, std::span<const std::byte> frame) override {
    ++frames_;
    bytes_ += frame.size();
    if (keep_frames_) {
      kept_.emplace_back(to_process,
                         std::vector<std::byte>(frame.begin(), frame.end()));
    }
    inner().Send(to_process, frame);
  }

 private:
  bool keep_frames_;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  Frames kept_;
};

}  // namespace perfbench
