#include "channels.hpp"

namespace perfbench {

void TimingChannel::Send(std::size_t to_process,
                         std::span<const std::byte> frame) {
  if (!enabled_) {
    inner().Send(to_process, frame);
    return;
  }
  const Clock::time_point start = Clock::now();
  inner().Send(to_process, frame);
  const Clock::time_point end = Clock::now();
  ++stats_.send_calls;
  stats_.send_s += SecondsBetween(start, end);
  stats_.bytes_sent += frame.size();
  spans_->Add("netsim.send", start, end);
}

std::optional<dmfsgd::netsim::InterShardFrame> TimingChannel::Receive(
    int timeout_ms) {
  if (!enabled_) {
    return inner().Receive(timeout_ms);
  }
  const Clock::time_point start = Clock::now();
  auto frame = inner().Receive(timeout_ms);
  const Clock::time_point end = Clock::now();
  ++stats_.recv_calls;
  stats_.recv_wait_s += SecondsBetween(start, end);
  if (!frame.has_value()) {
    ++stats_.recv_timeouts;
  }
  spans_->Add("netsim.recv", start, end);
  return frame;
}

bool TimingChannel::Flush(int timeout_ms) {
  if (!enabled_) {
    return inner().Flush(timeout_ms);
  }
  const Clock::time_point start = Clock::now();
  const bool flushed = inner().Flush(timeout_ms);
  const Clock::time_point end = Clock::now();
  ++stats_.flush_calls;
  stats_.flush_s += SecondsBetween(start, end);
  spans_->Add("netsim.flush", start, end);
  return flushed;
}

}  // namespace perfbench
