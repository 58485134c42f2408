// Self-test of the benchmark's own machinery:
//   * SummarizeLatency: the percentile values and the sample counts they
//     rest on;
//   * RunOpenLoop: one deliberately stalled call raises the measured
//     latency of the requests due behind it;
//   * TimingChannel: transparent, so the same frames reach the channel
//     beneath it and the drain ends on the same factor digest with and
//     without it.
// Run with `python3 perfbench/run.py --selftest`; prints one line per
// check and exits non-zero if any fails.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "channels.hpp"
#include "datasets/procedural.hpp"
#include "drain.hpp"
#include "support.hpp"

namespace {

using namespace perfbench;
using dmfsgd::netsim::InterShardChannel;

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  failures += ok ? 0 : 1;
}

void TestSummarizeLatency() {
  std::vector<double> values;
  for (int v = 100; v >= 1; --v) {
    values.push_back(v);
  }
  const LatencySummary summary = SummarizeLatency(values);
  Expect(summary.count == 100, "summary counts every sample");
  Expect(summary.p50 == 50.5, "p50 interpolates between the middle ranks");
  Expect(std::abs(summary.p99 - 99.01) < 1e-9,
         "p99 interpolates between ranks 99 and 100");
  Expect(summary.beyond_p99 == 1, "one sample lies beyond the p99");
  Expect(summary.max == 100.0, "max is the largest sample");
  const LatencySummary empty = SummarizeLatency({});
  Expect(empty.count == 0 && empty.p99 == 0.0, "an empty sample summarizes to zeros");
  const std::vector<double> one{7.0};
  const LatencySummary single = SummarizeLatency(one);
  Expect(single.count == 1 && single.p50 == 7.0 && single.p99 == 7.0 &&
             single.beyond_p99 == 0,
         "a single sample is its own p50 and p99");
}

// Ten requests due 2 ms apart; request 3 stalls for 40 ms.
constexpr double kSpacing = 0.002;
constexpr double kStallMs = 40.0;

void TestOpenLoopLateness() {
  std::vector<double> due;
  for (int r = 0; r < 10; ++r) {
    due.push_back(kSpacing * r);
  }
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(5);
  const std::vector<RequestTiming> timings =
      RunOpenLoop(due, origin, [](std::size_t r) {
        if (r == 3) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(kStallMs));
        }
      });
  Expect(timings[3].LatencyMs() >= kStallMs,
         "the stalled request's latency covers its stall");
  bool behind = true;
  for (std::size_t r = 4; r < timings.size(); ++r) {
    // Request r cannot start before the stall ends, kStallMs after request
    // 3 was due.
    const double floor_ms = kStallMs - (due[r] - due[3]) * 1e3 - 1e-6;
    behind = behind && timings[r].LagMs() >= floor_ms &&
             timings[r].LatencyMs() >= floor_ms;
  }
  Expect(behind,
         "every request due behind the stall is late by the rest of the stall");
  bool before = true;
  for (std::size_t r = 0; r < 3; ++r) {
    before = before && timings[r].LatencyMs() < kStallMs / 2;
  }
  Expect(before, "requests due before the stall are not delayed by it");
}

struct DrainRecord {
  std::uint64_t digest = 0;
  std::vector<LinkCountingChannel::Frames> frames;  // per process
  std::uint64_t timed_sends = 0;
};

DrainRecord RunSmallDrain(const dmfsgd::datasets::Dataset& dataset, double tau,
                          bool timed) {
  // Keeps a copy of every frame the timing decorator hands down.
  std::vector<LinkCountingChannel*> recorders(DrainDeployment::kProcesses, nullptr);
  DrainSpec spec;
  spec.seed = 5;
  spec.traced = timed;
  spec.wrap_above_reliable = [&recorders](std::size_t p, InterShardChannel& inner) {
    auto recorder = std::make_unique<LinkCountingChannel>(inner, true);
    recorders[p] = recorder.get();
    return std::unique_ptr<InterShardChannel>(std::move(recorder));
  };
  DrainDeployment deployment(dataset, tau, spec);
  for (int step = 1; step <= 20; ++step) {
    deployment.RunUntil(0.05 * step);
  }
  DrainRecord record;
  std::vector<double> u;
  std::vector<double> v;
  deployment.Fold(u, v);
  record.digest = FactorDigest(u, v);
  for (const LinkCountingChannel* recorder : recorders) {
    record.frames.push_back(recorder->kept());
  }
  record.timed_sends = deployment.Layers().runtime.send_calls;
  return record;
}

void TestTimingChannelTransparency() {
  dmfsgd::datasets::EuclideanRttConfig space;
  space.node_count = 256;
  space.seed = 5;
  const dmfsgd::datasets::Dataset dataset = dmfsgd::datasets::MakeEuclideanRtt(space);
  const double tau = dmfsgd::datasets::SampledMedianValue(dataset);
  const DrainRecord plain = RunSmallDrain(dataset, tau, false);
  const DrainRecord timed = RunSmallDrain(dataset, tau, true);
  std::size_t frames = 0;
  for (const auto& process : plain.frames) {
    frames += process.size();
  }
  Expect(frames > 0, "the drain exchanged frames between its processes");
  Expect(plain.frames == timed.frames,
         "the same frames reach the channel beneath the timing decorator");
  Expect(plain.digest == timed.digest,
         "the drain ends on the same factor digest with the timing decorator");
  Expect(timed.timed_sends == frames,
         "the timing decorator counted every frame it forwarded");
}

}  // namespace

int main() {
  TestSummarizeLatency();
  TestOpenLoopLateness();
  TestTimingChannelTransparency();
  if (failures > 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
