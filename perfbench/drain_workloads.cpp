// The `drain` workload: the async deployment split over two loopback
// processes (drain.hpp), advanced in fixed simulated steps.  Small
// conservative windows make the window barrier and the channel (netsim)
// the dominant layer.  An untimed check then replays the first steps over
// a lossy link and holds the transport to its bit-identity promise.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "datasets/procedural.hpp"
#include "drain.hpp"
#include "linalg/kernels.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// The delay space is the library default for every run, so every run
// windows with the same lookaheads; --seed seeds the protocol and the
// fault pattern.  n is an override: construction and the pair-lookahead
// matrix are O(n^2) scans of the quantity function (~18 s per set-up at
// 8192 nodes), and a run sets up five times.
constexpr std::size_t kNodes = 2048;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kAucPairs = 20000;
constexpr double kAucFloor = 0.55;
// Each step advances simulated time by kStepS.  The AUC checkpoint falls
// after exactly kCheckpointSteps steps, so it repeats for a seed whatever
// the run length.
constexpr double kStepS = 0.05;
constexpr std::size_t kCheckpointSteps = 1000;
// Step figures are those of a fast window of this many steps (~1.7 s; its
// p99 rests on 10 steps), support.hpp.
constexpr std::size_t kWindowSteps = 1000;
// The lossy replica runs this many steps; each 40 ms retransmission timeout
// it waits out costs wall time, about 0.3 s a step at 5% frame loss.
constexpr std::size_t kLossySteps = 2;

struct Instance {
  std::unique_ptr<dmfsgd::datasets::Dataset> dataset;
  double tau = 0.0;
  std::unique_ptr<DrainDeployment> deployment;
};

Instance SetUp(std::uint64_t seed, Link link, bool traced) {
  Instance instance;
  dmfsgd::datasets::EuclideanRttConfig space;
  space.node_count = kNodes;
  instance.dataset = std::make_unique<dmfsgd::datasets::Dataset>(
      dmfsgd::datasets::MakeEuclideanRtt(space));
  instance.tau = dmfsgd::datasets::SampledMedianValue(*instance.dataset);
  DrainSpec spec;
  spec.seed = seed;
  spec.link = link;
  spec.traced = traced;
  instance.deployment =
      std::make_unique<DrainDeployment>(*instance.dataset, instance.tau, spec);
  return instance;
}

struct Folded {
  std::vector<double> u;
  std::vector<double> v;
};

Folded Fold(DrainDeployment& deployment) {
  Folded folded;
  deployment.Fold(folded.u, folded.v);
  return folded;
}

/// What the drain records between steps, untimed.
struct Progress {
  std::size_t steps_done = 0;
  std::optional<std::uint64_t> lossy_reference;  ///< digest after kLossySteps
  std::optional<double> auc;                     ///< after kCheckpointSteps
  bool finite = true;
};

struct Pass {
  std::vector<double> step_ms;
  std::vector<std::uint64_t> step_measurements;
  double busy_s = 0.0;
  std::uint64_t measurements = 0;
};

/// Steps until `seconds` of stepping have passed and the AUC checkpoint is
/// behind, recording the checkpoints (untimed) on the way.
Pass RunSteps(Instance& instance, double seconds, std::uint64_t seed,
              Progress& progress) {
  Pass pass;
  DrainDeployment& deployment = *instance.deployment;
  while (pass.busy_s < seconds || progress.steps_done < kCheckpointSteps) {
    const double until = static_cast<double>(progress.steps_done + 1) * kStepS;
    const std::uint64_t before = deployment.Measurements();
    const Clock::time_point start = Clock::now();
    deployment.RunUntil(until);
    const Clock::time_point end = Clock::now();
    pass.step_ms.push_back(SecondsBetween(start, end) * 1e3);
    pass.step_measurements.push_back(deployment.Measurements() - before);
    pass.measurements += pass.step_measurements.back();
    pass.busy_s += SecondsBetween(start, end);
    ++progress.steps_done;
    if (progress.steps_done == kLossySteps) {
      const Folded folded = Fold(deployment);
      progress.lossy_reference = FactorDigest(folded.u, folded.v);
    }
    if (progress.steps_done == kCheckpointSteps) {
      const Folded folded = Fold(deployment);
      const std::size_t rank = deployment.Rank();
      progress.finite = AllFinite(folded.u) && AllFinite(folded.v);
      progress.auc = HeldOutAuc(
          *instance.dataset, instance.tau, kAucPairs, StreamSeed(seed, 3),
          [&](std::size_t i, std::size_t j) { return deployment.IsTrainingPair(i, j); },
          [&](std::size_t i, std::size_t j) {
            return dmfsgd::linalg::DotRaw(folded.u.data() + i * rank,
                                          folded.v.data() + j * rank, rank);
          });
    }
  }
  return pass;
}

std::string Hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// The traced pass: per-layer counters of the window protocol and the
/// reliability layer, as deltas over the pass.
void RecordLayers(Instance& instance, const RunOptions& options,
                  double untraced_p50_ms, Progress& progress, Outcome& outcome) {
  DrainDeployment& deployment = *instance.deployment;
  const DrainLayers before = deployment.Layers();
  const std::uint64_t events = deployment.Events();
  const std::uint64_t windows = deployment.Windows();
  deployment.SetTracing(true);
  const Pass traced = RunSteps(instance, options.seconds / 2, options.seed, progress);
  deployment.SetTracing(false);
  outcome.attempted += traced.step_ms.size();
  const DrainLayers after = deployment.Layers();
  const std::vector<const SpanLog*> logs = deployment.SpanLogs();
  const auto totals = AggregateSpans(logs);
  const auto self_of = [&](const char* name) {
    const auto found = totals.find(name);
    return found == totals.end() ? 0.0 : found->second.self_s;
  };

  auto& m = outcome.metrics;
  const double busy_s = after.busy_s - before.busy_s;
  const double windows_run = static_cast<double>(deployment.Windows() - windows);
  const double events_run = static_cast<double>(deployment.Events() - events);
  const double link_frames =
      static_cast<double>(after.link_frames - before.link_frames);
  m["netsim.drain.busy_s"] = busy_s;
  m["netsim.windows"] = windows_run;
  m["netsim.events"] = events_run;
  m["netsim.events_per_window"] = windows_run > 0 ? events_run / windows_run : 0.0;
  m["netsim.runtime.send_calls"] = static_cast<double>(after.runtime.send_calls);
  m["netsim.runtime.send_s"] = after.runtime.send_s;
  m["netsim.runtime.bytes_sent"] = static_cast<double>(after.runtime.bytes_sent);
  m["netsim.runtime.recv_calls"] = static_cast<double>(after.runtime.recv_calls);
  m["netsim.runtime.recv_wait_s"] = after.runtime.recv_wait_s;
  m["netsim.runtime.recv_timeouts"] =
      static_cast<double>(after.runtime.recv_timeouts);
  m["netsim.compute_s"] = self_of("netsim.drain");
  m["netsim.link.frames"] = link_frames;
  m["netsim.link.bytes"] = static_cast<double>(after.link_bytes - before.link_bytes);
  m["netsim.reliable.useful_frame_ratio"] =
      link_frames > 0
          ? static_cast<double>(after.runtime_frames - before.runtime_frames) /
                link_frames
          : 0.0;
  m["netsim.reliable.retransmits"] =
      static_cast<double>(after.retransmits - before.retransmits);
  m["netsim.reliable.duplicates"] =
      static_cast<double>(after.duplicates - before.duplicates);
  m["netsim.reliable.standalone_acks"] =
      static_cast<double>(after.standalone_acks - before.standalone_acks);
  m["netsim.reliable.flush_s"] = after.runtime.flush_s;

  const LatencySummary steps = SummarizeLatency(traced.step_ms);
  m["latency.samples"] = static_cast<double>(steps.count);
  m["trace.overhead_ms"] = steps.p50 - untraced_p50_ms;
  m["trace.overhead_frac"] = (steps.p50 - untraced_p50_ms) / untraced_p50_ms;
  std::size_t span_count = 0;
  for (const SpanLog* log : logs) {
    span_count += log->spans().size();
  }
  m["trace.spans"] = static_cast<double>(span_count);
  // The layer split must account for the drain: engine self time plus the
  // channel's send and receive time, against the time inside the drain.
  outcome.details["netsim.layer_sum_share"] =
      busy_s > 0 ? (m["netsim.compute_s"] + m["netsim.runtime.send_s"] +
                    m["netsim.runtime.recv_wait_s"]) /
                       busy_s
                 : 0.0;
  WriteSpans(options.trace_file, options.run_id, logs);
}

/// The transport's promise: repaired loss changes timing, never results.
/// A replica of the same seed over a link that drops 5% of frames, stepped
/// the same way, must reach the same factors bit for bit as the clean drain.
void CheckLossyReplica(std::uint64_t seed, std::uint64_t clean_digest,
                       Outcome& outcome) {
  Instance lossy = SetUp(seed, Link::kLossy, false);
  const Clock::time_point start = Clock::now();
  for (std::size_t step = 1; step <= kLossySteps; ++step) {
    lossy.deployment->RunUntil(static_cast<double>(step) * kStepS);
  }
  const double lossy_s = SecondsBetween(start, Clock::now());
  const Folded folded = Fold(*lossy.deployment);
  const std::uint64_t digest = FactorDigest(folded.u, folded.v);
  const DrainLayers layers = lossy.deployment->Layers();
  outcome.notes["drain.lossy_digest"] = Hex(digest);
  outcome.notes["drain.clean_digest"] = Hex(clean_digest);
  outcome.metrics["netsim.fault.dropped"] = static_cast<double>(layers.fault_dropped);
  outcome.metrics["netsim.fault.retransmits"] = static_cast<double>(layers.retransmits);
  outcome.metrics["netsim.fault.steps_s"] = lossy_s;
  outcome.Check(digest == clean_digest,
                "drain: factor digest over the lossy link differs from the clean drain");
}

}  // namespace

Outcome RunDrain(const RunOptions& options) {
  Outcome outcome;
  Calibration calibration;
  std::vector<double> setup_s;  // as measured
  std::vector<double> setup_ref_s;  // at reference speed
  std::vector<double> construct_s;
  std::vector<double> lookahead_s;
  Instance instance;
  for (std::size_t k = 0; k < kSetups; ++k) {
    instance.deployment.reset();
    instance.dataset.reset();
    const SetUpTime time = TimeSetUp(
        calibration, [&] { instance = SetUp(options.seed, Link::kClean, options.trace); });
    setup_s.push_back(time.raw_s);
    setup_ref_s.push_back(time.reference_s);
    construct_s.push_back(instance.deployment->construct_s());
    lookahead_s.push_back(instance.deployment->lookahead_s());
  }
  auto& m = outcome.metrics;
  auto& d = outcome.details;
  m["setup_s"] = dmfsgd::common::Median(setup_ref_s);
  d["raw.setup_s"] = dmfsgd::common::Median(setup_s);
  m["core.setup.construct_s"] = dmfsgd::common::Median(construct_s);
  m["netsim.setup.lookahead_s"] = dmfsgd::common::Median(lookahead_s);

  // Both processes share one core from here on.  Each window hands control
  // from one process to the other several times; across cores each
  // hand-off wakes a sleeping virtual CPU, which on a shared host waits for
  // the host's scheduler and made step p99 vary 3-6x between runs.  On one
  // core it is a local context switch.  Compute is ~15% of a step, so
  // little parallelism is lost.
  PinToCurrentCpu();
  Progress progress;
  try {
    instance.deployment->SetTracing(false);
    // A traced run spends half its time untraced, then half traced.
    const Pass pass = RunSteps(
        instance, options.trace ? options.seconds / 2 : options.seconds,
        options.seed, progress);
    outcome.attempted += pass.step_ms.size();
    const LatencySummary steps = SummarizeLatency(pass.step_ms);
    const FastWindow fast =
        SummarizeFastWindows(pass.step_ms, pass.step_measurements, kWindowSteps);
    m["latency_p50_ms"] = fast.p50_ms;
    m["latency_p99_ms"] = fast.p99_ms;
    m["measurements_per_s"] = fast.work_per_s;
    d["samples.windows"] = static_cast<double>(fast.windows);
    d["raw.latency_p50_ms"] = steps.p50;
    d["raw.latency_p99_ms"] = steps.p99;
    d["raw.measurements_per_s"] = static_cast<double>(pass.measurements) / pass.busy_s;
    m["auc"] = progress.auc.value_or(0.0);
    d["samples.latency"] = static_cast<double>(steps.count);
    d["samples.latency_beyond_p99"] = static_cast<double>(steps.beyond_p99);
    d["drain.nodes"] = kNodes;
    d["drain.step_s"] = kStepS;
    d["drain.checkpoint_s"] = kStepS * static_cast<double>(kCheckpointSteps);
    d["drain.simulated_s"] = instance.deployment->Now();
    if (options.trace) {
      RecordLayers(instance, options, steps.p50, progress, outcome);
    }
  } catch (const std::exception& error) {
    outcome.Check(false, std::string("drain: ") + error.what());
    return outcome;
  }
  outcome.Check(progress.auc.has_value() && progress.finite,
                "drain: a factor at the checkpoint is not finite");
  outcome.Check(progress.auc.value_or(0.0) >= kAucFloor,
                "drain: AUC at the checkpoint is below the floor");

  // The replica is built after the drain is gone, so it adds no peak memory.
  instance.deployment.reset();
  instance.dataset.reset();
  try {
    CheckLossyReplica(options.seed, *progress.lossy_reference, outcome);
  } catch (const std::exception& error) {
    outcome.Check(false, std::string("drain, lossy replica: ") + error.what());
  }
  return outcome;
}

}  // namespace perfbench
