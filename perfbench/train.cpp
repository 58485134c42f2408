// The `train` workload: bulk DmfsgdSimulation::RunRoundsParallel.  The
// round executor (core) and the SIMD kernels (linalg) do nearly all the
// work, with no index and no transport.
#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/simulation.hpp"
#include "datasets/procedural.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// The delay space is the library default for every run; --seed seeds the
// protocol (initial coordinates, neighbor sets, probe choices).  n is an
// override of the library's 65536-node tier: at 4096 nodes the factors and
// neighbor sets (~1 MB) stay in one core's L2, so a round's time is the
// executor's and not that of whatever else shares the host's L3.
constexpr std::size_t kNodes = 4096;
constexpr std::size_t kSetups = 25;  // set-up is short, so its median needs more repeats
// The host's speed is measured (one calibration block, untimed) before the
// first round and after every kCalibrateEvery timed rounds (~0.1 s); each
// round counts at the mean speed of the two measurements around it.  The
// host's slow spells last from ~0.1 s to tens of seconds.  A block evicts
// the rounds' data from the core's caches, so the round after it runs
// untimed: timed, those rounds would be 1% of all, right at the p99.
constexpr std::size_t kCalibrateEvery = 100;
// Round figures are those of a fast window of this many rounds (~1 s; its
// p99 rests on 10 rounds), support.hpp.
constexpr std::size_t kWindowRounds = 1000;
// The AUC is taken after exactly this many rounds, whatever the run length,
// so it repeats for a seed; its time stays out of the timed rounds.
constexpr std::size_t kAucRound = 150;
constexpr std::size_t kAucPairs = 20000;
constexpr double kAucFloor = 0.55;

struct Deployment {
  std::unique_ptr<dmfsgd::datasets::Dataset> dataset;
  std::unique_ptr<dmfsgd::core::DmfsgdSimulation> simulation;
  double tau = 0.0;
  double construct_s = 0.0;
};

Deployment SetUp(std::uint64_t seed) {
  Deployment deployment;
  dmfsgd::datasets::EuclideanRttConfig space;
  space.node_count = kNodes;
  deployment.dataset = std::make_unique<dmfsgd::datasets::Dataset>(
      dmfsgd::datasets::MakeEuclideanRtt(space));
  deployment.tau = dmfsgd::datasets::SampledMedianValue(*deployment.dataset);
  dmfsgd::core::SimulationConfig config;
  config.tau = deployment.tau;
  config.seed = StreamSeed(seed, 2);
  const Clock::time_point start = Clock::now();
  deployment.simulation = std::make_unique<dmfsgd::core::DmfsgdSimulation>(
      *deployment.dataset, config);
  deployment.construct_s = SecondsBetween(start, Clock::now());
  return deployment;
}

/// Takes the AUC when `rounds_done` has just reached the checkpoint round.
void CheckpointAuc(const Deployment& deployment, std::uint64_t seed,
                   std::size_t rounds_done, std::optional<double>& auc) {
  if (rounds_done != kAucRound) {
    return;
  }
  const dmfsgd::core::DmfsgdSimulation& simulation = *deployment.simulation;
  auc = HeldOutAuc(
      *deployment.dataset, deployment.tau, kAucPairs, StreamSeed(seed, 3),
      [&](std::size_t i, std::size_t j) { return simulation.IsNeighborPair(i, j); },
      [&](std::size_t i, std::size_t j) { return simulation.Predict(i, j); });
}

void RunUntimedRound(Deployment& deployment, dmfsgd::common::ThreadPool& pool,
                     std::uint64_t seed, std::size_t& rounds_done,
                     std::optional<double>& auc) {
  deployment.simulation->RunRoundsParallel(1, pool);
  CheckpointAuc(deployment, seed, ++rounds_done, auc);
}

struct Pass {
  std::vector<double> round_ms;      // wall time
  std::vector<double> round_cpu_ms;  // CPU time of the calling thread
  std::vector<std::uint64_t> round_measurements;
  std::vector<double> slowdown;  // before round 0 and after every kCalibrateEvery
  double busy_s = 0.0;           // wall time
  std::uint64_t measurements = 0;
};

/// Runs whole rounds until `seconds` of timed round time have passed, and
/// at least until the AUC round.  `spans`, when given, records every timed
/// round.
Pass RunRounds(Deployment& deployment, dmfsgd::common::ThreadPool& pool,
               Calibration& calibration, double seconds, std::uint64_t seed,
               std::size_t& rounds_done, std::optional<double>& auc,
               SpanLog* spans) {
  Pass pass;
  dmfsgd::core::DmfsgdSimulation& simulation = *deployment.simulation;
  pass.slowdown.push_back(calibration.Slowdown(1));
  RunUntimedRound(deployment, pool, seed, rounds_done, auc);
  while (pass.busy_s < seconds || rounds_done < kAucRound) {
    const std::size_t before = simulation.MeasurementCount();
    const double cpu_start = ThreadCpuSeconds();
    const Clock::time_point start = Clock::now();
    simulation.RunRoundsParallel(1, pool);
    const Clock::time_point end = Clock::now();
    pass.round_cpu_ms.push_back((ThreadCpuSeconds() - cpu_start) * 1e3);
    if (spans != nullptr) {
      spans->Add("core.RunRoundsParallel", start, end);
    }
    pass.round_ms.push_back(SecondsBetween(start, end) * 1e3);
    pass.busy_s += SecondsBetween(start, end);
    pass.round_measurements.push_back(simulation.MeasurementCount() - before);
    pass.measurements += pass.round_measurements.back();
    CheckpointAuc(deployment, seed, ++rounds_done, auc);
    if (pass.round_ms.size() % kCalibrateEvery == 0) {
      pass.slowdown.push_back(calibration.Slowdown(1));
      RunUntimedRound(deployment, pool, seed, rounds_done, auc);
    }
  }
  if (pass.round_ms.size() % kCalibrateEvery != 0) {
    pass.slowdown.push_back(calibration.Slowdown(1));
  }
  return pass;
}

/// Each round's CPU time at reference speed (support.hpp).
std::vector<double> NormalizedRoundMs(const Pass& pass) {
  std::vector<double> round_ms;
  for (std::size_t r = 0; r < pass.round_cpu_ms.size(); ++r) {
    const std::size_t w = r / kCalibrateEvery;
    const double slowdown = (pass.slowdown[w] + pass.slowdown[w + 1]) / 2.0;
    round_ms.push_back(pass.round_cpu_ms[r] / slowdown);
  }
  return round_ms;
}

}  // namespace

Outcome RunTrain(const RunOptions& options) {
  Outcome outcome;
  // The traced run's nproc-wide pool, spawned before this thread is pinned
  // so its workers may use every core.
  std::optional<dmfsgd::common::ThreadPool> wide;
  if (options.trace) {
    wide.emplace(std::thread::hardware_concurrency());
  }
  // The timed rounds run inline on one pinned core (a pool of one spawns no
  // threads).  On a shared host a wider pool waits, every round, for a
  // sleeping virtual CPU to be scheduled again: its round times moved by
  // up to 1.6x between runs of the same code.  The pool's scaling is the
  // traced run's core.round.parallel_speedup.
  PinToCurrentCpu();
  Calibration calibration;
  std::vector<double> setup_s;  // raw
  std::vector<double> setup_ref_s;  // at reference speed
  std::vector<double> construct_s;
  Deployment deployment;
  for (std::size_t k = 0; k < kSetups; ++k) {
    deployment.simulation.reset();
    deployment.dataset.reset();
    const SetUpTime time =
        TimeSetUp(calibration, [&] { deployment = SetUp(options.seed); });
    setup_s.push_back(time.raw_s);
    setup_ref_s.push_back(time.reference_s);
    construct_s.push_back(deployment.construct_s);
  }

  dmfsgd::common::ThreadPool inline_pool(1);
  std::size_t rounds_done = 0;
  std::optional<double> auc;
  // A traced run spends half its time untraced, a quarter traced and a
  // quarter on the nproc-wide pool (the speedup's numerator).
  const Pass pass = RunRounds(deployment, inline_pool, calibration,
                              options.trace ? options.seconds / 2 : options.seconds,
                              options.seed, rounds_done, auc, nullptr);
  const LatencySummary rounds = SummarizeLatency(pass.round_ms);
  const FastWindow fast = SummarizeFastWindows(
      NormalizedRoundMs(pass), pass.round_measurements, kWindowRounds);
  outcome.attempted += pass.round_ms.size();

  auto& m = outcome.metrics;
  m["setup_s"] = dmfsgd::common::Median(setup_ref_s);
  m["latency_p50_ms"] = fast.p50_ms;
  m["latency_p99_ms"] = fast.p50_ms * LocalTailRatio(pass.round_cpu_ms);
  m["measurements_per_s"] = fast.work_per_s;
  m["auc"] = auc.value_or(0.0);
  auto& d = outcome.details;
  d["samples.latency"] = static_cast<double>(rounds.count);
  d["samples.windows"] = static_cast<double>(fast.windows);
  d["samples.calibration"] = static_cast<double>(pass.slowdown.size());
  d["host.slowdown"] = dmfsgd::common::Median(pass.slowdown);
  d["raw.setup_s"] = dmfsgd::common::Median(setup_s);
  d["raw.latency_p50_ms"] = rounds.p50;
  d["raw.latency_p99_ms"] = rounds.p99;
  d["raw.measurements_per_s"] =
      static_cast<double>(pass.measurements) / pass.busy_s;
  d["train.nodes"] = kNodes;
  d["train.fast_window_p99_ms"] = fast.p99_ms;

  if (options.trace) {
    SpanLog spans(Clock::now());
    const Pass traced = RunRounds(deployment, inline_pool, calibration,
                                  options.seconds / 4, options.seed, rounds_done, auc, &spans);
    outcome.attempted += traced.round_ms.size();
    const Pass parallel = RunRounds(deployment, *wide, calibration,
                                    options.seconds / 4, options.seed, rounds_done, auc, nullptr);
    outcome.attempted += parallel.round_ms.size();
    const LatencySummary traced_rounds = SummarizeLatency(traced.round_ms);
    m["core.setup.construct_s"] = dmfsgd::common::Median(construct_s);
    m["core.round.ms_p50"] = traced_rounds.p50;
    m["core.round.ms_p99"] = traced_rounds.p99;
    m["core.round.parallel_speedup"] =
        (static_cast<double>(parallel.round_ms.size()) / parallel.busy_s) /
        (static_cast<double>(traced.round_ms.size()) / traced.busy_s);
    m["latency.samples"] = static_cast<double>(traced_rounds.count);
    m["trace.overhead_ms"] = traced_rounds.p50 - rounds.p50;
    m["trace.overhead_frac"] = (traced_rounds.p50 - rounds.p50) / rounds.p50;
    m["trace.spans"] = static_cast<double>(spans.spans().size());
    d["train.pool_threads"] = static_cast<double>(wide->thread_count());
    const SpanLog* logs[] = {&spans};
    WriteSpans(options.trace_file, options.run_id, logs);
  }

  const dmfsgd::core::CoordinateStore& store =
      deployment.simulation->engine().store();
  outcome.Check(AllFinite(store.UData()) && AllFinite(store.VData()),
                "train: a final factor is not finite");
  outcome.Check(auc.has_value() && *auc >= kAucFloor,
                "train: AUC after the checkpoint round is below the floor");
  return outcome;
}

}  // namespace perfbench
