// Parity pins for the sparse round compiler of DESIGN.md §14.
//
// The load-bearing claim: with the scalar kernel table active, every
// compiled execution path — the sequential COO round and the
// window-compiled reply envelopes of the coalesced drains — is
// bit-identical to its per-message twin, because the gather pass replays
// the per-message RNG draw order verbatim and the fused executor applies
// the same arithmetic expression per edge.  Pinned across both exchange
// algorithms, message loss, churn, every probe strategy, and the
// singleton/one-round edge cases.  Vector kernel tables change only the
// dots' lane-accumulation order, so those runs are pinned on counters
// (pure RNG state) and learning quality instead.  The parallel round
// sweep has no compiled twin: compile_rounds leaves it unchanged under
// any table.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/async_simulation.hpp"
#include "core/simulation.hpp"
#include "datasets/hps3.hpp"
#include "datasets/meridian.hpp"
#include "datasets/procedural.hpp"
#include "eval/roc.hpp"
#include "eval/scored_pairs.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace dmfsgd::core {
namespace {

using datasets::Dataset;

/// Pins a kernel table for a test body and restores the previously
/// active table on exit, so a vector-capable host cannot leak avx state
/// between tests.
class ActiveIsaGuard {
 public:
  explicit ActiveIsaGuard(linalg::KernelIsa isa)
      : saved_(linalg::ActiveKernelIsa()) {
    linalg::SetKernelIsa(isa);
  }
  ~ActiveIsaGuard() { linalg::SetKernelIsa(saved_); }
  ActiveIsaGuard(const ActiveIsaGuard&) = delete;
  ActiveIsaGuard& operator=(const ActiveIsaGuard&) = delete;

 private:
  linalg::KernelIsa saved_;
};

Dataset SmallRtt() {
  datasets::MeridianConfig config;
  config.node_count = 100;
  config.seed = 31;
  return datasets::MakeMeridian(config);
}

Dataset SmallAbw() {
  datasets::HpS3Config config;
  config.host_count = 100;
  config.seed = 33;
  return datasets::MakeHpS3(config);
}

/// Dense synthetic ABW (asymmetric, fully known) for the constant-delay
/// async regime where a burst's replies all land in one envelope.
Dataset DenseAbw(std::size_t n, std::uint64_t seed) {
  Dataset dataset;
  dataset.name = "test-abw";
  dataset.metric = datasets::Metric::kAbw;
  dataset.ground_truth = linalg::Matrix(n, n, linalg::Matrix::kMissing);
  common::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        dataset.ground_truth(i, j) = rng.Uniform(5.0, 100.0);
      }
    }
  }
  return dataset;
}

SimulationConfig BaseConfig(const Dataset& dataset) {
  SimulationConfig config;
  config.rank = 10;
  config.neighbor_count = 16;
  config.tau = dataset.MedianValue();
  config.seed = 5;
  return config;
}

void ExpectBitIdentical(const DmfsgdSimulation& a, const DmfsgdSimulation& b,
                        const char* what) {
  const auto& store_a = a.engine().store();
  const auto& store_b = b.engine().store();
  ASSERT_EQ(store_a.NodeCount(), store_b.NodeCount()) << what;
  ASSERT_EQ(store_a.rank(), store_b.rank()) << what;
  const auto u_a = store_a.UData();
  const auto u_b = store_b.UData();
  const auto v_a = store_a.VData();
  const auto v_b = store_b.VData();
  EXPECT_EQ(std::memcmp(u_a.data(), u_b.data(), u_a.size_bytes()), 0)
      << what << ": U diverged";
  EXPECT_EQ(std::memcmp(v_a.data(), v_b.data(), v_a.size_bytes()), 0)
      << what << ": V diverged";
  EXPECT_EQ(a.MeasurementCount(), b.MeasurementCount()) << what;
  EXPECT_EQ(a.DroppedLegs(), b.DroppedLegs()) << what;
  EXPECT_EQ(a.ChurnCount(), b.ChurnCount()) << what;
}

/// Per-message reference vs compiled run on the same dataset/config.
void ExpectCompiledMatchesPerMessage(const Dataset& dataset,
                                     const SimulationConfig& config,
                                     std::size_t rounds, const char* what) {
  DmfsgdSimulation per_message(dataset, config);
  DmfsgdSimulation compiled(dataset, config);
  per_message.RunRounds(rounds);
  compiled.RunRoundsCompiled(rounds);
  ExpectBitIdentical(per_message, compiled, what);
}

// ------------------------------------------------------------------------
// Sequential compiled rounds (Algorithm 1, RTT)

TEST(CompiledRound, RttBitIdenticalWithLossAndChurn) {
  const ActiveIsaGuard scalar(linalg::KernelIsa::kScalar);
  const Dataset dataset = SmallRtt();
  SimulationConfig config = BaseConfig(dataset);
  config.message_loss = 0.2;
  config.churn_rate = 0.02;
  DmfsgdSimulation per_message(dataset, config);
  DmfsgdSimulation compiled(dataset, config);
  per_message.RunRounds(40);
  compiled.RunRoundsCompiled(40);
  EXPECT_GT(compiled.DroppedLegs(), 0u);
  EXPECT_GT(compiled.ChurnCount(), 0u);
  ExpectBitIdentical(per_message, compiled, "rtt loss+churn");
}

TEST(CompiledRound, RttBitIdenticalUnderEveryProbeStrategy) {
  const ActiveIsaGuard scalar(linalg::KernelIsa::kScalar);
  const Dataset dataset = SmallRtt();
  for (const ProbeStrategy strategy :
       {ProbeStrategy::kUniformRandom, ProbeStrategy::kRoundRobin,
        ProbeStrategy::kLossDriven}) {
    SimulationConfig config = BaseConfig(dataset);
    config.strategy = strategy;
    ExpectCompiledMatchesPerMessage(dataset, config, 30,
                                    ProbeStrategyName(strategy));
  }
}

TEST(CompiledRound, SingleRoundIsTheSingletonCase) {
  // One round still exercises the full gather/group/execute path with
  // every per-target group at its minimum size.
  const ActiveIsaGuard scalar(linalg::KernelIsa::kScalar);
  const Dataset dataset = SmallRtt();
  ExpectCompiledMatchesPerMessage(dataset, BaseConfig(dataset), 1,
                                  "rtt single round");
}

// ------------------------------------------------------------------------
// Sequential compiled rounds (Algorithm 2, ABW)

TEST(CompiledRoundAlg2, AbwBitIdenticalWithLossAndChurn) {
  const ActiveIsaGuard scalar(linalg::KernelIsa::kScalar);
  const Dataset dataset = SmallAbw();
  SimulationConfig config = BaseConfig(dataset);
  config.message_loss = 0.2;
  config.churn_rate = 0.02;
  DmfsgdSimulation per_message(dataset, config);
  DmfsgdSimulation compiled(dataset, config);
  per_message.RunRounds(40);
  compiled.RunRoundsCompiled(40);
  EXPECT_GT(compiled.DroppedLegs(), 0u);
  EXPECT_GT(compiled.ChurnCount(), 0u);
  ExpectBitIdentical(per_message, compiled, "abw loss+churn");
}

TEST(CompiledRoundAlg2, AbwBitIdenticalUnderEveryProbeStrategy) {
  const ActiveIsaGuard scalar(linalg::KernelIsa::kScalar);
  const Dataset dataset = SmallAbw();
  for (const ProbeStrategy strategy :
       {ProbeStrategy::kUniformRandom, ProbeStrategy::kRoundRobin,
        ProbeStrategy::kLossDriven}) {
    SimulationConfig config = BaseConfig(dataset);
    config.strategy = strategy;
    ExpectCompiledMatchesPerMessage(dataset, config, 30,
                                    ProbeStrategyName(strategy));
  }
}

TEST(CompiledRoundAlg2, SingleRoundIsTheSingletonCase) {
  const ActiveIsaGuard scalar(linalg::KernelIsa::kScalar);
  const Dataset dataset = SmallAbw();
  ExpectCompiledMatchesPerMessage(dataset, BaseConfig(dataset), 1,
                                  "abw single round");
}

TEST(CompiledRound, RejectsProbeBursts) {
  // The COO gather models exactly one exchange per node per round; the
  // burst driver interleaves the shared-stream rolls differently.
  const Dataset dataset = SmallRtt();
  SimulationConfig config = BaseConfig(dataset);
  config.probe_burst = 3;
  DmfsgdSimulation simulation(dataset, config);
  EXPECT_THROW(simulation.RunRoundsCompiled(1), std::logic_error);
}

// ------------------------------------------------------------------------
// The parallel round sweep: one schedule per algorithm, which
// compile_rounds must leave unchanged under the host's own kernel table.
// (The parallel drivers draw from per-node RNG streams, the sequential
// ones from the shared stream, so the two families are distinct
// trajectories.)

std::unique_ptr<DmfsgdSimulation> RunParallel(const Dataset& dataset,
                                              const SimulationConfig& config,
                                              std::size_t rounds,
                                              std::size_t threads) {
  auto simulation = std::make_unique<DmfsgdSimulation>(dataset, config);
  common::ThreadPool pool(threads);
  simulation->RunRoundsParallel(rounds, pool);
  return simulation;
}

TEST(CompiledRound, ParallelSweepIgnoresCompileRoundsUnderTheActiveTable) {
  const ActiveIsaGuard detected(linalg::DetectKernelIsa());
  for (const bool abw : {false, true}) {
    const Dataset dataset = abw ? SmallAbw() : SmallRtt();
    SimulationConfig config = BaseConfig(dataset);
    config.message_loss = 0.1;
    config.churn_rate = 0.01;
    SimulationConfig compiled_config = config;
    compiled_config.compile_rounds = true;
    for (const std::size_t threads : {1u, 4u}) {
      const auto plain = RunParallel(dataset, config, 40, threads);
      const auto compiled = RunParallel(dataset, compiled_config, 40, threads);
      ExpectBitIdentical(*plain, *compiled,
                         abw ? "abw parallel sweep" : "rtt parallel sweep");
    }
  }
}

// ------------------------------------------------------------------------
// Window compile: the async drain's multi-item reply envelopes run
// through the fused executor; singletons and requests stay per-message.

AsyncSimulationConfig ConstantDelayAsync(std::size_t burst, bool coalesce,
                                         bool compile) {
  AsyncSimulationConfig config;
  config.base.rank = 10;
  config.base.neighbor_count = 8;
  config.base.tau = 50.0;
  config.base.seed = 11;
  config.base.probe_burst = burst;
  config.base.coalesce_delivery = coalesce;
  config.base.compile_rounds = compile;
  config.mean_probe_interval_s = 1.0;
  // min == max: a burst's replies converge at one instant, so each
  // envelope carries the whole burst — the window-compile target.
  config.min_oneway_delay_s = 0.05;
  config.max_oneway_delay_s = 0.05;
  return config;
}

void ExpectAsyncBitIdentical(const AsyncDmfsgdSimulation& a,
                             const AsyncDmfsgdSimulation& b,
                             const char* what) {
  const auto u_a = a.engine().store().UData();
  const auto u_b = b.engine().store().UData();
  const auto v_a = a.engine().store().VData();
  const auto v_b = b.engine().store().VData();
  ASSERT_EQ(u_a.size(), u_b.size()) << what;
  EXPECT_EQ(std::memcmp(u_a.data(), u_b.data(), u_a.size_bytes()), 0)
      << what << ": U diverged";
  EXPECT_EQ(std::memcmp(v_a.data(), v_b.data(), v_a.size_bytes()), 0)
      << what << ": V diverged";
  EXPECT_EQ(a.engine().MeasurementCount(), b.engine().MeasurementCount())
      << what;
  EXPECT_EQ(a.engine().DroppedLegs(), b.engine().DroppedLegs()) << what;
  EXPECT_EQ(a.engine().ChurnCount(), b.engine().ChurnCount()) << what;
}

TEST(CompiledWindows, AsyncBurstEnvelopesBitIdenticalToPerMessage) {
  const ActiveIsaGuard scalar(linalg::KernelIsa::kScalar);
  const Dataset abw = DenseAbw(48, 5);
  AsyncDmfsgdSimulation per_message(abw, ConstantDelayAsync(4, false, false));
  AsyncDmfsgdSimulation compiled(abw, ConstantDelayAsync(4, true, true));
  per_message.RunUntil(40.0);
  compiled.RunUntil(40.0);
  ExpectAsyncBitIdentical(per_message, compiled, "abw windows");
  // Same traffic through fewer, fatter events — otherwise nothing was
  // actually window-compiled.
  EXPECT_LT(compiled.EventsExecuted(), per_message.EventsExecuted());
}

TEST(CompiledWindows, LegLossShrinksEnvelopesWithoutBreakingParity) {
  const ActiveIsaGuard scalar(linalg::KernelIsa::kScalar);
  const Dataset abw = DenseAbw(48, 7);
  auto base = ConstantDelayAsync(4, false, false);
  base.base.message_loss = 0.15;
  auto compile = ConstantDelayAsync(4, true, true);
  compile.base.message_loss = 0.15;
  AsyncDmfsgdSimulation per_message(abw, base);
  AsyncDmfsgdSimulation compiled(abw, compile);
  per_message.RunUntil(40.0);
  compiled.RunUntil(40.0);
  EXPECT_GT(compiled.engine().DroppedLegs(), 0u);
  ExpectAsyncBitIdentical(per_message, compiled, "abw windows + loss");
}

TEST(CompiledWindows, SingletonEnvelopesDegradeToPerMessage) {
  // Continuous RTT delays: merges are rare-to-absent, every envelope is a
  // singleton, and the compile branch must fall through untouched.
  const ActiveIsaGuard scalar(linalg::KernelIsa::kScalar);
  const Dataset rtt = SmallRtt();
  AsyncSimulationConfig base;
  base.base.rank = 10;
  base.base.neighbor_count = 8;
  base.base.tau = rtt.MedianValue();
  base.base.seed = 23;
  auto compile = base;
  compile.base.coalesce_delivery = true;
  compile.base.compile_rounds = true;
  AsyncDmfsgdSimulation per_message(rtt, base);
  AsyncDmfsgdSimulation compiled(rtt, compile);
  per_message.RunUntil(30.0);
  compiled.RunUntil(30.0);
  ExpectAsyncBitIdentical(per_message, compiled, "rtt singletons");
}

TEST(CompiledWindows, SyncCoalescedBurstsKeepCompileParity) {
  // probe_burst > 1 with coalesced delivery is NOT bit-identical to the
  // per-message round driver (DESIGN.md §13) — but turning the compiler
  // on must not change the coalesced result by a single bit.
  const ActiveIsaGuard scalar(linalg::KernelIsa::kScalar);
  const Dataset abw = DenseAbw(48, 5);
  SimulationConfig config = BaseConfig(abw);
  config.tau = 50.0;
  config.probe_burst = 4;
  config.message_loss = 0.05;
  config.coalesce_delivery = true;
  SimulationConfig compiled_config = config;
  compiled_config.compile_rounds = true;
  DmfsgdSimulation coalesced(abw, config);
  DmfsgdSimulation compiled(abw, compiled_config);
  coalesced.RunRounds(25);
  compiled.RunRounds(25);
  ExpectBitIdentical(coalesced, compiled, "sync burst windows");
}

TEST(CompiledWindows, MiniBatchFoldingTakesPrecedence) {
  // gradient_batch_size > 1 selects the mini-batch fold, not the window
  // compiler; compile_rounds must then be a no-op on the receive path.
  const ActiveIsaGuard scalar(linalg::KernelIsa::kScalar);
  const Dataset abw = DenseAbw(48, 5);
  auto batched = ConstantDelayAsync(4, true, false);
  batched.base.gradient_batch_size = 4;
  auto both = ConstantDelayAsync(4, true, true);
  both.base.gradient_batch_size = 4;
  AsyncDmfsgdSimulation reference(abw, batched);
  AsyncDmfsgdSimulation compiled(abw, both);
  reference.RunUntil(30.0);
  compiled.RunUntil(30.0);
  ExpectAsyncBitIdentical(reference, compiled, "mini-batch precedence");
}

// ------------------------------------------------------------------------
// Vector kernel tables: the dots reduce lanes in a different (fixed)
// order, so coordinates may differ in low bits — counters are pure RNG
// state and must not move, and the deployment must still learn.

TEST(CompiledRoundSimd, VectorTableKeepsCountersAndLearns) {
  linalg::KernelIsa vector_isa = linalg::KernelIsa::kScalar;
  for (const linalg::KernelIsa isa :
       {linalg::KernelIsa::kAvx512, linalg::KernelIsa::kAvx2}) {
    if (linalg::KernelIsaSupported(isa)) {
      vector_isa = isa;
      break;
    }
  }
  if (vector_isa == linalg::KernelIsa::kScalar) {
    GTEST_SKIP() << "no vector kernel table compiled+supported on this host";
  }
  const Dataset dataset = SmallRtt();
  SimulationConfig config = BaseConfig(dataset);
  config.message_loss = 0.1;
  DmfsgdSimulation scalar_run(dataset, config);
  DmfsgdSimulation vector_run(dataset, config);
  {
    const ActiveIsaGuard scalar(linalg::KernelIsa::kScalar);
    scalar_run.RunRoundsCompiled(300);
  }
  {
    const ActiveIsaGuard vector(vector_isa);
    vector_run.RunRoundsCompiled(300);
  }
  EXPECT_EQ(scalar_run.MeasurementCount(), vector_run.MeasurementCount());
  EXPECT_EQ(scalar_run.DroppedLegs(), vector_run.DroppedLegs());
  EXPECT_EQ(scalar_run.ChurnCount(), vector_run.ChurnCount());
  const auto pairs = eval::CollectScoredPairs(vector_run);
  EXPECT_GT(eval::Auc(eval::Scores(pairs), eval::Labels(pairs)), 0.85);
}

// ------------------------------------------------------------------------
// Procedural datasets drive the bench-scale compiled rounds; pin the
// parity there too (small n — the property, not the scale).

TEST(CompiledRound, ProceduralDatasetKeepsParity) {
  const ActiveIsaGuard scalar(linalg::KernelIsa::kScalar);
  datasets::EuclideanRttConfig procedural;
  procedural.node_count = 96;
  procedural.seed = 3;
  const Dataset dataset = datasets::MakeEuclideanRtt(procedural);
  SimulationConfig config;
  config.rank = 10;
  config.neighbor_count = 16;
  config.tau = datasets::SampledMedianValue(dataset);
  config.seed = 5;
  config.message_loss = 0.1;
  ExpectCompiledMatchesPerMessage(dataset, config, 30, "procedural rtt");
}

}  // namespace
}  // namespace dmfsgd::core
