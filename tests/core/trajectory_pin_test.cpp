// Trajectory pins: FNV-1a digests of the learned factors U and V after a
// fixed number of rounds, compared against digests recorded once.
//
// The parity suites pin execution paths against each other (compiled vs
// per-message, pool 1 vs pool 4), so a change that shifts every path's
// trajectory the same way passes all of them.  These pins catch that case:
// each digest is the engine's output on a fixed scenario under the scalar
// kernel table, recorded from the code as it stood before the change under
// test.  Re-record a digest only by running this test at a change's parent
// commit — never to make a change pass.
//
// Covered: the sequential, parallel (pools 1 and 4), compiled and compiled
// parallel round paths on a procedural RTT space in five configurations;
// an ABW run with loss and churn; the mini-batch and window-compile reply
// folds; a Harvard trace window replayed before static rounds; and 2-shard
// parallel event drains.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/async_simulation.hpp"
#include "core/error_injection.hpp"
#include "core/simulation.hpp"
#include "datasets/harvard.hpp"
#include "datasets/hps3.hpp"
#include "datasets/procedural.hpp"
#include "linalg/kernels.hpp"

namespace dmfsgd::core {
namespace {

using datasets::Dataset;

constexpr std::size_t kRounds = 40;

/// Pins the scalar kernel table for a test body and restores the
/// previously active table on exit.
class ScalarKernels {
 public:
  ScalarKernels() : saved_(linalg::ActiveKernelIsa()) {
    linalg::SetKernelIsa(linalg::KernelIsa::kScalar);
  }
  ~ScalarKernels() { linalg::SetKernelIsa(saved_); }
  ScalarKernels(const ScalarKernels&) = delete;
  ScalarKernels& operator=(const ScalarKernels&) = delete;

 private:
  linalg::KernelIsa saved_;
};

/// FNV-1a 64 over the bytes of U, then V.
std::uint64_t FactorDigest(const CoordinateStore& store) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::span<const double> part : {store.UData(), store.VData()}) {
    for (const double value : part) {
      unsigned char bytes[sizeof(double)];
      std::memcpy(bytes, &value, sizeof bytes);
      for (const unsigned char byte : bytes) {
        hash = (hash ^ byte) * 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

std::string Hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

void ExpectDigest(const CoordinateStore& store, std::uint64_t expected,
                  const std::string& what) {
  EXPECT_EQ(Hex(FactorDigest(store)), Hex(expected)) << what;
}

const Dataset& EuclideanRtt512() {
  static const Dataset dataset = [] {
    datasets::EuclideanRttConfig config;
    config.node_count = 512;
    config.seed = 2011;
    return datasets::MakeEuclideanRtt(config);
  }();
  return dataset;
}

const Dataset& HpS3() {
  static const Dataset dataset = datasets::MakeHpS3();
  return dataset;
}

SimulationConfig BaseConfig(double tau) {
  SimulationConfig config;
  config.rank = 10;
  config.neighbor_count = 10;
  config.tau = tau;
  config.seed = 17;
  return config;
}

enum class Path {
  kRounds,
  kParallel1,
  kParallel4,
  kCompiled,
  kCompiledParallel,
};

const char* PathName(Path path) {
  switch (path) {
    case Path::kRounds:
      return "RunRounds";
    case Path::kParallel1:
      return "RunRoundsParallel(pool 1)";
    case Path::kParallel4:
      return "RunRoundsParallel(pool 4)";
    case Path::kCompiled:
      return "RunRoundsCompiled";
    case Path::kCompiledParallel:
      return "compiled parallel sweep (pool 4)";
  }
  return "?";
}

std::uint64_t RunPath(const Dataset& dataset, SimulationConfig config,
                      Path path, const ErrorInjector* injector = nullptr) {
  config.compile_rounds = path == Path::kCompiledParallel;
  DmfsgdSimulation simulation(dataset, config, injector);
  switch (path) {
    case Path::kRounds:
      simulation.RunRounds(kRounds);
      break;
    case Path::kParallel1: {
      common::ThreadPool pool(1);
      simulation.RunRoundsParallel(kRounds, pool);
      break;
    }
    case Path::kParallel4:
    case Path::kCompiledParallel: {
      common::ThreadPool pool(4);
      simulation.RunRoundsParallel(kRounds, pool);
      break;
    }
    case Path::kCompiled:
      simulation.RunRoundsCompiled(kRounds);
      break;
  }
  EXPECT_EQ(simulation.ChurnCount() > 0, config.churn_rate > 0.0)
      << PathName(path);
  return FactorDigest(simulation.engine().store());
}

/// One scenario's recorded digests: the sequential regime (RunRounds and
/// RunRoundsCompiled follow one trajectory) and the parallel regime (every
/// pool size, compiled or not, follows another).
struct RoundPins {
  std::uint64_t sequential;
  std::uint64_t parallel;
};

void ExpectRoundPins(const Dataset& dataset, const SimulationConfig& config,
                     const RoundPins& pins, const char* scenario,
                     const ErrorInjector* injector = nullptr) {
  for (const Path path : {Path::kRounds, Path::kParallel1, Path::kParallel4,
                          Path::kCompiled, Path::kCompiledParallel}) {
    const bool sequential = path == Path::kRounds || path == Path::kCompiled;
    const std::uint64_t expected = sequential ? pins.sequential : pins.parallel;
    EXPECT_EQ(Hex(RunPath(dataset, config, path, injector)), Hex(expected))
        << scenario << " via " << PathName(path);
  }
}

// ------------------------------------------------------------------------
// Round paths on a 512-node procedural RTT space

TEST(TrajectoryPin, RttClean) {
  const ScalarKernels scalar;
  const Dataset& dataset = EuclideanRtt512();
  const SimulationConfig config =
      BaseConfig(datasets::SampledMedianValue(dataset));
  const RoundPins pins{0xa6a4169332edb6ddULL, 0x2a9f263fb49a26d2ULL};
  ExpectRoundPins(dataset, config, pins, "clean");
}

TEST(TrajectoryPin, RttLossAndChurn) {
  const ScalarKernels scalar;
  const Dataset& dataset = EuclideanRtt512();
  SimulationConfig config = BaseConfig(datasets::SampledMedianValue(dataset));
  config.message_loss = 0.1;
  config.churn_rate = 0.01;
  const RoundPins pins{0x217bc7691b1b79fcULL, 0xd7c2e54e13b32f23ULL};
  ExpectRoundPins(dataset, config, pins, "loss+churn");
}

TEST(TrajectoryPin, RttLossDriven) {
  const ScalarKernels scalar;
  const Dataset& dataset = EuclideanRtt512();
  SimulationConfig config = BaseConfig(datasets::SampledMedianValue(dataset));
  config.strategy = ProbeStrategy::kLossDriven;
  const RoundPins pins{0x0de192984a1ebb50ULL, 0x3e581cb0f3f3e83fULL};
  ExpectRoundPins(dataset, config, pins, "loss-driven");
}

TEST(TrajectoryPin, RttRegression) {
  const ScalarKernels scalar;
  const Dataset& dataset = EuclideanRtt512();
  SimulationConfig config = BaseConfig(datasets::SampledMedianValue(dataset));
  config.mode = PredictionMode::kRegression;
  config.params.loss = LossKind::kL2;
  const RoundPins pins{0x531ff0ba97723dfeULL, 0xf5fccc7e80eb86deULL};
  ExpectRoundPins(dataset, config, pins, "regression");
}

TEST(TrajectoryPin, RttErrorInjector) {
  const ScalarKernels scalar;
  const Dataset& dataset = EuclideanRtt512();
  const SimulationConfig config =
      BaseConfig(datasets::SampledMedianValue(dataset));
  const std::vector<ErrorSpec> specs{{ErrorType::kFlipRandom, 0.0, 0.1}};
  const ErrorInjector injector(dataset, config.tau, specs, 23);
  const RoundPins pins{0x793f197df5ddfb09ULL, 0x75a2c704d5057d42ULL};
  ExpectRoundPins(dataset, config, pins, "error injector", &injector);
}

// ------------------------------------------------------------------------
// Algorithm 2 (ABW, target-measured) with loss and churn

TEST(TrajectoryPin, AbwLossAndChurn) {
  const ScalarKernels scalar;
  const Dataset& dataset = HpS3();
  SimulationConfig config = BaseConfig(dataset.MedianValue());
  config.message_loss = 0.1;
  config.churn_rate = 0.01;
  const RoundPins pins{0x982ffdfe85a840cfULL, 0xbe1658e6aa4fd505ULL};
  ExpectRoundPins(dataset, config, pins, "abw loss+churn");
}

// ------------------------------------------------------------------------
// Reply folds: a coalesced probe burst comes back as one envelope, which the
// engine folds into a mini-batch step or runs through the window compiler.

std::uint64_t RunBurst(const Dataset& dataset, SimulationConfig config,
                       bool compile) {
  config.probe_burst = 4;
  config.coalesce_delivery = true;
  config.message_loss = 0.1;
  config.churn_rate = 0.01;
  if (compile) {
    config.compile_rounds = true;
  } else {
    config.gradient_batch_size = 4;
  }
  DmfsgdSimulation simulation(dataset, config);
  simulation.RunRounds(kRounds / 4);
  return FactorDigest(simulation.engine().store());
}

TEST(TrajectoryPin, MiniBatchFolds) {
  const ScalarKernels scalar;
  const Dataset& rtt = EuclideanRtt512();
  EXPECT_EQ(Hex(RunBurst(rtt, BaseConfig(datasets::SampledMedianValue(rtt)),
                         /*compile=*/false)),
            Hex(0x30cae8859dccec51ULL))
      << "rtt";
  EXPECT_EQ(Hex(RunBurst(HpS3(), BaseConfig(HpS3().MedianValue()),
                         /*compile=*/false)),
            Hex(0xc9f23397b3a79c84ULL))
      << "abw";
}

TEST(TrajectoryPin, WindowCompileFolds) {
  const ScalarKernels scalar;
  const Dataset& rtt = EuclideanRtt512();
  EXPECT_EQ(Hex(RunBurst(rtt, BaseConfig(datasets::SampledMedianValue(rtt)),
                         /*compile=*/true)),
            Hex(0x0ad7c3f2ea8f83a7ULL))
      << "rtt";
  EXPECT_EQ(Hex(RunBurst(HpS3(), BaseConfig(HpS3().MedianValue()),
                         /*compile=*/true)),
            Hex(0xc486eec02f4a6dbdULL))
      << "abw";
}

// ------------------------------------------------------------------------
// Trace replay: observed values train the replayed exchanges; the static
// rounds that follow train on the median matrix.

TEST(TrajectoryPin, HarvardTraceWindowThenStaticRounds) {
  const ScalarKernels scalar;
  datasets::HarvardConfig harvard;
  harvard.trace_records = 20000;
  const Dataset dataset = datasets::MakeHarvard(harvard);
  const SimulationConfig config = BaseConfig(dataset.MedianValue());

  DmfsgdSimulation sequential(dataset, config);
  EXPECT_GT(sequential.ReplayTrace(0, 20000), 0u);
  sequential.RunRounds(kRounds);
  ExpectDigest(sequential.engine().store(), 0x337c221599710304ULL,
               "replay + RunRounds");

  DmfsgdSimulation parallel(dataset, config);
  EXPECT_GT(parallel.ReplayTrace(0, 20000), 0u);
  common::ThreadPool pool(4);
  parallel.RunRoundsParallel(kRounds, pool);
  ExpectDigest(parallel.engine().store(), 0x437536afb9b5530bULL,
               "replay + RunRoundsParallel(pool 4)");
}

// ------------------------------------------------------------------------
// 2-shard parallel event drains (RTT: the reply is measured at the prober)

void ExpectDrainPin(double loss, double churn, std::uint64_t expected,
                    const char* scenario) {
  const Dataset& dataset = EuclideanRtt512();
  AsyncSimulationConfig config;
  config.base = BaseConfig(datasets::SampledMedianValue(dataset));
  config.base.message_loss = loss;
  config.base.churn_rate = churn;
  config.shard_count = 2;
  for (const std::size_t threads : {1u, 4u}) {
    AsyncDmfsgdSimulation simulation(dataset, config);
    common::ThreadPool pool(threads);
    simulation.RunUntilParallel(30.0, pool);
    EXPECT_EQ(simulation.ChurnCount() > 0, churn > 0.0) << scenario;
    ExpectDigest(simulation.engine().store(), expected,
                 std::string(scenario) + ", pool " + std::to_string(threads));
  }
}

TEST(TrajectoryPin, ShardedDrain) {
  const ScalarKernels scalar;
  ExpectDrainPin(0.0, 0.0, 0x926a58a79ecf0caaULL, "clean drain");
  ExpectDrainPin(0.1, 0.01, 0x2cc05fa3e483f409ULL, "loss+churn drain");
}

}  // namespace
}  // namespace dmfsgd::core
