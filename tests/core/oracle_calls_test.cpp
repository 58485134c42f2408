// Oracle-call accounting for the engine's memoized training targets.
//
// Each node probes a fixed set of k neighbors, so the engine stores the
// training target of a neighbor pair at its first probe and reads it back on
// every later probe (DESIGN.md §14).  These tests wrap a procedural dataset's
// quantity function with per-pair call counters and pin when the oracle is
// asked:
//
//  * without churn, once per distinct neighbor pair probed — on every round
//    path, at pools 1 and 4, for both exchange algorithms;
//  * with churn, again only for the slots a churned node refills;
//  * never for an observed (trace or ingested) quantity, which trains its own
//    exchange and leaves the next static probe of the pair untouched;
//  * on every probe of a pair outside the prober's neighbor set.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/async_simulation.hpp"
#include "core/simulation.hpp"
#include "datasets/procedural.hpp"

namespace dmfsgd::core {
namespace {

using datasets::Dataset;

constexpr std::size_t kNodes = 200;
constexpr std::size_t kNeighbors = 10;

/// Per ordered pair call counts of a wrapped quantity function.
class OracleCounter {
 public:
  explicit OracleCounter(std::size_t n) : n_(n), calls_(n * n) {}

  void Record(std::size_t i, std::size_t j) {
    calls_[i * n_ + j].fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint32_t Calls(std::size_t i, std::size_t j) const {
    return calls_[i * n_ + j].load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t Total() const {
    std::uint64_t total = 0;
    for (const auto& calls : calls_) {
      total += calls.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (auto& calls : calls_) {
      calls.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::size_t n_;
  std::vector<std::atomic<std::uint32_t>> calls_;
};

/// `dataset` with its quantity function routed through `counter`.
Dataset Counted(Dataset dataset, std::shared_ptr<OracleCounter> counter) {
  dataset.quantity_fn = [inner = std::move(dataset.quantity_fn),
                         counter = std::move(counter)](std::size_t i,
                                                       std::size_t j) {
    counter->Record(i, j);
    return inner(i, j);
  };
  return dataset;
}

Dataset BaseRtt() {
  datasets::EuclideanRttConfig config;
  config.node_count = kNodes;
  config.seed = 77;
  return datasets::MakeEuclideanRtt(config);
}

/// A procedural ABW space: asymmetric, every off-diagonal pair known.
Dataset BaseAbw() {
  auto values = std::make_shared<std::vector<double>>(kNodes * kNodes);
  common::Rng rng(91);
  for (double& value : *values) {
    value = rng.Uniform(5.0, 100.0);
  }
  Dataset dataset;
  dataset.name = "procedural-abw";
  dataset.metric = datasets::Metric::kAbw;
  dataset.procedural_nodes = kNodes;
  dataset.quantity_fn = [values](std::size_t i, std::size_t j) {
    return (*values)[i * kNodes + j];
  };
  return dataset;
}

SimulationConfig Config(double tau) {
  SimulationConfig config;
  config.rank = 10;
  config.neighbor_count = kNeighbors;
  config.tau = tau;
  config.seed = 13;
  return config;
}

/// Asserts that every oracle call since the last reset hit a distinct
/// neighbor pair, and returns how many there were.
std::uint64_t ExpectOncePerNeighborPair(const OracleCounter& counter,
                                        const DmfsgdSimulation& simulation) {
  std::uint64_t pairs = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (std::size_t j = 0; j < kNodes; ++j) {
      const std::uint32_t calls = counter.Calls(i, j);
      if (calls == 0) {
        continue;
      }
      EXPECT_EQ(calls, 1u) << "pair (" << i << ", " << j << ")";
      EXPECT_TRUE(simulation.IsNeighborPair(i, j))
          << "pair (" << i << ", " << j << ")";
      ++pairs;
    }
  }
  return pairs;
}

enum class Path { kParallel, kCompiledParallel, kRounds, kCompiled };

void RunPath(DmfsgdSimulation& simulation, Path path, std::size_t rounds,
             common::ThreadPool& pool) {
  switch (path) {
    case Path::kParallel:
    case Path::kCompiledParallel:
      simulation.RunRoundsParallel(rounds, pool);
      break;
    case Path::kRounds:
      simulation.RunRounds(rounds);
      break;
    case Path::kCompiled:
      simulation.RunRoundsCompiled(rounds);
      break;
  }
}

/// Enough rounds that every one of the n·k neighbor slots gets probed.
constexpr std::size_t kRounds = 200;

void ExpectOneCallPerNeighborPair(const Dataset& base, double tau, Path path,
                                  std::size_t threads) {
  auto counter = std::make_shared<OracleCounter>(kNodes);
  const Dataset dataset = Counted(base, counter);
  SimulationConfig config = Config(tau);
  config.compile_rounds = path == Path::kCompiledParallel;
  DmfsgdSimulation simulation(dataset, config);
  common::ThreadPool pool(threads);
  RunPath(simulation, path, kRounds, pool);

  EXPECT_EQ(simulation.MeasurementCount(), kRounds * kNodes);
  EXPECT_EQ(ExpectOncePerNeighborPair(*counter, simulation),
            counter->Total());
  EXPECT_EQ(counter->Total(), kNodes * kNeighbors);
}

TEST(OracleCalls, RttRoundPathsAskOncePerNeighborPair) {
  const Dataset base = BaseRtt();
  const double tau = datasets::SampledMedianValue(base);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    ExpectOneCallPerNeighborPair(base, tau, Path::kParallel, threads);
    ExpectOneCallPerNeighborPair(base, tau, Path::kCompiledParallel, threads);
  }
  ExpectOneCallPerNeighborPair(base, tau, Path::kRounds, 1);
  ExpectOneCallPerNeighborPair(base, tau, Path::kCompiled, 1);
}

TEST(OracleCalls, AbwRoundPathsAskOncePerNeighborPair) {
  const Dataset base = BaseAbw();
  const double tau = datasets::SampledMedianValue(base);
  ExpectOneCallPerNeighborPair(base, tau, Path::kParallel, 4);
  ExpectOneCallPerNeighborPair(base, tau, Path::kCompiledParallel, 4);
  ExpectOneCallPerNeighborPair(base, tau, Path::kRounds, 1);
  ExpectOneCallPerNeighborPair(base, tau, Path::kCompiled, 1);
}

/// Runs `rounds` one at a time with churn and checks, round by round, that
/// the oracle is asked only for pairs new to the prober's current neighbor
/// set: a node that churned (its neighbor set changed) refills its slots,
/// every other node's calls stay at one per pair.  Stores the total calls.
void ExpectRefillsOnlyUnderChurn(const Dataset& base, double tau, bool compile,
                                 std::size_t threads, std::uint64_t& total) {
  auto counter = std::make_shared<OracleCounter>(kNodes);
  const Dataset dataset = Counted(base, counter);
  SimulationConfig config = Config(tau);
  config.churn_rate = 0.01;
  config.compile_rounds = compile;
  DmfsgdSimulation simulation(dataset, config);
  common::ThreadPool pool(threads);

  // seen[i]: pairs (i, j) asked since node i's neighbor set last changed.
  std::vector<std::set<std::size_t>> seen(kNodes);
  std::vector<std::uint32_t> before(kNodes * kNodes, 0);
  for (std::size_t round = 0; round < kRounds; ++round) {
    const auto neighbors_before = simulation.Neighbors();
    const std::size_t churns_before = simulation.ChurnCount();
    simulation.RunRoundsParallel(1, pool);
    std::size_t churned = 0;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (simulation.Neighbors()[i] != neighbors_before[i]) {
        ++churned;
        seen[i].clear();  // the churn sweep runs before this round's probes
      }
      for (std::size_t j = 0; j < kNodes; ++j) {
        const std::uint32_t calls = counter->Calls(i, j);
        const std::uint32_t fresh = calls - before[i * kNodes + j];
        before[i * kNodes + j] = calls;
        if (fresh == 0) {
          continue;
        }
        ASSERT_EQ(fresh, 1u) << "round " << round << " pair (" << i << ", " << j
                             << ")";
        ASSERT_TRUE(simulation.IsNeighborPair(i, j));
        ASSERT_TRUE(seen[i].insert(j).second)
            << "round " << round << ": pair (" << i << ", " << j
            << ") asked twice within one neighbor set";
      }
    }
    EXPECT_EQ(churned, simulation.ChurnCount() - churns_before);
  }
  EXPECT_GT(simulation.ChurnCount(), 0u);
  EXPECT_LE(counter->Total(),
            kNodes * kNeighbors + simulation.ChurnCount() * kNeighbors);
  total = counter->Total();
}

TEST(OracleCalls, ChurnAddsOnlyTheRefills) {
  const Dataset rtt = BaseRtt();
  const double rtt_tau = datasets::SampledMedianValue(rtt);
  const Dataset abw = BaseAbw();
  const double abw_tau = datasets::SampledMedianValue(abw);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    std::uint64_t plain = 0;
    std::uint64_t compiled = 0;
    std::uint64_t abw_total = 0;
    ExpectRefillsOnlyUnderChurn(rtt, rtt_tau, false, threads, plain);
    ExpectRefillsOnlyUnderChurn(rtt, rtt_tau, true, threads, compiled);
    EXPECT_EQ(compiled, plain);
    ExpectRefillsOnlyUnderChurn(abw, abw_tau, false, threads, abw_total);
  }
}

TEST(OracleCalls, ObservedIngestBypassesTheTable) {
  auto counter = std::make_shared<OracleCounter>(kNodes);
  const Dataset base = BaseRtt();
  const Dataset dataset = Counted(base, counter);
  SimulationConfig config = Config(datasets::SampledMedianValue(base));
  config.mode = PredictionMode::kRegression;
  config.params.loss = LossKind::kL2;

  DmfsgdSimulation simulation(dataset, config);
  const NodeId i = 3;
  const NodeId j = simulation.Neighbors()[i][0];
  const double truth = base.Quantity(i, j);

  // An observed quantity trains its exchange without asking the oracle.
  ASSERT_TRUE(simulation.Ingest(i, j, 5.0 * truth));
  EXPECT_EQ(counter->Total(), 0u);

  // The next static probe asks the oracle (nothing was stored) and trains on
  // its value, exactly as an observed ingest of the true quantity would.
  DmfsgdSimulation reference(base, config);
  ASSERT_TRUE(reference.Ingest(i, j, 5.0 * truth));
  ASSERT_TRUE(reference.Ingest(i, j, truth));
  ASSERT_TRUE(simulation.Ingest(i, j, std::nullopt));
  EXPECT_EQ(counter->Calls(i, j), 1u);
  const auto& store = simulation.engine().store();
  const auto& expected = reference.engine().store();
  EXPECT_EQ(std::memcmp(store.UData().data(), expected.UData().data(),
                        store.UData().size_bytes()),
            0);
  EXPECT_EQ(std::memcmp(store.VData().data(), expected.VData().data(),
                        store.VData().size_bytes()),
            0);

  // Later static probes read the stored target without asking the oracle,
  // and so does the observed ingest between them.
  ASSERT_TRUE(simulation.Ingest(i, j, std::nullopt));
  ASSERT_TRUE(simulation.Ingest(i, j, 0.5 * truth));
  ASSERT_TRUE(simulation.Ingest(i, j, std::nullopt));
  EXPECT_EQ(counter->Total(), 1u);

  // A pair outside the prober's neighbor set is asked on every probe.
  NodeId outsider = 0;
  while (outsider == i || simulation.IsNeighborPair(i, outsider)) {
    ++outsider;
  }
  ASSERT_TRUE(simulation.Ingest(i, outsider, std::nullopt));
  ASSERT_TRUE(simulation.Ingest(i, outsider, std::nullopt));
  EXPECT_EQ(counter->Calls(i, outsider), 2u);
}

AsyncSimulationConfig DrainConfig(double tau) {
  AsyncSimulationConfig config;
  config.base = Config(tau);
  config.base.churn_rate = 0.01;
  config.shard_count = 2;
  return config;
}

TEST(OracleCalls, ShardedRttDrainAsksOnlyFirstProbes) {
  auto counter = std::make_shared<OracleCounter>(kNodes);
  const Dataset base = BaseRtt();
  const Dataset dataset = Counted(base, counter);
  AsyncDmfsgdSimulation simulation(
      dataset, DrainConfig(datasets::SampledMedianValue(base)));
  counter->Reset();  // the constructor scans every pair for its lookaheads
  common::ThreadPool pool(4);
  simulation.RunUntilParallel(100.0, pool);

  // An RTT drain also asks the oracle for each message's one-way delay, at
  // send time.  Without loss every started exchange sent its request and
  // every applied measurement's request was delivered and answered, so at
  // least 2M + F delay calls were made (M measurements applied, F exchanges
  // still in flight).  What remains are the probers' target reads: the n·k
  // first probes, the k slots each churn refills, and the replies a churn
  // left in flight, which the oracle answers unstored (on average well under
  // one per churn: a node fires about once a second, and an RTT here is a
  // small fraction of that).
  const std::uint64_t m = simulation.MeasurementCount();
  const std::uint64_t f = simulation.InFlight();
  const std::uint64_t churns = simulation.ChurnCount();
  ASSERT_GT(churns, 0u);
  ASSERT_GE(counter->Total(), 2 * m + f);
  const std::uint64_t target_reads = counter->Total() - (2 * m + f);
  EXPECT_LE(target_reads, kNodes * kNeighbors + churns * (kNeighbors + 1));
  EXPECT_LT(4 * target_reads, m);
}

TEST(OracleCalls, ShardedAbwDrainReadsTheOracleAtTheTarget) {
  // Algorithm 2 measures at the target, whose shard does not own the
  // prober's row of the table, so a sharded drain asks the oracle for every
  // measurement.  ABW delays come from a pair hash, not the oracle.
  auto counter = std::make_shared<OracleCounter>(kNodes);
  const Dataset base = BaseAbw();
  const Dataset dataset = Counted(base, counter);
  AsyncDmfsgdSimulation simulation(
      dataset, DrainConfig(datasets::SampledMedianValue(base)));
  common::ThreadPool pool(4);
  simulation.RunUntilParallel(100.0, pool);
  EXPECT_GT(simulation.ChurnCount(), 0u);
  EXPECT_EQ(counter->Total(), simulation.MeasurementCount());
}

}  // namespace
}  // namespace dmfsgd::core
