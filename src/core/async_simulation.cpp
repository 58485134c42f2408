#include "core/async_simulation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "netsim/shard_runtime.hpp"

namespace dmfsgd::core {

namespace {

using datasets::Metric;

const AsyncSimulationConfig& Validate(const AsyncSimulationConfig& config) {
  if (config.shard_count == 0) {
    throw std::invalid_argument(
        "AsyncDmfsgdSimulation: shard_count must be >= 1");
  }
  if (!(config.mean_probe_interval_s > 0.0)) {
    throw std::invalid_argument(
        "AsyncDmfsgdSimulation: mean_probe_interval_s must be > 0");
  }
  // An infinite bound would strand every message it delays in flight.
  if (!(config.min_oneway_delay_s > 0.0) ||
      !(std::isfinite(config.max_oneway_delay_s) &&
        config.max_oneway_delay_s >= config.min_oneway_delay_s)) {
    throw std::invalid_argument("AsyncDmfsgdSimulation: bad one-way delay range");
  }
  return config;
}

/// Row-major `shards` x `shards` cells as a lookahead matrix.
netsim::LookaheadMatrix LookaheadMatrixOf(const std::vector<double>& cells,
                                          std::size_t shards) {
  netsim::LookaheadMatrix matrix(shards, std::numeric_limits<double>::infinity());
  for (std::size_t from = 0; from < shards; ++from) {
    for (std::size_t to = 0; to < shards; ++to) {
      matrix.Set(from, to, cells[from * shards + to]);
    }
  }
  return matrix;
}

}  // namespace

AsyncDmfsgdSimulation::AsyncDmfsgdSimulation(const datasets::Dataset& dataset,
                                             const AsyncSimulationConfig& config,
                                             const ErrorInjector* injector)
    : config_(Validate(config)),
      events_(dataset.NodeCount(), config.shard_count),
      delayed_(events_,
               [this](NodeId i, NodeId j) { return OneWayDelay(i, j); },
               config.base.coalesce_delivery),
      engine_(dataset, config.base, injector,
              StackChannel(delayed_, wire_, config.base.use_wire_format)),
      lookahead_s_(config.min_oneway_delay_s) {
  delay_seed_ = engine_.rng()();
  if (dataset.metric == Metric::kRtt) {
    // One ground-truth scan of the pairs a message can cross feeds both
    // lookaheads (DESIGN.md §12).  The minimum of the block minima is the
    // same double the minimum RTT over those pairs converts to: halving and
    // the ms -> s scaling are monotone, so they commute with min.
    const std::vector<double> cells = BlockMinimumDelays();
    lookahead_s_ = *std::min_element(cells.begin(), cells.end());
    pair_lookaheads_ = LookaheadMatrixOf(cells, events_.ShardCount());
  } else {
    // ABW delays are hash-drawn from [min, max): the configured lower bound
    // holds for every pair, so no scan is needed.
    pair_lookaheads_ = netsim::LookaheadMatrix(events_.ShardCount(), lookahead_s_);
  }

  // Kick off every node's probe loop with a random initial phase so the
  // Poisson processes don't fire in lockstep at t = 0.
  for (NodeId i = 0; i < engine_.NodeCount(); ++i) {
    ScheduleNextProbe(i);
  }
}

double AsyncDmfsgdSimulation::OneWayDelay(NodeId i, NodeId j) const {
  if (engine_.dataset().metric == Metric::kRtt) {
    return engine_.dataset().Quantity(i, j) / 2.0 / 1000.0;  // ms -> s
  }
  // ABW datasets carry no delay; derive a symmetric per-pair delay from a
  // keyed hash so repeated exchanges see a consistent network.
  const std::uint64_t lo = std::min<std::uint64_t>(i, j);
  const std::uint64_t hi = std::max<std::uint64_t>(i, j);
  std::uint64_t state = delay_seed_ ^ (lo * 0x9e3779b97f4a7c15ULL + hi);
  common::Rng pair_rng(common::SplitMix64Next(state));
  return pair_rng.Uniform(config_.min_oneway_delay_s, config_.max_oneway_delay_s);
}

void AsyncDmfsgdSimulation::ScheduleNextProbe(NodeId i) {
  // Think times come from the engine stream normally and from the node's
  // private stream during a sharded drain, so a draining node's timer chain
  // stays a pure function of its own history.
  common::Rng& rng =
      engine_.ShardedDrainActive() ? engine_.NodeRng(i) : engine_.rng();
  const double wait = rng.Exponential(1.0 / config_.mean_probe_interval_s);
  events_.Schedule(i, wait, [this, i] {
    StartProbe(i);
    ScheduleNextProbe(i);
  });
}

void AsyncDmfsgdSimulation::StartProbe(NodeId i) {
  // Per-probe churn roll: the async analogue of the round-based driver's
  // per-round sweep (each node fires about once per mean interval).  The
  // roll covers the whole burst — one membership decision per firing.
  common::Rng& rng =
      engine_.ShardedDrainActive() ? engine_.NodeRng(i) : engine_.rng();
  (void)engine_.MaybeChurnNodeWith(i, rng);
  for (std::size_t b = 0; b < engine_.config().probe_burst; ++b) {
    const NodeId j = engine_.PickNeighborWith(i, rng);
    engine_.StartExchange(i, j, std::nullopt);
  }
}

void AsyncDmfsgdSimulation::RunUntil(double until_s) {
  if (until_s < events_.Now()) {
    throw std::invalid_argument("AsyncDmfsgdSimulation::RunUntil: time in the past");
  }
  events_.RunUntil(until_s);
}

std::vector<double> AsyncDmfsgdSimulation::BlockMinimumDelays() const {
  // Cell (a, b) = the minimum delay any message from block a to block b can
  // experience, over the ordered pairs a message can cross; block pairs no
  // such pair joins keep +infinity, as no event ever crosses them.  A
  // request goes from prober to neighbour and its reply comes back, so
  // without churn those are both directions of every neighbour pair: O(n·k)
  // pairs.  Churn redraws a neighbour set from every known node, so with it
  // on the scan covers all ordered known pairs, O(n²).  Each direction is
  // scanned: an RTT matrix may differ slightly between (i, j) and (j, i).
  const datasets::Dataset& dataset = engine_.dataset();
  const std::size_t shards = events_.ShardCount();
  std::vector<double> cells(shards * shards,
                            std::numeric_limits<double>::infinity());
  const auto fold = [&](NodeId from, NodeId to) {
    if (!dataset.IsKnown(from, to)) {
      return;
    }
    double& cell = cells[events_.ShardOf(from) * shards + events_.ShardOf(to)];
    cell = std::min(cell, OneWayDelay(from, to));
  };
  if (engine_.config().churn_rate > 0.0) {
    const auto n = static_cast<NodeId>(dataset.NodeCount());
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = 0; j < n; ++j) {
        if (i != j) {
          fold(i, j);
        }
      }
    }
  } else {
    const std::vector<std::vector<NodeId>>& neighbors = engine_.Neighbors();
    for (NodeId i = 0; i < neighbors.size(); ++i) {
      for (const NodeId j : neighbors[i]) {
        fold(i, j);
        fold(j, i);
      }
    }
  }
  return cells;
}

void AsyncDmfsgdSimulation::RunUntilParallel(double until_s,
                                             common::ThreadPool& pool) {
  if (until_s < events_.Now()) {
    throw std::invalid_argument(
        "AsyncDmfsgdSimulation::RunUntilParallel: time in the past");
  }
  engine_.BeginShardedDrain();
  try {
    events_.RunUntilParallel(until_s, pool, pair_lookaheads_);
  } catch (...) {
    engine_.EndShardedDrain();
    throw;
  }
  engine_.EndShardedDrain();
}

void AsyncDmfsgdSimulation::RunUntilDistributed(double until_s,
                                                common::ThreadPool& pool,
                                                netsim::ShardRuntime& runtime) {
  if (until_s < events_.Now()) {
    throw std::invalid_argument(
        "AsyncDmfsgdSimulation::RunUntilDistributed: time in the past");
  }
  engine_.BeginShardedDrain();
  try {
    runtime.RunUntil(until_s, pool);
  } catch (...) {
    engine_.EndShardedDrain();
    throw;
  }
  engine_.EndShardedDrain();
}

}  // namespace dmfsgd::core
