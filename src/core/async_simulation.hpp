// Asynchronous (event-driven) DMFSGD deployment driver.
//
// The round-based driver executes each probe exchange atomically; a real
// deployment does not: the request flies for one one-way delay, the reply
// for another, nodes keep probing while earlier exchanges are in flight, and
// every coordinate vector a node receives is a *snapshot taken at send
// time* — stale by the time it is consumed.  This driver runs the shared
// deployment core (core/engine.hpp) over a ShardedEventQueueDeliveryChannel
// to demonstrate (and let tests verify) that DMFSGD's convergence survives
// that asynchrony, which is what makes the paper's "fully decentralized,
// large-scale" claim credible.
//
// Because the protocol lives in the engine, everything the synchronous
// driver supports — probe strategies, churn, error injection, message loss,
// the wire codec — works identically here:
//
//  * each node fires probes according to an independent Poisson process
//    (exponential think time with the configured mean); churn is rolled per
//    probe firing, the async analogue of the per-round sweep; a firing
//    launches base.probe_burst exchanges (one membership roll covers the
//    burst), and with base.coalesce_delivery the channel merges the burst's
//    same-arrival replies into one batch envelope (DESIGN.md §13);
//  * one-way message delay for pair (i, j) is the ground-truth RTT / 2 for
//    RTT datasets; ABW datasets carry no delay information, so a symmetric
//    per-pair delay is derived deterministically from a pair-keyed hash in
//    the configured range;
//  * each protocol leg can be lost independently (message_loss), with
//    engine semantics shared verbatim with the synchronous driver.
//
// The event queue is partitioned by owner node (netsim::ShardedEventQueue):
// every event — a node's probe timer, a message delivery — runs in the shard
// of the node whose handler it is.  RunUntil drains the shards through a
// deterministic cross-shard merge (events fire in global (time, schedule
// order) for any shard count), and RunUntilParallel drains them concurrently
// in conservative windows bounded by the minimum one-way delay, with every
// node's randomness moved onto its private RNG stream (DESIGN.md §9).  The
// parallel drain is bit-identical for every pool size at a fixed shard
// count; its trajectory differs from the sequential drain (per-node vs
// shared RNG streams), exactly as the round driver's parallel sweep differs
// from its sequential rounds.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/engine.hpp"
#include "netsim/event_queue.hpp"

namespace dmfsgd::netsim {
class ShardRuntime;
}

namespace dmfsgd::core {

struct AsyncSimulationConfig {
  SimulationConfig base;              ///< rank, η/λ/loss, k, τ, seed, loss rate,
                                      ///< strategy, churn, wire format
  double mean_probe_interval_s = 1.0; ///< mean think time between a node's probes
  /// One-way delay bounds for metrics that don't define a delay (ABW).
  double min_oneway_delay_s = 0.010;
  double max_oneway_delay_s = 0.100;
  /// Event-queue shards (owner-node partitions).  The default of 1 keeps
  /// the sequential RunUntil at the single-heap cost and host-independent
  /// (the cross-shard merge scans one heap top per shard per event); set it
  /// to ~hardware concurrency — or 0, which resolves to exactly that — to
  /// give RunUntilParallel shards to drain concurrently.  The sequential
  /// RunUntil is shard-count-invariant; the parallel drain is bit-identical
  /// across pool sizes for a fixed value.
  std::size_t shard_count = 1;
  /// Bound parallel-drain windows with the per-shard-pair lookahead matrix
  /// (the minimum one-way delay between each pair of owner blocks,
  /// DESIGN.md §12) instead of the single global minimum.  Wider windows on
  /// heterogeneous delay spaces; the drain trajectory is bit-identical
  /// either way (windowing only reorders across shards, never within one).
  bool use_pair_lookaheads = true;
};

class AsyncDmfsgdSimulation {
 public:
  AsyncDmfsgdSimulation(const datasets::Dataset& dataset,
                        const AsyncSimulationConfig& config,
                        const ErrorInjector* injector = nullptr);

  /// Advances simulated time to `until_s`, executing all probe traffic due.
  void RunUntil(double until_s);

  /// Advances simulated time to `until_s` with the event shards drained
  /// concurrently over `pool`, in conservative windows bounded by the
  /// deployment's minimum one-way delay.  While draining, every node draws
  /// its randomness (think times, churn, neighbor choice, leg loss) from its
  /// private engine stream and all counters accumulate per node, so the
  /// result is bit-identical for every pool size (including 1) at a fixed
  /// shard_count.  May be freely interleaved with RunUntil; the two modes
  /// advance different RNG streams, so a run's trajectory is a deterministic
  /// function of the seed and the exact call sequence.
  void RunUntilParallel(double until_s, common::ThreadPool& pool);

  /// x̂_ij = u_i · v_j with the current (live) coordinates.
  [[nodiscard]] double Predict(std::size_t i, std::size_t j) const {
    return engine_.Predict(i, j);
  }

  [[nodiscard]] double Now() const noexcept { return events_.Now(); }
  /// Total events executed (probe timers + message deliveries).
  [[nodiscard]] std::uint64_t EventsExecuted() const noexcept {
    return events_.Executed();
  }
  /// Owner-node partitions of the event queue.
  [[nodiscard]] std::size_t ShardCount() const noexcept {
    return events_.ShardCount();
  }
  /// The conservative-window bound of RunUntilParallel: the deployment's
  /// minimum one-way delay (ABW: the configured min_oneway_delay_s).
  [[nodiscard]] double LookaheadSeconds() const noexcept { return lookahead_s_; }
  /// The per-shard-pair lookahead matrix the parallel and distributed drains
  /// window with (DESIGN.md §12): cell (a, b) is the minimum one-way delay
  /// from any owner in shard a's block to any owner in shard b's block
  /// (+infinity when no measurable pair connects the blocks), or uniformly
  /// LookaheadSeconds() when use_pair_lookaheads is off or there is one
  /// shard.  On RTT datasets the constructor's O(n²) ground-truth scan fills
  /// it together with LookaheadSeconds(); on ABW datasets it is built on
  /// first use by an O(n²) scan of the hash-drawn delays.  Cached.
  [[nodiscard]] const netsim::LookaheadMatrix& PairLookaheads();
  /// Conservative windows executed by the parallel/distributed drains.
  [[nodiscard]] std::uint64_t WindowsExecuted() const noexcept {
    return events_.WindowsExecuted();
  }
  [[nodiscard]] std::size_t MeasurementCount() const noexcept {
    return engine_.MeasurementCount();
  }
  [[nodiscard]] double AverageMeasurementsPerNode() const noexcept {
    return engine_.AverageMeasurementsPerNode();
  }
  [[nodiscard]] std::size_t DroppedLegs() const noexcept {
    return engine_.DroppedLegs();
  }
  /// Exchanges currently in flight (sent, not yet fully resolved).
  [[nodiscard]] std::size_t InFlight() const noexcept {
    return engine_.InFlight();
  }
  /// Nodes churned so far (per-probe churn rolls).
  [[nodiscard]] std::size_t ChurnCount() const noexcept {
    return engine_.ChurnCount();
  }
  [[nodiscard]] std::size_t NodeCount() const noexcept {
    return engine_.NodeCount();
  }
  [[nodiscard]] const std::vector<std::vector<NodeId>>& Neighbors() const noexcept {
    return engine_.Neighbors();
  }
  [[nodiscard]] bool IsNeighborPair(std::size_t i, std::size_t j) const {
    return engine_.IsNeighborPair(i, j);
  }
  [[nodiscard]] const datasets::Dataset& dataset() const noexcept {
    return engine_.dataset();
  }
  [[nodiscard]] const SimulationConfig& config() const noexcept {
    return engine_.config();
  }
  [[nodiscard]] const DmfsgdNode& node(std::size_t i) const {
    return engine_.node(i);
  }

  /// The shared deployment core (read access for snapshots and evaluation).
  [[nodiscard]] const DeploymentEngine& engine() const noexcept { return engine_; }

  // -- multi-process drains (DESIGN.md §12) --------------------------------
  // Wiring points for core/multiprocess.hpp: the shard runtime needs the
  // queue (to own a shard range and exchange window barriers) and the
  // delivery channel (to decode cross-process envelopes).  Tests and
  // drivers must not mutate either outside that protocol.

  [[nodiscard]] netsim::ShardedEventQueue& MutableEvents() noexcept {
    return events_;
  }
  [[nodiscard]] ShardedEventQueueDeliveryChannel& ShardedChannel() noexcept {
    return delayed_;
  }

  /// Runs the distributed windowed drain under `runtime` (which owns this
  /// simulation's shard range assignment) in sharded-drain mode — the same
  /// per-node RNG/counter regime as RunUntilParallel, so a distributed run
  /// is bit-identical to a single-process parallel drain of the same seed
  /// and shard count.
  void RunUntilDistributed(double until_s, common::ThreadPool& pool,
                           netsim::ShardRuntime& runtime);

 private:
  void ScheduleNextProbe(NodeId i);
  void StartProbe(NodeId i);
  [[nodiscard]] double OneWayDelay(NodeId i, NodeId j) const;
  /// Row-major shards x shards minimum one-way delays between owner blocks,
  /// from one O(n²) scan over ordered pairs.
  [[nodiscard]] std::vector<double> BlockMinimumDelays() const;

  AsyncSimulationConfig config_;
  netsim::ShardedEventQueue events_;
  /// Channel stack: sharded event-queue delivery (messages run in their
  /// destination's shard), optionally decorated by the wire codec.  Declared
  /// before the engine, which binds its sink onto them.
  ShardedEventQueueDeliveryChannel delayed_;
  std::optional<WireCodecDeliveryChannel> wire_;
  DeploymentEngine engine_;
  std::uint64_t delay_seed_ = 0;
  double lookahead_s_ = 0.0;
  std::optional<netsim::LookaheadMatrix> pair_lookaheads_;
};

}  // namespace dmfsgd::core
