#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "linalg/vector_ops.hpp"

namespace dmfsgd::core {

namespace {

using datasets::Dataset;
using datasets::Metric;

/// targets_ value of a slot not probed since its row was last cleared.
constexpr double kUnprobed = std::numeric_limits<double>::quiet_NaN();

/// Throwing pass-through so the config is validated before any member that
/// depends on it (the store sizes itself off config.rank) is built.  The
/// shared protocol knobs go through the one ValidateProtocolConfig; only the
/// driver-specific knobs are checked here.
const SimulationConfig& RequireConfig(const Dataset& dataset,
                                      const SimulationConfig& config) {
  ValidateProtocolConfig(config, "DeploymentEngine");
  if (config.neighbor_count == 0) {
    throw std::invalid_argument("DeploymentEngine: neighbor_count must be > 0");
  }
  if (config.neighbor_count >= dataset.NodeCount()) {
    throw std::invalid_argument(
        "DeploymentEngine: neighbor_count must be < node count");
  }
  // Written so NaN fails: a NaN probability would silently act as 0.
  if (!(config.message_loss >= 0.0 && config.message_loss < 1.0)) {
    throw std::invalid_argument("DeploymentEngine: message_loss must be in [0, 1)");
  }
  if (!(config.churn_rate >= 0.0 && config.churn_rate < 1.0)) {
    throw std::invalid_argument("DeploymentEngine: churn_rate must be in [0, 1)");
  }
  return config;
}

}  // namespace

std::vector<std::vector<std::uint32_t>> GreedyTargetPhases(
    std::span<const NodeId> targets, std::span<const unsigned char> active) {
  if (targets.size() != active.size()) {
    throw std::invalid_argument(
        "GreedyTargetPhases: targets and active must have equal length");
  }
  // phase(pair) = number of earlier active pairs with the same target; the
  // counts live in a dense map over the target id range.
  NodeId max_target = 0;
  for (std::size_t p = 0; p < targets.size(); ++p) {
    if (active[p] != 0) {
      max_target = std::max(max_target, targets[p]);
    }
  }
  std::vector<std::uint32_t> taken(static_cast<std::size_t>(max_target) + 1, 0);
  std::vector<std::vector<std::uint32_t>> phases;
  for (std::size_t p = 0; p < targets.size(); ++p) {
    if (active[p] == 0) {
      continue;
    }
    const std::uint32_t phase = taken[targets[p]]++;
    if (phase == phases.size()) {
      phases.emplace_back();
    }
    phases[phase].push_back(static_cast<std::uint32_t>(p));
  }
  return phases;
}

const char* ProbeStrategyName(ProbeStrategy strategy) noexcept {
  switch (strategy) {
    case ProbeStrategy::kUniformRandom:
      return "uniform-random";
    case ProbeStrategy::kRoundRobin:
      return "round-robin";
    case ProbeStrategy::kLossDriven:
      return "loss-driven";
  }
  return "?";
}

DeploymentEngine::DeploymentEngine(const Dataset& dataset,
                                   const SimulationConfig& config,
                                   const ErrorInjector* injector,
                                   DeliveryChannel& channel)
    : dataset_(&dataset),
      config_(RequireConfig(dataset, config)),
      injector_(injector),
      channel_(&channel),
      rng_(config.seed),
      abw_(dataset.metric == Metric::kAbw),
      store_(dataset.NodeCount(), config.rank) {
  if (injector_ != nullptr && injector_->NodeCount() != dataset.NodeCount()) {
    throw std::invalid_argument(
        "DeploymentEngine: injector node count does not match the dataset");
  }

  const std::size_t n = dataset.NodeCount();
  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes_.emplace_back(static_cast<NodeId>(i), store_, i, rng_);
  }

  // Random neighbor sets, restricted to pairs with known ground truth
  // (HP-S3 has ~4% unmeasured pairs that can't be probed).
  neighbors_.resize(n);
  round_robin_cursor_.assign(n, 0);
  neighbor_loss_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    RebuildNeighborSet(static_cast<NodeId>(i));
  }

  channel_->BindSink([this](const MessageBatch& batch) { OnBatch(batch); });
}

void DeploymentEngine::RebuildNeighborSet(NodeId i) {
  RebuildNeighborSetWith(i, rng_);
}

void DeploymentEngine::RebuildNeighborSetWith(NodeId i, common::Rng& rng) {
  const std::size_t n = nodes_.size();
  std::vector<NodeId> candidates;
  if (dataset_->Procedural()) {
    // Every off-diagonal pair is known by the procedural contract, so k
    // distinct neighbors come from rejection sampling: O(k) expected draws
    // instead of the O(n) candidate scan, which makes the construction
    // O(n·k) overall — the difference between feasible and not at the
    // bench-scale node counts the procedural datasets exist for.
    if (n - 1 < config_.neighbor_count) {
      throw std::invalid_argument(
          "DeploymentEngine: node has fewer measurable pairs than k");
    }
    candidates.reserve(config_.neighbor_count);
    while (candidates.size() < config_.neighbor_count) {
      const auto j = static_cast<NodeId>(rng.UniformInt(n));
      if (j != i &&
          std::find(candidates.begin(), candidates.end(), j) == candidates.end()) {
        candidates.push_back(j);
      }
    }
  } else {
    candidates.reserve(n - 1);
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i && dataset_->IsKnown(i, j)) {
        candidates.push_back(static_cast<NodeId>(j));
      }
    }
    if (candidates.size() < config_.neighbor_count) {
      throw std::invalid_argument(
          "DeploymentEngine: node has fewer measurable pairs than k");
    }
    rng.Shuffle(std::span(candidates));
    candidates.resize(config_.neighbor_count);
  }
  std::sort(candidates.begin(), candidates.end());
  neighbors_[i] = std::move(candidates);
  round_robin_cursor_[i] = 0;
  // Unprobed neighbors carry +inf loss so the loss-driven strategy visits
  // everyone at least once before exploiting.
  neighbor_loss_[i].assign(config_.neighbor_count,
                           std::numeric_limits<double>::infinity());
  // The memoized targets belonged to the old neighbors.
  if (!targets_.empty()) {
    std::fill_n(targets_.begin() + static_cast<std::ptrdiff_t>(
                                       i * config_.neighbor_count),
                config_.neighbor_count, kUnprobed);
  }
}

void DeploymentEngine::ResetNode(NodeId i) {
  if (i >= nodes_.size()) {
    throw std::out_of_range("DeploymentEngine::ResetNode: index out of range");
  }
  ResetNodeWith(i, rng_);
}

void DeploymentEngine::ResetNodeWith(NodeId i, common::Rng& rng) {
  store_.RandomizeRow(i, rng);
  MarkDirty(i);
  RebuildNeighborSetWith(i, rng);
  if (sharded_drain_) {
    ++node_counters_[i].churns;
  } else {
    ++churn_count_;
  }
}

void DeploymentEngine::ChurnSweep() {
  if (config_.churn_rate <= 0.0) {
    return;
  }
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (rng_.Bernoulli(config_.churn_rate)) {
      ResetNode(i);
    }
  }
}

bool DeploymentEngine::MaybeChurnNodeWith(NodeId i, common::Rng& rng) {
  if (config_.churn_rate <= 0.0 || !rng.Bernoulli(config_.churn_rate)) {
    return false;
  }
  if (i >= nodes_.size()) {
    throw std::out_of_range("DeploymentEngine: churn index out of range");
  }
  ResetNodeWith(i, rng);
  return true;
}

NodeId DeploymentEngine::PickNeighbor(NodeId i) {
  return PickNeighborWith(i, rng_);
}

NodeId DeploymentEngine::PickNeighborWith(NodeId i, common::Rng& rng) {
  return neighbors_[i][PickSlotWith(i, rng)];
}

std::size_t DeploymentEngine::PickSlotWith(NodeId i, common::Rng& rng) {
  const std::size_t k = neighbors_[i].size();
  switch (config_.strategy) {
    case ProbeStrategy::kUniformRandom:
      return rng.UniformInt(static_cast<std::uint64_t>(k));
    case ProbeStrategy::kRoundRobin:
      return round_robin_cursor_[i]++ % k;
    case ProbeStrategy::kLossDriven: {
      if (rng.Bernoulli(kLossDrivenRandomPick)) {
        return rng.UniformInt(static_cast<std::uint64_t>(k));
      }
      const auto& losses = neighbor_loss_[i];
      std::size_t best = 0;
      for (std::size_t p = 1; p < losses.size(); ++p) {
        if (losses[p] > losses[best]) {
          best = p;
        }
      }
      return best;
    }
  }
  return 0;
}

void DeploymentEngine::EnsureTargetTable() {
  if (targets_.empty()) {
    targets_.assign(nodes_.size() * config_.neighbor_count, kUnprobed);
  }
}

void DeploymentEngine::EnsurePerNodeStreams() {
  EnsureTargetTable();
  if (!per_node_rng_.empty()) {
    return;
  }
  // Decorrelated per-node streams derived from the run seed.  Each stream
  // advances only through its own node's draws, so the sequence a node
  // sees is a pure function of (seed, node id, its own probe history) —
  // never of which thread ran it.
  const std::size_t n = nodes_.size();
  common::Rng root(config_.seed ^ 0x5deece66dULL);
  per_node_rng_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    per_node_rng_.push_back(root.Split());
  }
  sweep_state_.resize(n);
}

common::Rng& DeploymentEngine::NodeRng(NodeId i) {
  EnsurePerNodeStreams();
  if (i >= per_node_rng_.size()) {
    throw std::out_of_range("DeploymentEngine::NodeRng: index out of range");
  }
  return per_node_rng_[i];
}

void DeploymentEngine::ParallelRoundSweep(common::ThreadPool& pool) {
  if (config_.probe_burst > 1) {
    // The snapshot sweep models one exchange per node per round; batched
    // rounds run through the sequential driver or the async drains.
    throw std::logic_error(
        "DeploymentEngine::ParallelRoundSweep: probe_burst > 1 is not "
        "supported on the parallel sweep path");
  }
  if (abw_) {
    ParallelAbwRoundSweep(pool);
    return;
  }
  const std::size_t n = nodes_.size();
  const std::size_t r = config_.rank;
  EnsurePerNodeStreams();

  // Membership dynamics stay on the engine stream, sequential and identical
  // regardless of pool size (they also rebuild neighbor sets, which other
  // nodes' probes must not observe mid-round).
  ChurnSweep();

  // Start-of-round snapshot: every probe reads remote coordinates as they
  // stood here — each reply is a snapshot captured at round start.
  const auto u_data = store_.UData();
  const auto v_data = store_.VData();
  sweep_u_.assign(u_data.begin(), u_data.end());
  sweep_v_.assign(v_data.begin(), v_data.end());

  pool.ParallelFor(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      common::Rng& rng = per_node_rng_[i];
      const std::size_t slot = PickSlotWith(static_cast<NodeId>(i), rng);
      const NodeId j = neighbors_[i][slot];
      // Two protocol legs, each dropped independently — the same roll
      // sequence LegLost() produces on the sequential path (the second leg
      // is only rolled if the first survived).
      bool lost = false;
      if (config_.message_loss > 0.0) {
        lost = rng.Bernoulli(config_.message_loss) ||
               rng.Bernoulli(config_.message_loss);
      }
      sweep_state_[i] = lost ? 1 : 0;
      if (lost) {
        continue;
      }
      const double x = SlotTarget(static_cast<NodeId>(i), slot);
      const std::span<const double> u_remote(sweep_u_.data() + j * r, r);
      const std::span<const double> v_remote(sweep_v_.data() + j * r, r);
      RecordNeighborLoss(static_cast<NodeId>(i), j, x, v_remote);
      nodes_[i].RttUpdate(x, u_remote, v_remote, config_.params);
    }
  });

  // An exchange either dropped a leg or applied its measurement, so one
  // per-node flag determines both counters; a node that measured also
  // updated its own rows (drift marks go here, after the join).
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (sweep_state_[i] != 0) {
      ++dropped;
    } else {
      MarkDirty(i);
    }
  }
  dropped_legs_ += dropped;
  measurement_count_ += n - dropped;
}

void DeploymentEngine::SequentialRoundSweep() {
  if (config_.probe_burst > 1) {
    // The gather models one exchange per node per round, like the parallel
    // sweep; batched rounds run message by message.
    throw std::logic_error(
        "DeploymentEngine::SequentialRoundSweep: probe_burst > 1 is not "
        "supported on the sweep path");
  }
  ChurnSweep();

  // Gather: consume the shared RNG stream in exactly the per-message order
  // — pick, leg-1 roll, leg-2 roll per exchange.  (Algorithm 2 rolls leg 2
  // after the target consumed the measurement, but no draw happens in
  // between, so rolling it at gather time replays the stream verbatim.)
  // The picks touch only node-owned probing state, which the deferred
  // apply does not change out of order: neighbor_loss_[i] is written solely
  // by node i's own exchange, which the per-message round also applies
  // after i's pick.
  const std::size_t n = nodes_.size();
  sweep_exchanges_.clear();
  sweep_exchanges_.reserve(n);  // at most one per node: no regrowth later
  for (NodeId i = 0; i < n; ++i) {
    const std::size_t slot = PickSlotWith(i, rng_);
    if (LegLost()) {  // leg 1: the probe — nothing happened anywhere
      continue;
    }
    const bool full = !LegLost();  // leg 2: the reply
    // A lost RTT reply loses the whole exchange; an ABW target measured
    // and updates either way.
    if (full || abw_) {
      sweep_exchanges_.push_back(SweepExchange{
          i, neighbors_[i][slot], static_cast<std::uint32_t>(slot), full});
    }
  }

  // Apply, in gather order against the live store.  An exchange writes only
  // the prober's rows (Algorithm 1) or v_j and then u_i (Algorithm 2), so
  // every remote row it reads holds exactly what the per-message reply
  // would have copied at that point of the round.
  if (!abw_) {
    for (const SweepExchange& e : sweep_exchanges_) {
      const double x = SlotTarget(e.prober, e.slot);
      RecordNeighborLoss(e.prober, e.target, x, store_.V(e.target));
      nodes_[e.prober].RttUpdate(x, store_.U(e.target), store_.V(e.target),
                                 config_.params);  // eqs. 9-10
      MarkDirty(e.prober);
    }
    measurement_count_ += sweep_exchanges_.size();
    return;
  }
  sweep_v_pre_.resize(config_.rank);
  for (const SweepExchange& e : sweep_exchanges_) {
    const double x = SlotTarget(e.prober, e.slot);
    if (e.full) {
      // The reply ships v_j as it stood before the target's update
      // (Algorithm 2 sends before updating).
      const auto v_j = store_.V(e.target);
      std::copy(v_j.begin(), v_j.end(), sweep_v_pre_.begin());
    }
    nodes_[e.target].AbwTargetUpdate(x, nodes_[e.prober].u(),
                                     config_.params);  // eq. 13
    MarkDirty(e.target);
    if (e.full) {
      RecordNeighborLoss(e.prober, e.target, x, sweep_v_pre_);
      nodes_[e.prober].AbwProberUpdate(x, sweep_v_pre_, config_.params);  // eq. 12
      MarkDirty(e.prober);
    }
  }
  measurement_count_ += sweep_exchanges_.size();
}

namespace {

// Outcome of one Algorithm-2 exchange, decided entirely by the prober's
// private rolls before any phase runs.
constexpr unsigned char kAbwFull = 0;      // both legs survived
constexpr unsigned char kAbwLeg2Lost = 1;  // target updated, reply lost
constexpr unsigned char kAbwLeg1Lost = 2;  // probe lost, nothing happened

}  // namespace

void DeploymentEngine::ParallelAbwRoundSweep(common::ThreadPool& pool) {
  const std::size_t n = nodes_.size();
  EnsurePerNodeStreams();
  ChurnSweep();  // sequential on the engine stream, like the Algorithm-1 path

  // 1. Draws: each prober picks its target and rolls both protocol legs from
  // its private stream (leg 2 only if leg 1 survived — the sequential roll
  // order).  Node-owned state only, so the draws themselves parallelize.
  sweep_target_.resize(n);
  pool.ParallelFor(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      common::Rng& rng = per_node_rng_[i];
      sweep_target_[i] = PickNeighborWith(static_cast<NodeId>(i), rng);
      unsigned char state = kAbwFull;
      if (config_.message_loss > 0.0) {
        if (rng.Bernoulli(config_.message_loss)) {
          state = kAbwLeg1Lost;
        } else if (rng.Bernoulli(config_.message_loss)) {
          state = kAbwLeg2Lost;
        }
      }
      sweep_state_[i] = state;
    }
  });

  // 2. Greedy target-disjoint phases over the pairs that will update state
  // (a lost probe updates nobody and needs no slot).
  std::vector<unsigned char> active(n);
  for (std::size_t i = 0; i < n; ++i) {
    active[i] = sweep_state_[i] != kAbwLeg1Lost ? 1 : 0;
  }
  const auto phases = GreedyTargetPhases(sweep_target_, active);

  // 3. Run the phases.  Within a phase every prober and every target is
  // distinct, so pair (i, j)'s task exclusively owns u_i and v_j; across
  // phases, same-target updates apply in ascending prober order.  Each task
  // replays the sequential exchange exactly: the target consumes x and the
  // probe's u_i and updates v_j; the prober consumes the *pre-update* v_j.
  for (const auto& phase : phases) {
    pool.ParallelFor(0, phase.size(), [&](std::size_t lo, std::size_t hi) {
      std::vector<double> v_pre(config_.rank);
      for (std::size_t p = lo; p < hi; ++p) {
        const std::size_t i = phase[p];
        const NodeId j = sweep_target_[i];
        const double x = ProbeTarget(static_cast<NodeId>(i), j);
        const auto v_j = nodes_[j].v();
        std::copy(v_j.begin(), v_j.end(), v_pre.begin());
        nodes_[j].AbwTargetUpdate(x, nodes_[i].u(), config_.params);  // eq. 13
        if (sweep_state_[i] == kAbwFull) {
          RecordNeighborLoss(static_cast<NodeId>(i), j, x, v_pre);
          nodes_[i].AbwProberUpdate(x, v_pre, config_.params);  // eq. 12
        }
      }
    });
  }

  // 4. Counters, reduced exactly as the sequential exchanges would have:
  // the target consumes the measurement even when the reply is lost.
  std::size_t measured = 0;
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (sweep_state_[i] != kAbwLeg1Lost) {
      ++measured;
      MarkDirty(sweep_target_[i]);  // the target's v row took eq. 13
      if (sweep_state_[i] == kAbwFull) {
        MarkDirty(i);  // the prober's u row took eq. 12
      }
    }
    dropped += sweep_state_[i] != kAbwFull ? 1 : 0;
  }
  measurement_count_ += measured;
  dropped_legs_ += dropped;
}

const DmfsgdNode& DeploymentEngine::node(std::size_t i) const {
  if (i >= nodes_.size()) {
    throw std::out_of_range("DeploymentEngine::node: index out of range");
  }
  return nodes_[i];
}

bool DeploymentEngine::IsNeighborPair(std::size_t i, std::size_t j) const {
  if (i >= nodes_.size() || j >= nodes_.size()) {
    throw std::out_of_range("DeploymentEngine::IsNeighborPair: index out of range");
  }
  const auto& nb = neighbors_[i];
  return std::binary_search(nb.begin(), nb.end(), static_cast<NodeId>(j));
}

double DeploymentEngine::AverageMeasurementsPerNode() const noexcept {
  return static_cast<double>(measurement_count_) /
         static_cast<double>(nodes_.size());
}

double DeploymentEngine::Predict(std::size_t i, std::size_t j) const {
  if (i >= nodes_.size() || j >= nodes_.size()) {
    throw std::out_of_range("DeploymentEngine::Predict: index out of range");
  }
  return store_.Predict(i, j);
}

bool DeploymentEngine::LegLost() {
  if (config_.message_loss <= 0.0) {
    return false;
  }
  const bool lost = rng_.Bernoulli(config_.message_loss);
  if (lost) {
    ++dropped_legs_;
  }
  return lost;
}

bool DeploymentEngine::LegLostFor(NodeId who) {
  if (!sharded_drain_) {
    return LegLost();
  }
  if (config_.message_loss <= 0.0) {
    return false;
  }
  const bool lost = per_node_rng_[who].Bernoulli(config_.message_loss);
  if (lost) {
    ++node_counters_[who].dropped_legs;
  }
  return lost;
}

void DeploymentEngine::CountMeasurementAt(NodeId who) {
  if (sharded_drain_) {
    ++node_counters_[who].measurements;
  } else {
    ++measurement_count_;
  }
}

void DeploymentEngine::ResolveExchangeAt(NodeId who) {
  if (sharded_drain_) {
    ++node_counters_[who].resolved;
  } else {
    ResolveExchange();
  }
}

void DeploymentEngine::EnableDriftTracking() {
  // Starts clean: "dirty" means written after this point — callers build
  // their index from the current store, then drain deltas.
  dirty_rows_.assign(nodes_.size(), 0);
  drift_tracking_ = true;
}

std::vector<NodeId> DeploymentEngine::TakeDirtyNodes() {
  if (!drift_tracking_) {
    throw std::logic_error(
        "DeploymentEngine::TakeDirtyNodes: drift tracking is not enabled");
  }
  std::vector<NodeId> dirty;
  for (std::size_t i = 0; i < dirty_rows_.size(); ++i) {
    if (dirty_rows_[i] != 0) {
      dirty.push_back(static_cast<NodeId>(i));
      dirty_rows_[i] = 0;
    }
  }
  return dirty;
}

void DeploymentEngine::RestoreCoordinates(const CoordinateStore& snapshot) {
  if (snapshot.NodeCount() != store_.NodeCount() ||
      snapshot.rank() != store_.rank()) {
    throw std::invalid_argument(
        "DeploymentEngine::RestoreCoordinates: snapshot shape mismatch");
  }
  std::copy(snapshot.UData().begin(), snapshot.UData().end(),
            store_.UData().begin());
  std::copy(snapshot.VData().begin(), snapshot.VData().end(),
            store_.VData().begin());
  if (drift_tracking_) {
    // Every row moved: an index built before the restore must re-snapshot.
    std::fill(dirty_rows_.begin(), dirty_rows_.end(), 1);
  }
}

void DeploymentEngine::BeginShardedDrain() {
  if (sharded_drain_) {
    throw std::logic_error("DeploymentEngine: sharded drain already active");
  }
  EnsurePerNodeStreams();
  node_counters_.assign(nodes_.size(), NodeCounters{});
  sharded_drain_ = true;
}

void DeploymentEngine::EndShardedDrain() {
  if (!sharded_drain_) {
    throw std::logic_error("DeploymentEngine: no sharded drain active");
  }
  sharded_drain_ = false;
  std::uint64_t started = 0;
  std::uint64_t resolved = 0;
  for (const NodeCounters& counters : node_counters_) {
    measurement_count_ += counters.measurements;
    dropped_legs_ += counters.dropped_legs;
    churn_count_ += counters.churns;
    started += counters.started;
    resolved += counters.resolved;
  }
  // Same saturating semantics as ResolveExchange: a duplicated resolution
  // must not wrap the in-flight gauge.
  const std::uint64_t in_flight = in_flight_ + started;
  in_flight_ = in_flight > resolved ? in_flight - resolved : 0;
}

double DeploymentEngine::MeasurementFor(
    std::size_t i, std::size_t j, std::optional<double> observed_quantity) const {
  const double quantity =
      observed_quantity.has_value() ? *observed_quantity : dataset_->Quantity(i, j);
  if (config_.mode == PredictionMode::kRegression) {
    // τ-normalization keeps SGD stable across metrics (DESIGN.md §3); the
    // prediction target is then a dimensionless "multiples of τ".
    return quantity / config_.tau;
  }
  // Classification: corrupted paths report their corrupted label on *every*
  // probe (inaccurate tools and malicious nodes are persistent, §6.3), so
  // the injector overrides even dynamically observed quantities.
  if (injector_ != nullptr) {
    return static_cast<double>(injector_->Label(i, j));
  }
  return static_cast<double>(ClassOf(dataset_->metric, quantity, config_.tau));
}

double DeploymentEngine::SlotTarget(NodeId i, std::size_t slot) {
  EnsureTargetTable();  // parallel callers built it before forking
  double& target = targets_[i * config_.neighbor_count + slot];
  if (std::isnan(target)) {
    // MeasurementFor is pure, so storing its value cannot change what any
    // later probe trains on — only how often the oracle is asked.
    target = MeasurementFor(i, neighbors_[i][slot], std::nullopt);
  }
  return target;
}

double DeploymentEngine::ProbeTarget(NodeId i, NodeId j) {
  const auto& nb = neighbors_[i];
  const auto it = std::lower_bound(nb.begin(), nb.end(), j);
  if (it == nb.end() || *it != j) {
    return MeasurementFor(i, j, std::nullopt);
  }
  return SlotTarget(i, static_cast<std::size_t>(it - nb.begin()));
}

double DeploymentEngine::TargetSideProbeTarget(NodeId prober, NodeId target) {
  return sharded_drain_ ? MeasurementFor(prober, target, std::nullopt)
                        : ProbeTarget(prober, target);
}

void DeploymentEngine::RecordNeighborLoss(NodeId i, NodeId j, double x,
                                          std::span<const double> v_remote) {
  if (config_.strategy != ProbeStrategy::kLossDriven) {
    return;
  }
  const auto& nb = neighbors_[i];
  const auto it = std::lower_bound(nb.begin(), nb.end(), j);
  if (it != nb.end() && *it == j) {
    const double x_hat = linalg::Dot(nodes_[i].u(), v_remote);
    neighbor_loss_[i][static_cast<std::size_t>(it - nb.begin())] =
        LossValue(config_.params.loss, x, x_hat);
  }
}

void DeploymentEngine::StartExchange(NodeId i, NodeId j,
                                     std::optional<double> observed_quantity) {
  if (abw_ && observed_quantity.has_value()) {
    // Algorithm 2 measures at the *target*; a prober-side trace value has
    // nowhere to go, and silently training on the static matrix instead
    // would corrupt the experiment.
    throw std::logic_error(
        "DeploymentEngine: trace replay is not supported for target-measured "
        "(ABW) metrics");
  }
  if (sharded_drain_) {
    // Sharded-drain path: no shared state — the prober's private stream
    // rolls leg 1 and the per-node slots absorb the counters.  Trace
    // overrides need an immediate channel, which a sharded drain never is.
    if (observed_quantity.has_value()) {
      throw std::logic_error(
          "DeploymentEngine: trace replay is not supported during a sharded "
          "drain");
    }
    ++node_counters_[i].started;
    if (LegLostFor(i)) {
      ++node_counters_[i].resolved;
      return;
    }
    if (abw_) {
      channel_->Send(i, j, AbwProbeRequest{i, nodes_[i].UCopy(), config_.tau});
    } else {
      channel_->Send(i, j, RttProbeRequest{i});
    }
    return;
  }
  ++in_flight_;
  // Leg 1: the probe itself (Algorithm 1's ping, Algorithm 2's UDP train).
  if (LegLost()) {
    --in_flight_;
    return;
  }
  if (abw_) {
    channel_->Send(i, j, AbwProbeRequest{i, nodes_[i].UCopy(), config_.tau});
    return;
  }
  trace_observed_ = observed_quantity;
  trace_observed_consumed_ = false;
  const std::size_t dropped_before = dropped_legs_;
  channel_->Send(i, j, RttProbeRequest{i});
  // Only an immediate channel resolves the exchange within the send.  A
  // trace override that was neither consumed by the reply handler nor
  // killed by leg loss would silently train on the static matrix instead —
  // fail loudly rather than corrupt the experiment.
  const bool resolved =
      trace_observed_consumed_ || dropped_legs_ > dropped_before;
  trace_observed_.reset();
  if (observed_quantity.has_value() && !resolved) {
    throw std::logic_error(
        "DeploymentEngine: trace replay requires an immediate delivery "
        "channel");
  }
}

void DeploymentEngine::OnBatch(const MessageBatch& batch) {
  for (const BatchItem& item : batch.items) {
    OnMessage(item.from, batch.to, item.message);
  }
}

void DeploymentEngine::OnMessage(NodeId from, NodeId to,
                                 const ProtocolMessage& message) {
  std::visit(
      [&](const auto& typed) {
        using T = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<T, RttProbeRequest>) {
          HandleRttRequest(from, to);
        } else if constexpr (std::is_same_v<T, RttProbeReply>) {
          HandleRttReply(to, typed);
        } else if constexpr (std::is_same_v<T, AbwProbeRequest>) {
          HandleAbwRequest(to, typed);
        } else {
          HandleAbwReply(to, typed);
        }
      },
      message);
}

void DeploymentEngine::ResolveExchange() {
  // Saturating: a duplicated or unsolicited reply (possible over datagram
  // transports) must not wrap the counter.
  if (in_flight_ > 0) {
    --in_flight_;
  }
}

void DeploymentEngine::HandleRttRequest(NodeId prober, NodeId target) {
  // Leg 2: the reply carrying (u_j, v_j) — a snapshot taken now, stale by
  // one flight time when the prober consumes it.  The roll and any counter
  // bumps belong to the target, whose handler this is.
  if (LegLostFor(target)) {
    ResolveExchangeAt(target);
    return;
  }
  channel_->Send(target, prober,
                 RttProbeReply{target, nodes_[target].UCopy(),
                               nodes_[target].VCopy()});
}

void DeploymentEngine::HandleRttReply(NodeId prober, const RttProbeReply& reply) {
  // Its timing gives the prober x_ij (or the trace record supplies it —
  // never during a sharded drain, whose StartExchange rejects overrides).
  // An observed value trains this exchange only; it is never memoized.
  const std::optional<double> observed =
      sharded_drain_ ? std::nullopt : trace_observed_;
  const double x = observed.has_value()
                       ? MeasurementFor(prober, reply.target, observed)
                       : ProbeTarget(prober, reply.target);
  if (!sharded_drain_) {
    trace_observed_consumed_ = observed.has_value();
  }
  RecordNeighborLoss(prober, reply.target, x, reply.v);
  nodes_[prober].RttUpdate(x, reply.u, reply.v, config_.params);
  MarkDirty(prober);
  CountMeasurementAt(prober);
  ResolveExchangeAt(prober);
}

void DeploymentEngine::HandleAbwRequest(NodeId target,
                                        const AbwProbeRequest& request) {
  // The target infers x_ij, replies with its pre-update v_j (Algorithm 2
  // sends before updating), then updates v_j — the measurement is consumed
  // at the target even if the reply later gets lost.
  const double x = TargetSideProbeTarget(request.prober, target);
  AbwProbeReply reply{target, x, nodes_[target].VCopy()};
  nodes_[target].AbwTargetUpdate(x, request.u, config_.params);
  MarkDirty(target);
  CountMeasurementAt(target);

  // Leg 2: the reply back to the prober.
  if (LegLostFor(target)) {
    ResolveExchangeAt(target);
    return;
  }
  channel_->Send(target, request.prober, std::move(reply));
}

void DeploymentEngine::HandleAbwReply(NodeId prober, const AbwProbeReply& reply) {
  RecordNeighborLoss(prober, reply.target, reply.measurement, reply.v);
  nodes_[prober].AbwProberUpdate(reply.measurement, reply.v, config_.params);
  MarkDirty(prober);
  ResolveExchangeAt(prober);
}

}  // namespace dmfsgd::core
