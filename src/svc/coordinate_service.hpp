// The resident coordinate service (DESIGN.md §17): one front door over the
// deployment engine, the ANN query plane and the snapshot log.
//
// The paper's end state is not a convergence experiment but a running
// system — nodes continuously measure, coordinates continuously train, and
// applications continuously ask "how far is j" / "who are my best peers"
// (conf_conext_LiaoDGL11 §1, §5).  CoordinateService is that system's
// node-set-in-one-process form, organized as three planes:
//
//  * **ingest plane** — a push API: every measurement (pushed pair, active
//    probe, trace replay window, warm-up round) funnels into the engine's
//    exchange machinery through the round driver's channel stack, so the
//    protocol semantics (one SGD step per measurement, the engine's
//    per-node RNG streams) apply to served deployments unchanged.
//  * **query plane** — live bilinear scores (DESIGN.md §16): point-to-point
//    score/quantity, multiclass level readout, and k-nearest-peer queries
//    through a resident ann::PeerIndex that is kept warm by draining the
//    engine's dirty set on a *staleness budget*: after at most
//    `staleness_budget` ingests the index absorbs accumulated drift
//    (PeerIndex::ApplyUpdates — epsilon-skip / re-link / rebuild).  Because
//    the index ranks by live scores, staleness only ever degrades *routing*
//    (recall), never the scores an application sees, and CurrentStaleness()
//    is bounded by the budget at every query.
//  * **snapshot plane** — incremental persistence: a snapshot-log generation
//    (base image + delta epochs of only the rows dirtied since the last
//    epoch, svc/snapshot_log.hpp) appended every `snapshot_interval`
//    ingests.  On start, an existing generation in `snapshot_dir` is
//    recovered first (tolerating a torn tail from a crash) and the engine
//    warm-restarts from it bit-identically; a fresh generation then begins
//    from the recovered state.
//
// Determinism: the service adds no randomness of its own — every draw is
// the engine's — so the answer stream is a pure function of (dataset,
// config, ingest sequence).  Index maintenance reads coordinates but never
// writes them, so query answers are also independent of *when* the index
// absorbs drift: any staleness budget yields the same scores, and exact-
// mode k-NN (ef >= n) the same peers.
//
// Concurrency (DESIGN.md §18): writers and readers lock separately.  The
// const query plane (QueryScore / QueryQuantity / QueryLevel /
// QueryNearestPeers, plus stats() and CurrentStaleness()) takes a
// shared_mutex shared — any number of query threads run concurrently, each
// leasing its own search scratch from the index underneath.  Writers
// (Ingest* / Checkpoint) serialize on a writer mutex for their whole call
// and take the shared_mutex exclusive only to apply measurements and to
// publish.  Index maintenance is copy-on-write: a refresh copies the
// published index into a spare, applies the drained drift to the spare
// with no state lock held, and publishes by swapping the two pointers.
// Snapshot epochs hold the writer mutex alone (they only read the store,
// which no one else writes).  The one exception is a batch that alone
// pushes staleness past the budget (an IngestRounds round, a long trace
// window): its refresh publishes inside the batch's exclusive hold, so
// CurrentStaleness() never exceeds the budget.  A query observes the state
// before or after a write, never a torn one; on a quiescent service,
// N-thread query results are bit-identical to single-thread (the walk is a
// pure function of the index and the store — pinned by the concurrent-query
// tests).
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "ann/peer_index.hpp"
#include "core/simulation.hpp"
#include "svc/snapshot_log.hpp"

namespace dmfsgd::svc {

/// The service's config: the shared protocol knobs (core/protocol_config.hpp,
/// validated by the one shared ValidateProtocolConfig) plus the serving
/// knobs below.
struct ServiceConfig : core::ProtocolConfig {
  core::PredictionMode mode = core::PredictionMode::kClassification;
  std::size_t neighbor_count = 10;  ///< k — membership set per node

  // -- query plane ----------------------------------------------------------

  /// Max ingests between index drift absorptions; must be >= 1.  Small =
  /// fresher routing, more maintenance; CurrentStaleness() never exceeds it.
  std::size_t staleness_budget = 256;
  ann::PeerIndexOptions index;

  /// Score thresholds for QueryLevel (ascending quality): the level is the
  /// number of thresholds the live score beats in the mode's "better"
  /// direction.  The default {0} is the paper's binary rule — level 1 ⇔
  /// predicted good — and multiclass deployments pass C-1 thresholds
  /// (quantity thresholds divided by τ in regression mode).
  std::vector<double> class_thresholds = {0.0};

  // -- snapshot plane -------------------------------------------------------

  /// Log-generation directory; empty disables persistence.
  std::filesystem::path snapshot_dir;
  /// Ingests per delta epoch (when persistence is on); must be >= 1.
  std::size_t snapshot_interval = 4096;
};

class CoordinateService {
 public:
  /// Builds the resident deployment over `dataset` (which must outlive the
  /// service).  With a snapshot_dir set, recovers any existing log
  /// generation first — the warm restart — and starts a new generation from
  /// the (possibly recovered) state.  Throws std::invalid_argument on a bad
  /// config.
  CoordinateService(const datasets::Dataset& dataset, const ServiceConfig& config);

  // The engine underneath is self-referential; the service inherits its
  // pinned-in-place nature.
  CoordinateService(const CoordinateService&) = delete;
  CoordinateService& operator=(const CoordinateService&) = delete;

  // -- ingest plane ---------------------------------------------------------

  /// Pushes one measurement: launches the exchange prober -> target.
  /// `observed_quantity` carries a live measurement, like a trace record;
  /// without it the dataset matrix supplies the ground truth.  Returns
  /// whether a measurement was applied (a lost protocol leg loses it, as in
  /// any deployment).  Throws std::out_of_range on a bad id, and
  /// std::invalid_argument on a self-probe or an observed quantity that is
  /// not finite and > 0; a throw leaves the deployment unchanged.
  bool Ingest(core::NodeId prober, core::NodeId target,
              std::optional<double> observed_quantity = std::nullopt);

  /// Active probe: the engine picks `prober`'s next target per the
  /// configured strategy.  Returns the target.
  core::NodeId IngestProbe(core::NodeId prober);

  /// Warm-up / background training: full probing rounds (every node probes
  /// once per round, DmfsgdSimulation::RunRounds).  Counts as
  /// NodeCount() ingests per round against the staleness budget and
  /// snapshot interval.
  void IngestRounds(std::size_t rounds);

  /// Replays trace records [begin, end) (the passive-overlay regime);
  /// returns the number applied.  Throws if the dataset has no trace.
  std::size_t IngestTrace(std::size_t begin, std::size_t end);

  // -- query plane (live bilinear scores, DESIGN.md §16, §18) ---------------
  //
  // All Query* methods are const shared-lock readers: safe from any number
  // of threads concurrently, and concurrently with the ingest and snapshot
  // planes (a query observes the state before or after an ingest, never a
  // torn one).

  /// x̂_ij = u_i · v_j, live.  Throws std::out_of_range on bad indices.
  [[nodiscard]] double QueryScore(std::size_t i, std::size_t j) const;

  /// The metric-unit readout x̂ · τ — in regression mode the predicted
  /// quantity (the §3 τ-normalization inverted); in classification mode a
  /// score scaled into quantity range (the sign rule is QueryLevel's job).
  [[nodiscard]] double QueryQuantity(std::size_t i, std::size_t j) const;

  /// Multiclass readout: thresholds from config.class_thresholds beaten by
  /// the live score, in the mode's "better" direction (0 = worst class).
  [[nodiscard]] std::size_t QueryLevel(std::size_t i, std::size_t j) const;

  /// k best peers for node i by live score through the warm index.
  /// `ef` widens the beam (0 = the configured default; ef >= n is exact
  /// mode, bit-identical to the brute-force oracle).  Node i itself is
  /// excluded.  Throws std::out_of_range on a bad id.
  [[nodiscard]] eval::KnnResult QueryNearestPeers(std::size_t i, std::size_t k,
                                                  std::size_t ef = 0) const;

  /// The "better" direction queries rank under: largest-first score in
  /// classification mode, the metric's quantity ordering in regression.
  [[nodiscard]] eval::KnnOrdering DefaultOrdering() const noexcept;

  // -- snapshot plane -------------------------------------------------------

  /// Forces a delta epoch now (clean-shutdown flush; the periodic cadence
  /// otherwise decides).  No-op when persistence is off.
  void Checkpoint();

  // -- introspection --------------------------------------------------------

  struct Stats {
    std::uint64_t ingests = 0;          ///< measurements applied
    std::uint64_t queries = 0;          ///< Query* calls answered
    std::uint64_t index_refreshes = 0;  ///< staleness-budget absorptions
    std::uint64_t index_relinks = 0;    ///< members re-linked across refreshes
    std::uint64_t index_rebuilds = 0;   ///< full rebuild escalations
    std::uint64_t epochs = 0;           ///< delta epochs appended this run
    bool resumed = false;               ///< warm-restarted from a recovered log
    bool recovered_torn_tail = false;   ///< that recovery discarded a torn epoch
  };
  /// A consistent snapshot of the counters (shared-lock reader; the query
  /// counter is an atomic fed by the lock-sharing query plane).
  [[nodiscard]] Stats stats() const;

  /// Ingests since the index last absorbed drift; <= config.staleness_budget
  /// at all times (the CI-pinned bound).  Shared-lock reader.
  [[nodiscard]] std::size_t CurrentStaleness() const;

  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }
  [[nodiscard]] const core::DeploymentEngine& engine() const noexcept {
    return simulation_.engine();
  }
  [[nodiscard]] const core::CoordinateStore& store() const noexcept {
    return engine().store();
  }
  [[nodiscard]] const datasets::Dataset& dataset() const noexcept {
    return engine().dataset();
  }
  [[nodiscard]] std::size_t NodeCount() const noexcept {
    return engine().NodeCount();
  }

 private:
  /// Cadence bookkeeping after `count` applied measurements, called under
  /// the writer mutex with `state` held exclusive; releases `state` before
  /// any work that need not hold it.  Drains the engine dirty set into the
  /// two pending masks lazily (only when a consumer is due — the drain is
  /// destructive and O(n), so the hot ingest path must not pay it per
  /// measurement).
  void AccountIngest(std::size_t count, std::unique_lock<std::shared_mutex>& state);
  void DrainDirty();
  /// Copies the published index into the spare, applies the pending drift
  /// there, then takes `state` exclusive (if not already held) and swaps.
  void RefreshIndex(std::unique_lock<std::shared_mutex>& state);
  void AppendEpoch();
  [[nodiscard]] std::vector<core::NodeId> TakeMask(
      std::vector<unsigned char>& mask);
  /// The raw live score; callers hold the lock (shared suffices — a score
  /// is a pure read of two store rows).
  [[nodiscard]] double ScoreLocked(std::size_t i, std::size_t j) const;

  ServiceConfig config_;

  // Writers serialize here for their whole call.  Guards what only writers
  // touch (the engine's dirty set and protocol state, the spare index, the
  // log, the pending masks, the epoch cadence) and keeps the store rows
  // still while a writer reads them off the state lock.
  std::mutex writer_mutex_;
  core::DmfsgdSimulation simulation_;
  std::unique_ptr<ann::PeerIndex> spare_;  // refreshed off the state lock
  std::optional<SnapshotLogWriter> log_;   // engaged iff persistence is on
  // Dirty ids awaiting each consumer (the engine drain feeds both): byte
  // masks so merging a drain is O(drained), materialized ascending on use.
  std::vector<unsigned char> pending_index_;
  std::vector<unsigned char> pending_snapshot_;
  std::size_t since_epoch_ = 0;  ///< ingests since the last delta epoch

  // The reader–writer split (DESIGN.md §18): Query*/stats/CurrentStaleness
  // share; writers take it exclusive to write store rows and to publish
  // what readers read below.  The query counter is atomic because
  // lock-sharing queries may bump it concurrently.
  mutable std::shared_mutex state_mutex_;
  std::unique_ptr<ann::PeerIndex> index_;  // the published index
  std::size_t staleness_ = 0;  ///< ingests since the last index refresh
  Stats stats_;
  mutable std::atomic<std::uint64_t> query_count_{0};
};

}  // namespace dmfsgd::svc
