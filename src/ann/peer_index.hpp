// The ANN peer-selection plane (DESIGN.md §16, §18): a drift-tolerant
// proximity index over live coordinates.
//
// The trained factors make "which peers should node i talk to" a k-NN
// query under the predicted quantity x̂ = u_query · v_member.  PeerIndex
// answers it with a graph-based dynamic index in the spirit of DEG/HNSW:
//
//  * structure: every member holds up to kDegree out-edges to members
//    whose *snapshot* v rows are Euclidean-near its own, chosen by greedy
//    beam search plus the relative-neighborhood prune (a candidate is
//    skipped while some already-chosen neighbor is closer to it than the
//    new member is).  Edges are directed; back-links are added while there
//    is room and re-pruned when a list overflows.
//  * search: greedy best-first beam over the adjacency, ranked by the
//    *live* bilinear score u_query · v_member — the graph only navigates;
//    every score reads the store at query time.  That split is the whole
//    staleness story: SGD drift can only degrade *routing* (which the
//    recall-under-drift tests bound), never the scores reported, and both
//    RTT (smallest-first) and ABW (largest-first) orderings ride the same
//    graph because edge selection is ordering-agnostic.
//  * coarse routing (DESIGN.md §18): with `ivf_cells > 0` an IVF-style
//    coarse quantizer sits above the graph — seeded k-means centroids over
//    a deterministic subsample of the snapshot v rows, one medoid entry
//    slot per cell.  A query scores every centroid (u · centroid — the
//    cell's mean member score), picks the best `ivf_nprobe` cells, and
//    seeds the beam from their medoids instead of from fixed evenly-spaced
//    slots; past n ≈ 10⁵ that lands the beam inside the right region in
//    O(cells) instead of walking there, which is what holds recall at the
//    million-node tier.  The coarse layer is routing only — like the graph
//    it is rebuilt from live rows on the RebuildAll escalation path and
//    drifts harmlessly in between.
//  * drift: Update(id) measures the member's v-row drift against its
//    snapshot and epsilon-skips below kDriftEpsilon; otherwise it refreshes
//    the snapshot and re-links the member's out-edges (stale in-edges are
//    tolerated; they are routing hints, not answers).  The re-link is a
//    *repair*: a beam as narrow as the degree walks from the member's
//    current out-edges to its new row — no random entry points, no wide
//    beam — and the kEfConstruction nearest members it scored go to the
//    same prune and back-links as the link pass.  ApplyUpdates() drains an
//    engine dirty set and escalates to RebuildAll() when the drifted
//    fraction makes per-member re-linking more expensive than rebuilding.
//
// Membership is fixed at construction: churn resets a node in place, so
// the served index always holds the same members (DESIGN.md §16).  Every
// member keeps at least one out-edge once the index has two members, which
// is what lets a repair always start from the member's own edges.
//
// Exact mode: a search with ef >= Size() — or, with the coarse layer on,
// ivf_nprobe >= the cell count — bypasses the graph and runs
// eval::BruteForceKnnRow over the members in slot order, so an exact-mode
// query is bit-identical to the oracle by construction — the property the
// peer-selection parity and IVF exact-mode tests pin.
//
// Determinism: construction and RebuildAll run one link pass over the
// members in slot order, drawing beam entry points from a local Rng seeded
// with kLinkSeed, so the adjacency is a pure function of (member order,
// snapshots) and the index holds no Rng state.  A repair draws nothing (it
// is a pure function of the adjacency and the snapshots); the coarse layer
// is built from a deterministic evenly-spaced subsample; all ranking uses
// the strict total order (key, slot); searches seed from the coarse
// medoids (or fixed evenly-spaced slots) — the same (member order, rows,
// operation sequence) always yields the same adjacency and the same query
// results, at any number of query threads.
//
// Concurrency (DESIGN.md §18): queries never mutate the store or the
// graph.  Each SearchFrom leases a SearchScratch (visited epochs, the
// beam's sorted candidate list) from an internal free-list pool and folds
// its evaluation count into one atomic on release, so any number of
// threads may run const searches concurrently — results are bit-identical
// to a serial run because the walk is a pure function of (graph, entries,
// key function).
// Mutators (Update/ApplyUpdates/RebuildAll) are NOT safe against
// concurrent searches.  Copying is a read: an index may be copied while it
// serves searches, which is how svc::CoordinateService refreshes a private
// replica off its reader lock and publishes it by pointer swap.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/coordinate_store.hpp"
#include "core/messages.hpp"
#include "eval/brute_force_knn.hpp"

namespace dmfsgd::ann {

// The index's fixed parameters.  One value serves every deployment, so
// they are constants rather than options.

/// Max out-edges per member.
inline constexpr std::size_t kDegree = 16;
/// Beam width of the construction link pass; candidate pool of a repair.
inline constexpr std::size_t kEfConstruction = 96;
/// Beam seeds per link, and per search with the coarse layer off.
inline constexpr std::size_t kEntryPoints = 4;
/// L2 drift of the v row below which Update() skips re-linking — small SGD
/// steps move a row far less than the inter-member spacing.
inline constexpr double kDriftEpsilon = 1e-3;
/// ApplyUpdates() rebuilds instead of re-linking when more than this
/// fraction of the members drifted past kDriftEpsilon.
inline constexpr double kRebuildFraction = 0.35;
/// Seeds the link pass's entry-point draws (construction and RebuildAll).
inline constexpr std::uint64_t kLinkSeed = 97;
/// K-means training subsample cap of the coarse layer (evenly spaced over
/// the slots, so the coarse build is deterministic and
/// O(sample · cells · rank), not O(Size · cells · rank) at the million-node
/// tier).
inline constexpr std::size_t kIvfSample = 32768;
/// Lloyd refinement rounds of the coarse layer's k-means.
inline constexpr std::size_t kIvfIterations = 3;

/// What a deployment tunes: the query beam and the coarse layer.  Throws
/// std::invalid_argument at construction when ef_search is 0, or when the
/// coarse layer is on and ivf_nprobe is 0.
struct PeerIndexOptions {
  std::size_t ef_search = 96;  ///< default query beam width

  // -- IVF coarse quantizer (DESIGN.md §18); 0 cells = off -------------------

  /// Coarse k-means cells over the snapshot v rows (clamped to Size()).
  /// Routing only: a query seeds its beam from the best `ivf_nprobe` cell
  /// medoids instead of fixed evenly-spaced slots.
  std::size_t ivf_cells = 0;
  /// Cells probed per query; >= the cell count is the exact mode (the
  /// whole search delegates to the brute-force oracle, bit-identical).
  std::size_t ivf_nprobe = 8;
};

class PeerIndex {
 public:
  /// Indexes every node of the store, in id order.  The store must outlive
  /// the index and must not shrink below the indexed ids (it never
  /// reallocates rows, so spans stay valid).  Throws std::invalid_argument
  /// on bad options.
  PeerIndex(const core::CoordinateStore& store, const PeerIndexOptions& options);

  /// Indexes an explicit member subset (e.g. one node's candidate peer
  /// set); slot order == `members` order, which exact-mode queries scan.
  /// Throws on duplicate or out-of-range members.
  PeerIndex(const core::CoordinateStore& store,
            std::span<const std::size_t> members,
            const PeerIndexOptions& options);

  /// Copies the graph, the snapshots, the coarse layer and the evaluation
  /// count, over the same store: the copy answers every search and replays
  /// every mutation exactly as the source would, because a mutation reads
  /// nothing else of the index.  The copy gets a scratch pool and pool lock
  /// of its own, so copying only reads the source and may run concurrently
  /// with its searches.  Assignment reuses the target's buffers (no
  /// allocation once sized).
  PeerIndex(const PeerIndex&) = default;
  PeerIndex& operator=(const PeerIndex&) = default;

  [[nodiscard]] std::size_t Size() const noexcept { return id_of_.size(); }
  [[nodiscard]] bool Contains(std::size_t id) const noexcept {
    return id < slot_of_.size() && slot_of_[id] != kNoSlot;
  }
  /// Member ids in slot order (exact-mode scan order).
  [[nodiscard]] std::span<const std::size_t> Members() const noexcept {
    return id_of_;
  }
  /// A member's current out-edges as node ids (determinism tests pin this).
  [[nodiscard]] std::vector<std::size_t> NeighborsOf(std::size_t id) const;

  /// Coarse cells currently built (0 when the IVF layer is off or empty).
  [[nodiscard]] std::size_t CellCount() const noexcept {
    return cell_entry_.size();
  }
  /// Member ids serving as cell entry medoids, in cell order (the IVF
  /// determinism tests pin this).
  [[nodiscard]] std::vector<std::size_t> CellEntries() const;

  /// The k best members for node `query` by u_query · v_member under
  /// `ordering`, read from the live store; `query` itself (member or not)
  /// is excluded from the results.  `ef` widens the beam
  /// (0 = options.ef_search; clamped to >= k); ef >= Size() is the exact
  /// mode.  Safe to call from any number of threads concurrently (not
  /// concurrently with mutators).  Throws on an out-of-range query or
  /// k == 0.
  [[nodiscard]] eval::KnnResult SearchFrom(std::size_t query, std::size_t k,
                                           eval::KnnOrdering ordering,
                                           std::size_t ef = 0) const;

  /// Re-links `id` if its live v row drifted more than kDriftEpsilon from
  /// the indexed snapshot; returns whether a re-link happened.  The
  /// re-link repairs the out-edges with a narrow beam from the current ones
  /// (no Rng draw).  Throws if absent.
  bool Update(std::size_t id);

  struct UpdateStats {
    std::size_t relinked = 0;      ///< members re-linked
    std::size_t epsilon_skips = 0; ///< members whose drift stayed under epsilon
    bool rebuilt = false;          ///< escalated to RebuildAll
  };

  /// Drains an engine dirty set (DeploymentEngine::TakeDirtyNodes):
  /// non-members are ignored, members are drift-checked, and the whole
  /// batch escalates to RebuildAll() when more than kRebuildFraction of
  /// the membership drifted past epsilon.
  UpdateStats ApplyUpdates(std::span<const core::NodeId> ids);

  /// Rebuilds every edge — and the coarse layer — from the live store
  /// (bulk churn / drift): the construction's link pass over refreshed
  /// snapshots.  Keeps membership and slot order; a rebuild of an
  /// already-fresh index is a no-op on the adjacency (idempotence — pinned
  /// by tests).
  void RebuildAll();

  /// Cumulative u·v-shaped evaluations performed by searches — member
  /// scores plus coarse centroid scores (the work an exact scan would
  /// spend Size() of per query) — the bench's cost model.
  [[nodiscard]] std::uint64_t ScoreEvaluations() const noexcept {
    return search_.score_evals.load(std::memory_order_relaxed);
  }

 private:
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = 0xffffffffu;

  /// A beam entry under the strict total order (key, slot); smaller key is
  /// better (query keys negate largest-first scores).
  struct RankedSlot {
    double key = 0.0;
    Slot slot = 0;
    bool expanded = false;  ///< BeamSearch's pool only; sits in the padding
  };
  static bool Better(const RankedSlot& a, const RankedSlot& b) noexcept {
    return a.key < b.key || (a.key == b.key && a.slot < b.slot);
  }

  /// Per-search mutable state, leased from an internal pool so const
  /// searches from many threads never share a buffer (DESIGN.md §18).
  struct SearchScratch {
    std::vector<std::uint32_t> visited;  ///< epoch-marked visited set
    std::uint32_t epoch = 0;
    std::vector<RankedSlot> out;         ///< the beam's best-first candidates
    std::vector<RankedSlot> cells;       ///< coarse-cell ranking buffer
    std::vector<Slot> entries;           ///< beam seed slots
    std::uint64_t score_evals = 0;       ///< folded into the index atomic
    // Link temporaries, so a relink allocates nothing once warm.
    std::vector<RankedSlot> scored;      ///< RepairSlot: every member scored
    std::vector<Slot> chosen;            ///< SetEdges: the new out-edges
    std::vector<RankedSlot> relink;      ///< LinkBack: full list + newcomer
    std::vector<Slot> rechosen;          ///< LinkBack: the re-pruned list
    std::vector<Slot> pruned;            ///< SelectNeighbors: backfill
  };

  /// RAII lease: pops a scratch from the free list (or makes one), folds
  /// its evaluation count into the index counter and returns it on
  /// destruction.
  class ScratchLease {
   public:
    explicit ScratchLease(const PeerIndex& index);
    ~ScratchLease();
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;
    [[nodiscard]] SearchScratch& operator*() const noexcept { return *scratch_; }
    [[nodiscard]] SearchScratch* operator->() const noexcept {
      return scratch_.get();
    }

   private:
    const PeerIndex* index_;
    std::unique_ptr<SearchScratch> scratch_;
  };

  [[nodiscard]] const double* Snapshot(Slot slot) const noexcept {
    return snap_v_.data() + static_cast<std::size_t>(slot) * rank_;
  }
  [[nodiscard]] double SnapDistanceSquared(Slot a, Slot b) const noexcept;
  [[nodiscard]] double DistanceSquaredToSnapshot(std::span<const double> row,
                                                 Slot slot) const noexcept;
  [[nodiscard]] std::span<const Slot> Edges(Slot slot) const noexcept {
    return {adj_.data() + static_cast<std::size_t>(slot) * kDegree,
            adj_len_[slot]};
  }

  /// Appends a slot for `id` (snapshot copied from the live store) without
  /// linking it.
  void AppendSlot(std::size_t id);
  /// The link pass of construction and RebuildAll: drops every edge, then
  /// wires each slot's out-edges in slot order by a kEfConstruction-wide
  /// beam over the slots before it, and builds the coarse layer.
  void LinkAll();
  /// Re-chooses `slot`'s out-edges after its snapshot moved: a kDegree-wide
  /// beam from its current out-edges toward the new snapshot, pruning the
  /// kEfConstruction nearest members the beam scored.  A pure function of
  /// the adjacency and the snapshots; draws nothing.
  void RepairSlot(Slot slot, SearchScratch& scratch);
  /// Prunes `candidates` (best-first) into `slot`'s out-edges and adds the
  /// back-link from each chosen edge.
  void SetEdges(Slot slot, std::span<const RankedSlot> candidates,
                SearchScratch& scratch);
  /// Relative-neighborhood prune over `candidates` (sorted best-first by
  /// distance to the subject's snapshot); keeps up to kDegree, backfills
  /// with pruned candidates (buffered in `pruned`) to keep the graph dense.
  void SelectNeighbors(std::span<const RankedSlot> candidates,
                       std::vector<Slot>& chosen,
                       std::vector<Slot>& pruned) const;
  /// Adds the back-edge to -> from, re-pruning to's list when full.
  void LinkBack(Slot to, Slot from, SearchScratch& scratch);

  /// (Re)builds the IVF coarse layer from the current snapshots: seeded
  /// k-means over an evenly-spaced subsample, one medoid entry per cell.
  /// Deterministic; draws nothing.
  void BuildCoarse();

  /// Greedy best-first beam search; key_of(slot) returns the ranking key.
  /// Fills scratch.out best-first with up to max(ef, distinct seeds) slots
  /// (never `exclude`), calling key_of once per slot it reaches.
  template <typename KeyFn>
  void BeamSearch(std::span<const Slot> entries, std::size_t ef, Slot exclude,
                  const KeyFn& key_of, SearchScratch& scratch) const;

  [[nodiscard]] eval::KnnResult GraphSearch(std::span<const double> query_u,
                                            std::size_t k,
                                            eval::KnnOrdering ordering,
                                            std::size_t ef, Slot exclude,
                                            SearchScratch& scratch) const;

  [[nodiscard]] std::unique_ptr<SearchScratch> AcquireScratch() const;
  void ReleaseScratch(std::unique_ptr<SearchScratch> scratch) const;

  const core::CoordinateStore* store_;
  PeerIndexOptions options_;
  std::size_t rank_;

  std::vector<Slot> slot_of_;        // dense over node ids; kNoSlot = absent
  std::vector<std::size_t> id_of_;   // per slot
  std::vector<double> snap_v_;       // per slot: the indexed v row
  std::vector<Slot> adj_;            // per slot: kDegree edge slots
  std::vector<std::uint32_t> adj_len_;

  // IVF coarse layer (empty = off): k-means centers over snapshot v rows
  // and one medoid entry slot per cell.
  std::vector<double> centroids_;    // cell-major, rank_ doubles per cell
  std::vector<Slot> cell_entry_;

  // Search-scratch free list + the folded evaluation counter; the only
  // mutable state a const search touches, which is what makes concurrent
  // queries safe.  A copied index starts with an empty pool and a lock of
  // its own, and the source's count.
  struct SearchState {
    SearchState() = default;
    SearchState(const SearchState& other) noexcept
        : score_evals(other.score_evals.load(std::memory_order_relaxed)) {}
    SearchState& operator=(const SearchState& other) noexcept {
      score_evals.store(other.score_evals.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      return *this;
    }
    std::mutex mutex;
    std::vector<std::unique_ptr<SearchScratch>> pool;  // guarded by mutex
    std::atomic<std::uint64_t> score_evals{0};
  };
  mutable SearchState search_;
};

}  // namespace dmfsgd::ann
