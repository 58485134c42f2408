#include "ann/peer_index.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "linalg/kernels.hpp"

namespace dmfsgd::ann {

namespace {

const PeerIndexOptions& RequireOptions(const PeerIndexOptions& options) {
  if (options.ef_search == 0) {
    throw std::invalid_argument("PeerIndex: ef_search must be > 0");
  }
  if (options.ivf_cells > 0 && options.ivf_nprobe == 0) {
    throw std::invalid_argument("PeerIndex: ivf_nprobe must be > 0");
  }
  return options;
}

std::vector<std::size_t> AllNodes(std::size_t node_count) {
  std::vector<std::size_t> ids(node_count);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  return ids;
}

/// Writes `entry` at position `at` of a list sorted by `better`, first
/// shifting back one place every entry before `at` that `entry` beats;
/// returns where it landed.  Whatever `at` held is overwritten: the caller
/// appends a slot or gives up its worst entry.
template <typename Entry, typename Better>
std::size_t ShiftIntoPlace(std::vector<Entry>& list, std::size_t at,
                           const Entry& entry, Better better) noexcept {
  while (at > 0 && better(entry, list[at - 1])) {
    list[at] = list[at - 1];
    --at;
  }
  list[at] = entry;
  return at;
}

}  // namespace

PeerIndex::ScratchLease::ScratchLease(const PeerIndex& index)
    : index_(&index), scratch_(index.AcquireScratch()) {}

PeerIndex::ScratchLease::~ScratchLease() {
  index_->ReleaseScratch(std::move(scratch_));
}

std::unique_ptr<PeerIndex::SearchScratch> PeerIndex::AcquireScratch() const {
  {
    const std::lock_guard<std::mutex> lock(search_.mutex);
    if (!search_.pool.empty()) {
      std::unique_ptr<SearchScratch> scratch = std::move(search_.pool.back());
      search_.pool.pop_back();
      return scratch;
    }
  }
  return std::make_unique<SearchScratch>();
}

void PeerIndex::ReleaseScratch(std::unique_ptr<SearchScratch> scratch) const {
  if (scratch->score_evals != 0) {
    search_.score_evals.fetch_add(scratch->score_evals,
                                  std::memory_order_relaxed);
    scratch->score_evals = 0;
  }
  const std::lock_guard<std::mutex> lock(search_.mutex);
  search_.pool.push_back(std::move(scratch));
}

PeerIndex::PeerIndex(const core::CoordinateStore& store,
                     const PeerIndexOptions& options)
    : PeerIndex(store, AllNodes(store.NodeCount()), options) {}

PeerIndex::PeerIndex(const core::CoordinateStore& store,
                     std::span<const std::size_t> members,
                     const PeerIndexOptions& options)
    : store_(&store), options_(RequireOptions(options)), rank_(store.rank()) {
  slot_of_.assign(store.NodeCount(), kNoSlot);
  id_of_.reserve(members.size());
  snap_v_.reserve(members.size() * rank_);
  adj_.reserve(members.size() * kDegree);
  adj_len_.reserve(members.size());
  for (const std::size_t id : members) {
    if (id >= store.NodeCount()) {
      throw std::out_of_range("PeerIndex: member id out of range");
    }
    if (slot_of_[id] != kNoSlot) {
      throw std::invalid_argument("PeerIndex: duplicate member id");
    }
    AppendSlot(id);
  }
  LinkAll();
}

double PeerIndex::SnapDistanceSquared(Slot a, Slot b) const noexcept {
  return linalg::DistanceSquaredRaw(Snapshot(a), Snapshot(b), rank_);
}

double PeerIndex::DistanceSquaredToSnapshot(std::span<const double> row,
                                            Slot slot) const noexcept {
  return linalg::DistanceSquaredRaw(row.data(), Snapshot(slot), rank_);
}

void PeerIndex::AppendSlot(std::size_t id) {
  slot_of_[id] = static_cast<Slot>(id_of_.size());
  id_of_.push_back(id);
  const auto v = store_->V(id);
  snap_v_.insert(snap_v_.end(), v.begin(), v.end());
  adj_.resize(adj_.size() + kDegree, kNoSlot);
  adj_len_.push_back(0);
}

void PeerIndex::SelectNeighbors(std::span<const RankedSlot> candidates,
                                std::vector<Slot>& chosen,
                                std::vector<Slot>& pruned) const {
  // Relative-neighborhood prune: a candidate already "covered" by a chosen
  // neighbor (closer to it than to the subject) is skipped first and only
  // backfilled if the list stays short — the DEG/HNSW diversity heuristic
  // that keeps greedy routing from collapsing into one cluster.
  chosen.clear();
  pruned.clear();
  for (const RankedSlot& candidate : candidates) {
    if (chosen.size() >= kDegree) {
      break;
    }
    bool keep = true;
    for (const Slot s : chosen) {
      if (SnapDistanceSquared(candidate.slot, s) < candidate.key) {
        keep = false;
        break;
      }
    }
    if (keep) {
      chosen.push_back(candidate.slot);
    } else {
      pruned.push_back(candidate.slot);
    }
  }
  for (const Slot s : pruned) {
    if (chosen.size() >= kDegree) {
      break;
    }
    chosen.push_back(s);
  }
}

void PeerIndex::LinkBack(Slot to, Slot from, SearchScratch& scratch) {
  Slot* edges = adj_.data() + static_cast<std::size_t>(to) * kDegree;
  for (std::uint32_t e = 0; e < adj_len_[to]; ++e) {
    if (edges[e] == from) {
      return;
    }
  }
  if (adj_len_[to] < kDegree) {
    edges[adj_len_[to]++] = from;
    return;
  }
  // Full list: re-prune the union of the existing edges and the newcomer
  // relative to `to`'s snapshot; the newcomer survives only if it beats the
  // diversity of what is already there.  The stored list is mostly in
  // distance order already (the prune keeps its candidates' order), so
  // inserting each candidate into place is nearly free, and since slots are
  // distinct the order is the one a sort would give.
  std::vector<RankedSlot>& candidates = scratch.relink;
  candidates.clear();
  const auto insert = [&](Slot s) {
    candidates.emplace_back();
    ShiftIntoPlace(candidates, candidates.size() - 1,
                   RankedSlot{SnapDistanceSquared(to, s), s}, Better);
  };
  for (std::uint32_t e = 0; e < adj_len_[to]; ++e) {
    insert(edges[e]);
  }
  insert(from);
  std::vector<Slot>& chosen = scratch.rechosen;
  SelectNeighbors(candidates, chosen, scratch.pruned);
  adj_len_[to] = static_cast<std::uint32_t>(chosen.size());
  std::copy(chosen.begin(), chosen.end(), edges);
}

template <typename KeyFn>
void PeerIndex::BeamSearch(std::span<const Slot> entries, std::size_t ef,
                           Slot exclude, const KeyFn& key_of,
                           SearchScratch& scratch) const {
  std::vector<RankedSlot>& pool = scratch.out;
  pool.clear();
  if (id_of_.empty() || ef == 0) {
    return;
  }
  if (scratch.visited.size() < id_of_.size()) {
    scratch.visited.resize(id_of_.size(), 0);
  }
  if (++scratch.epoch == 0) {
    std::fill(scratch.visited.begin(), scratch.visited.end(), 0);
    scratch.epoch = 1;
  }
  std::vector<std::uint32_t>& visited = scratch.visited;
  const std::uint32_t epoch = scratch.epoch;

  // `pool` is one best-first candidate list under the (key, slot) order:
  // the results found so far, each flagged once expanded.  It walks the
  // same path a best-first frontier heap plus a worst-on-top result heap
  // of `ef` would, so the walk is a pure function of (graph, entries, key
  // function), which is why query results are bit-identical at any number
  // of query threads.  The rules that keep it on that path:
  //  * every seed is pooled, even past `ef`, so the pool holds
  //    max(ef, distinct seeds) entries once full;
  //  * `exclude` is scored and expanded but never pooled: it waits in
  //    `pending` and is expanded when it beats the best unexpanded entry;
  //  * the walk stops when the next candidate does not beat the pool's
  //    worst entry of a full pool, so that worst entry is never expanded.
  RankedSlot pending;
  bool has_pending = false;
  for (const Slot s : entries) {
    if (visited[s] == epoch) {
      continue;
    }
    visited[s] = epoch;
    const RankedSlot entry{key_of(s), s};
    if (s == exclude) {
      pending = entry;
      has_pending = true;
    } else {
      pool.emplace_back();
      ShiftIntoPlace(pool, pool.size() - 1, entry, Better);
    }
  }

  std::size_t cursor = 0;  // every pool entry before it is expanded
  RankedSlot batch[kDegree];
  for (;;) {
    while (cursor < pool.size() && pool[cursor].expanded) {
      ++cursor;
    }
    const bool from_pool =
        cursor < pool.size() && !(has_pending && Better(pending, pool[cursor]));
    if (!from_pool && !has_pending) {
      break;
    }
    const RankedSlot current = from_pool ? pool[cursor] : pending;
    if (pool.size() >= ef && !Better(current, pool.back())) {
      break;
    }
    if (from_pool) {
      pool[cursor].expanded = true;
    } else {
      has_pending = false;
    }
    // Gather the unvisited neighbours without a branch (an edge list holds
    // no slot twice), score them, then insert in edge order: the same keys
    // in the same order as scoring each just before its insert.
    std::size_t scored = 0;
    for (const Slot nb : Edges(current.slot)) {
      batch[scored].slot = nb;
      scored += visited[nb] != epoch ? 1 : 0;
      visited[nb] = epoch;
    }
    for (std::size_t b = 0; b < scored; ++b) {
      batch[b].key = key_of(batch[b].slot);
    }
    for (std::size_t b = 0; b < scored; ++b) {
      const RankedSlot& next = batch[b];
      const bool full = pool.size() >= ef;
      if (full && !Better(next, pool.back())) {
        continue;
      }
      if (next.slot == exclude) {
        pending = next;
        has_pending = true;
        continue;
      }
      if (!full) {
        pool.emplace_back();
      }
      cursor = std::min(cursor,
                        ShiftIntoPlace(pool, pool.size() - 1, next, Better));
    }
  }
}

void PeerIndex::LinkAll() {
  // Entry points come from an Rng seeded here, so member order and the
  // snapshots fully determine the adjacency (duplicate entries are fine,
  // the visited set dedups) and the index keeps no Rng state.  Slot 0 has
  // nothing before it to link to; it gains edges as later slots link back.
  common::Rng rng(kLinkSeed);
  std::fill(adj_len_.begin(), adj_len_.end(), 0);
  SearchScratch scratch;
  std::vector<Slot>& entries = scratch.entries;
  for (Slot slot = 1; slot < id_of_.size(); ++slot) {
    entries.clear();
    for (std::size_t t = 0; t < kEntryPoints; ++t) {
      entries.push_back(static_cast<Slot>(rng.UniformInt(std::uint64_t{slot})));
    }
    const std::span<const double> row(Snapshot(slot), rank_);
    BeamSearch(
        entries, kEfConstruction, slot,
        [&](Slot s) { return DistanceSquaredToSnapshot(row, s); }, scratch);
    SetEdges(slot, scratch.out, scratch);
  }
  BuildCoarse();
}

void PeerIndex::RepairSlot(Slot slot, SearchScratch& scratch) {
  // A beam as narrow as the degree walks from the member's own out-edges
  // to its refreshed row.  Every member it scores is a candidate, and the
  // kEfConstruction nearest go to the prune, as deep a list as the link
  // pass's beam hands it: the prune's long, diverse edges come from that
  // depth, and a pool only as deep as the beam loses recall over a long
  // ingest (DESIGN.md §16).
  std::vector<RankedSlot>& scored = scratch.scored;
  scored.clear();
  const std::span<const double> row(Snapshot(slot), rank_);
  BeamSearch(
      Edges(slot), kDegree, slot,
      [&](Slot s) {
        const double key = DistanceSquaredToSnapshot(row, s);
        if (s != slot) {
          scored.push_back(RankedSlot{key, s});
        }
        return key;
      },
      scratch);
  const std::size_t keep = std::min(kEfConstruction, scored.size());
  const auto kept_end = scored.begin() + static_cast<std::ptrdiff_t>(keep);
  std::nth_element(scored.begin(), kept_end, scored.end(), Better);
  scored.erase(kept_end, scored.end());
  std::sort(scored.begin(), scored.end(), Better);
  SetEdges(slot, scored, scratch);
}

void PeerIndex::SetEdges(Slot slot, std::span<const RankedSlot> candidates,
                         SearchScratch& scratch) {
  std::vector<Slot>& chosen = scratch.chosen;
  SelectNeighbors(candidates, chosen, scratch.pruned);
  adj_len_[slot] = static_cast<std::uint32_t>(chosen.size());
  std::copy(chosen.begin(), chosen.end(),
            adj_.data() + static_cast<std::size_t>(slot) * kDegree);
  for (const Slot s : chosen) {
    LinkBack(s, slot, scratch);
  }
}

void PeerIndex::BuildCoarse() {
  centroids_.clear();
  cell_entry_.clear();
  const std::size_t size = id_of_.size();
  if (options_.ivf_cells == 0 || size == 0) {
    return;
  }
  // Deterministic by construction: the training sample is evenly spaced
  // over the slots, centroids are seeded from evenly spaced sample rows,
  // and every tie breaks toward the lower cell / smaller slot.  No Rng
  // draws, so enabling the coarse layer never shifts the adjacency.
  const std::size_t sample_count = std::min(kIvfSample, size);
  const std::size_t cells = std::min(options_.ivf_cells, sample_count);
  std::vector<Slot> sample(sample_count);
  for (std::size_t t = 0; t < sample_count; ++t) {
    sample[t] = static_cast<Slot>(t * size / sample_count);
  }
  centroids_.resize(cells * rank_);
  for (std::size_t c = 0; c < cells; ++c) {
    const Slot seed_slot = sample[c * sample_count / cells];
    std::copy(Snapshot(seed_slot), Snapshot(seed_slot) + rank_,
              centroids_.data() + c * rank_);
  }

  std::vector<std::size_t> assignment(sample_count, 0);
  const auto assign_all = [&] {
    for (std::size_t t = 0; t < sample_count; ++t) {
      const double* row = Snapshot(sample[t]);
      std::size_t best_cell = 0;
      double best = 0.0;
      for (std::size_t c = 0; c < cells; ++c) {
        const double dist = linalg::DistanceSquaredRaw(
            row, centroids_.data() + c * rank_, rank_);
        if (c == 0 || dist < best) {
          best = dist;
          best_cell = c;
        }
      }
      assignment[t] = best_cell;
    }
  };

  std::vector<double> sums(cells * rank_);
  std::vector<std::size_t> counts(cells);
  for (std::size_t it = 0; it < kIvfIterations; ++it) {
    assign_all();
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t t = 0; t < sample_count; ++t) {
      const double* row = Snapshot(sample[t]);
      double* sum = sums.data() + assignment[t] * rank_;
      for (std::size_t d = 0; d < rank_; ++d) {
        sum[d] += row[d];
      }
      ++counts[assignment[t]];
    }
    for (std::size_t c = 0; c < cells; ++c) {
      if (counts[c] == 0) {
        continue;  // empty cell keeps its previous centroid
      }
      double* center = centroids_.data() + c * rank_;
      const double* sum = sums.data() + c * rank_;
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (std::size_t d = 0; d < rank_; ++d) {
        center[d] = sum[d] * inv;
      }
    }
  }
  assign_all();

  // Entry medoid per cell: the sampled slot nearest the final centroid
  // (tie → smaller slot); an empty cell falls back to its evenly-spaced
  // seed so every cell always routes somewhere valid.
  cell_entry_.assign(cells, kNoSlot);
  std::vector<double> best_dist(cells, 0.0);
  for (std::size_t t = 0; t < sample_count; ++t) {
    const std::size_t c = assignment[t];
    const double dist = linalg::DistanceSquaredRaw(
        Snapshot(sample[t]), centroids_.data() + c * rank_, rank_);
    if (cell_entry_[c] == kNoSlot || dist < best_dist[c] ||
        (dist == best_dist[c] && sample[t] < cell_entry_[c])) {
      cell_entry_[c] = sample[t];
      best_dist[c] = dist;
    }
  }
  for (std::size_t c = 0; c < cells; ++c) {
    if (cell_entry_[c] == kNoSlot) {
      cell_entry_[c] = sample[c * sample_count / cells];
    }
  }
}

std::vector<std::size_t> PeerIndex::NeighborsOf(std::size_t id) const {
  if (!Contains(id)) {
    throw std::out_of_range("PeerIndex::NeighborsOf: not a member");
  }
  const Slot slot = slot_of_[id];
  std::vector<std::size_t> out;
  out.reserve(adj_len_[slot]);
  for (const Slot e : Edges(slot)) {
    out.push_back(id_of_[e]);
  }
  return out;
}

std::vector<std::size_t> PeerIndex::CellEntries() const {
  std::vector<std::size_t> out;
  out.reserve(cell_entry_.size());
  for (const Slot s : cell_entry_) {
    out.push_back(id_of_[s]);
  }
  return out;
}

eval::KnnResult PeerIndex::GraphSearch(std::span<const double> query_u,
                                       std::size_t k, eval::KnnOrdering ordering,
                                       std::size_t ef, Slot exclude,
                                       SearchScratch& scratch) const {
  const bool smallest = ordering == eval::KnnOrdering::kSmallestFirst;
  const auto key_of = [&](Slot s) {
    ++scratch.score_evals;
    const double score =
        linalg::DotRaw(query_u.data(), store_->V(id_of_[s]).data(), rank_);
    return smallest ? score : -score;
  };
  const std::size_t size = id_of_.size();
  std::vector<Slot>& entries = scratch.entries;
  entries.clear();
  if (!cell_entry_.empty()) {
    // Coarse routing: rank every cell by the query's score against its
    // centroid (u · centroid — the cell's mean member score) and seed the
    // beam from the best `nprobe` cell medoids.  Ties break toward the
    // lower cell, so routing is deterministic.
    const std::size_t cells = cell_entry_.size();
    std::vector<RankedSlot>& ranked = scratch.cells;
    ranked.clear();
    ranked.reserve(cells);
    scratch.score_evals += cells;
    for (std::size_t c = 0; c < cells; ++c) {
      const double score =
          linalg::DotRaw(query_u.data(), centroids_.data() + c * rank_, rank_);
      ranked.push_back(
          RankedSlot{smallest ? score : -score, static_cast<Slot>(c)});
    }
    const std::size_t probe = std::min(options_.ivf_nprobe, cells);
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(probe),
                      ranked.end(), Better);
    entries.reserve(probe);
    for (std::size_t p = 0; p < probe; ++p) {
      entries.push_back(cell_entry_[ranked[p].slot]);
    }
  } else {
    // Flat mode: fixed evenly-spaced entry slots keep const searches
    // stateless and repeatable.
    const std::size_t entry_count = std::min(kEntryPoints, size);
    entries.reserve(entry_count);
    for (std::size_t t = 0; t < entry_count; ++t) {
      entries.push_back(static_cast<Slot>(t * size / entry_count));
    }
  }
  BeamSearch(entries, ef, exclude, key_of, scratch);
  const std::vector<RankedSlot>& found = scratch.out;
  const std::size_t count = std::min(k, found.size());
  eval::KnnResult result;
  result.ids.reserve(count);
  result.scores.reserve(count);
  for (std::size_t p = 0; p < count; ++p) {
    result.ids.push_back(id_of_[found[p].slot]);
    result.scores.push_back(smallest ? found[p].key : -found[p].key);
  }
  return result;
}

eval::KnnResult PeerIndex::SearchFrom(std::size_t query, std::size_t k,
                                      eval::KnnOrdering ordering,
                                      std::size_t ef) const {
  if (query >= store_->NodeCount()) {
    throw std::out_of_range("PeerIndex::SearchFrom: query id out of range");
  }
  if (k == 0) {
    throw std::invalid_argument("PeerIndex::SearchFrom: k must be > 0");
  }
  const std::span<const double> query_u = store_->U(query);
  std::size_t beam = ef == 0 ? options_.ef_search : ef;
  beam = std::max(beam, k);
  const bool probe_everything =
      !cell_entry_.empty() && options_.ivf_nprobe >= cell_entry_.size();
  if (beam >= id_of_.size() || probe_everything) {
    // Exact mode (the beam covers the membership, or the coarse layer
    // would probe every cell): the oracle itself over the members in slot
    // order — the bit-identity the parity tests rely on.
    search_.score_evals.fetch_add(id_of_.size(), std::memory_order_relaxed);
    return eval::BruteForceKnnRow(*store_, query_u, id_of_, k, ordering, query);
  }
  const ScratchLease lease(*this);
  return GraphSearch(query_u, k, ordering, beam, slot_of_[query], *lease);
}

bool PeerIndex::Update(std::size_t id) {
  if (!Contains(id)) {
    throw std::invalid_argument("PeerIndex::Update: not a member");
  }
  const Slot slot = slot_of_[id];
  const std::span<const double> snapshot(Snapshot(slot), rank_);
  const double drift2 = store_->VRowDriftSquared(id, snapshot);
  if (drift2 <= kDriftEpsilon * kDriftEpsilon) {
    return false;
  }
  // Refresh the snapshot and replace the member's out-edges; stale
  // in-edges stay (they are routing hints toward a nearby region) until a
  // rebuild re-prunes them.  The coarse centroids drift with the rows and
  // are refreshed wholesale on the rebuild path.
  store_->CopyVRow(id, {snap_v_.data() + static_cast<std::size_t>(slot) * rank_,
                        rank_});
  const ScratchLease lease(*this);
  RepairSlot(slot, *lease);
  return true;
}

PeerIndex::UpdateStats PeerIndex::ApplyUpdates(std::span<const core::NodeId> ids) {
  UpdateStats stats;
  if (id_of_.empty()) {
    return stats;
  }
  constexpr double eps2 = kDriftEpsilon * kDriftEpsilon;
  std::size_t drifted = 0;
  for (const core::NodeId id : ids) {
    if (!Contains(id)) {
      continue;
    }
    const Slot slot = slot_of_[id];
    if (store_->VRowDriftSquared(id, {Snapshot(slot), rank_}) > eps2) {
      ++drifted;
    } else {
      ++stats.epsilon_skips;
    }
  }
  if (static_cast<double>(drifted) >
      kRebuildFraction * static_cast<double>(id_of_.size())) {
    RebuildAll();
    stats.rebuilt = true;
    return stats;
  }
  for (const core::NodeId id : ids) {
    if (Contains(id) && Update(id)) {
      ++stats.relinked;
    }
  }
  return stats;
}

void PeerIndex::RebuildAll() {
  // Refresh every snapshot, then run the construction's link pass — a pure
  // function of (member order, live rows), so a rebuild is idempotent and a
  // rebuild of a fresh index reproduces the constructed adjacency.  The
  // coarse layer rebuilds from the same refreshed snapshots.
  for (Slot slot = 0; slot < id_of_.size(); ++slot) {
    store_->CopyVRow(id_of_[slot],
                     {snap_v_.data() + static_cast<std::size_t>(slot) * rank_,
                      rank_});
  }
  LinkAll();
}

}  // namespace dmfsgd::ann
