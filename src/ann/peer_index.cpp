#include "ann/peer_index.hpp"

#include <algorithm>
#include <stdexcept>

namespace dmfsgd::ann {

namespace {

const PeerIndexOptions& RequireOptions(const PeerIndexOptions& options) {
  if (options.degree == 0) {
    throw std::invalid_argument("PeerIndex: degree must be > 0");
  }
  if (options.ef_construction == 0 || options.ef_search == 0) {
    throw std::invalid_argument("PeerIndex: beam widths must be > 0");
  }
  if (options.entry_points == 0) {
    throw std::invalid_argument("PeerIndex: entry_points must be > 0");
  }
  // Written so NaN fails: a NaN threshold would silently never trigger.
  if (!(options.drift_epsilon >= 0.0)) {
    throw std::invalid_argument("PeerIndex: drift_epsilon must be >= 0");
  }
  if (!(options.rebuild_fraction >= 0.0 && options.rebuild_fraction <= 1.0)) {
    throw std::invalid_argument("PeerIndex: rebuild_fraction must be in [0, 1]");
  }
  if (options.ivf_cells > 0) {
    if (options.ivf_nprobe == 0) {
      throw std::invalid_argument("PeerIndex: ivf_nprobe must be > 0");
    }
    if (options.ivf_sample == 0) {
      throw std::invalid_argument("PeerIndex: ivf_sample must be > 0");
    }
  }
  return options;
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
    : store_(&store),
      options_(RequireOptions(options)),
      rank_(store.rank()),
      rng_(options.seed) {
  const std::size_t n = store.NodeCount();
  slot_of_.assign(n, kNoSlot);
  id_of_.reserve(n);
  snap_v_.reserve(n * rank_);
  adj_.reserve(n * options_.degree);
  adj_len_.reserve(n);
  SearchScratch scratch;
  for (std::size_t id = 0; id < n; ++id) {
    const Slot slot = AppendSlot(id);
    LinkSlot(slot, slot, scratch);
  }
  BuildCoarse();
}

PeerIndex::PeerIndex(const core::CoordinateStore& store,
                     std::span<const std::size_t> members,
                     const PeerIndexOptions& options)
    : store_(&store),
      options_(RequireOptions(options)),
      rank_(store.rank()),
      rng_(options.seed) {
  slot_of_.assign(store.NodeCount(), kNoSlot);
  id_of_.reserve(members.size());
  snap_v_.reserve(members.size() * rank_);
  adj_.reserve(members.size() * options_.degree);
  adj_len_.reserve(members.size());
  SearchScratch scratch;
  for (const std::size_t id : members) {
    if (id >= store.NodeCount()) {
      throw std::out_of_range("PeerIndex: member id out of range");
    }
    if (slot_of_[id] != kNoSlot) {
      throw std::invalid_argument("PeerIndex: duplicate member id");
    }
    const Slot slot = AppendSlot(id);
    LinkSlot(slot, slot, scratch);
  }
  BuildCoarse();
}

double PeerIndex::SnapDistanceSquared(Slot a, Slot b) const noexcept {
  const double* pa = Snapshot(a);
  const double* pb = Snapshot(b);
  double sum = 0.0;
  for (std::size_t d = 0; d < rank_; ++d) {
    const double diff = pa[d] - pb[d];
    sum += diff * diff;
  }
  return sum;
}

double PeerIndex::DistanceSquaredToSnapshot(std::span<const double> row,
                                            Slot slot) const noexcept {
  const double* p = Snapshot(slot);
  double sum = 0.0;
  for (std::size_t d = 0; d < rank_; ++d) {
    const double diff = row[d] - p[d];
    sum += diff * diff;
  }
  return sum;
}

PeerIndex::Slot PeerIndex::AppendSlot(std::size_t id) {
  const Slot slot = static_cast<Slot>(id_of_.size());
  id_of_.push_back(id);
  slot_of_[id] = slot;
  const auto v = store_->V(id);
  snap_v_.insert(snap_v_.end(), v.begin(), v.end());
  adj_.resize(adj_.size() + options_.degree, kNoSlot);
  adj_len_.push_back(0);
  return slot;
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
    if (chosen.size() >= options_.degree) {
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
    if (chosen.size() >= options_.degree) {
      break;
    }
    chosen.push_back(s);
  }
}

void PeerIndex::LinkBack(Slot to, Slot from, SearchScratch& scratch) {
  Slot* edges = adj_.data() + static_cast<std::size_t>(to) * options_.degree;
  for (std::uint32_t e = 0; e < adj_len_[to]; ++e) {
    if (edges[e] == from) {
      return;
    }
  }
  if (adj_len_[to] < options_.degree) {
    edges[adj_len_[to]++] = from;
    return;
  }
  // Full list: re-prune the union of the existing edges and the newcomer
  // relative to `to`'s snapshot; the newcomer survives only if it beats the
  // diversity of what is already there.
  std::vector<RankedSlot>& candidates = scratch.relink;
  candidates.clear();
  for (std::uint32_t e = 0; e < adj_len_[to]; ++e) {
    candidates.push_back(RankedSlot{SnapDistanceSquared(to, edges[e]), edges[e]});
  }
  candidates.push_back(RankedSlot{SnapDistanceSquared(to, from), from});
  std::sort(candidates.begin(), candidates.end(), Better);
  std::vector<Slot>& chosen = scratch.rechosen;
  SelectNeighbors(candidates, chosen, scratch.pruned);
  adj_len_[to] = static_cast<std::uint32_t>(chosen.size());
  std::copy(chosen.begin(), chosen.end(), edges);
}

template <typename KeyFn>
void PeerIndex::BeamSearch(std::span<const Slot> entries, std::size_t ef,
                           Slot exclude, const KeyFn& key_of,
                           SearchScratch& scratch) const {
  std::vector<RankedSlot>& out = scratch.out;
  out.clear();
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

  // `out` doubles as the worst-on-top result heap; `scratch.frontier` is
  // the best-first frontier.  Both orders key on (key, slot), so the walk
  // is a pure function of (graph, entries, key function) — which is why
  // query results are bit-identical at any number of query threads.
  const auto worst_on_top = [](const RankedSlot& a, const RankedSlot& b) {
    return Better(a, b);
  };
  const auto best_on_top = [](const RankedSlot& a, const RankedSlot& b) {
    return Better(b, a);
  };
  std::vector<RankedSlot>& frontier = scratch.frontier;
  frontier.clear();

  for (const Slot s : entries) {
    if (visited[s] == epoch) {
      continue;
    }
    visited[s] = epoch;
    const RankedSlot entry{key_of(s), s};
    frontier.push_back(entry);
    std::push_heap(frontier.begin(), frontier.end(), best_on_top);
    if (s != exclude) {
      out.push_back(entry);
      std::push_heap(out.begin(), out.end(), worst_on_top);
    }
  }

  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), best_on_top);
    const RankedSlot current = frontier.back();
    frontier.pop_back();
    if (out.size() >= ef && !Better(current, out.front())) {
      break;
    }
    for (const Slot nb : Edges(current.slot)) {
      if (visited[nb] == epoch) {
        continue;
      }
      visited[nb] = epoch;
      const RankedSlot next{key_of(nb), nb};
      if (out.size() < ef || Better(next, out.front())) {
        frontier.push_back(next);
        std::push_heap(frontier.begin(), frontier.end(), best_on_top);
        if (nb != exclude) {
          out.push_back(next);
          std::push_heap(out.begin(), out.end(), worst_on_top);
          if (out.size() > ef) {
            std::pop_heap(out.begin(), out.end(), worst_on_top);
            out.pop_back();
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end(), Better);
}

void PeerIndex::LinkSlot(Slot slot, std::size_t linked, SearchScratch& scratch) {
  if (linked == 0) {
    adj_len_[slot] = 0;
    return;
  }
  // Entry points come from the index Rng: construction order + seed fully
  // determine the adjacency (duplicates are fine, the visited set dedups).
  std::vector<Slot>& entries = scratch.entries;
  entries.clear();
  for (std::size_t t = 0; t < options_.entry_points; ++t) {
    entries.push_back(
        static_cast<Slot>(rng_.UniformInt(static_cast<std::uint64_t>(linked))));
  }
  const std::span<const double> row(Snapshot(slot), rank_);
  BeamSearch(
      entries, options_.ef_construction, slot,
      [&](Slot s) { return DistanceSquaredToSnapshot(row, s); }, scratch);
  std::vector<Slot>& chosen = scratch.chosen;
  SelectNeighbors(scratch.out, chosen, scratch.pruned);
  adj_len_[slot] = static_cast<std::uint32_t>(chosen.size());
  std::copy(chosen.begin(), chosen.end(),
            adj_.data() + static_cast<std::size_t>(slot) * options_.degree);
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
  // and every tie breaks toward the lower cell / smaller slot.  No rng_
  // draws, so enabling the coarse layer never shifts the adjacency stream.
  const std::size_t sample_count = std::min(options_.ivf_sample, size);
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
        const double* center = centroids_.data() + c * rank_;
        double dist = 0.0;
        for (std::size_t d = 0; d < rank_; ++d) {
          const double diff = row[d] - center[d];
          dist += diff * diff;
        }
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
  for (std::size_t it = 0; it < options_.ivf_iterations; ++it) {
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
    const double* row = Snapshot(sample[t]);
    const double* center = centroids_.data() + c * rank_;
    double dist = 0.0;
    for (std::size_t d = 0; d < rank_; ++d) {
      const double diff = row[d] - center[d];
      dist += diff * diff;
    }
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
                                       std::size_t ef, std::size_t exclude_id,
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
    const std::size_t entry_count = std::min(options_.entry_points, size);
    entries.reserve(entry_count);
    for (std::size_t t = 0; t < entry_count; ++t) {
      entries.push_back(static_cast<Slot>(t * size / entry_count));
    }
  }
  const Slot exclude =
      exclude_id < slot_of_.size() && slot_of_[exclude_id] != kNoSlot
          ? slot_of_[exclude_id]
          : kNoSlot;
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

eval::KnnResult PeerIndex::Search(std::span<const double> query_u, std::size_t k,
                                  eval::KnnOrdering ordering,
                                  std::size_t ef) const {
  return SearchFrom(store_->NodeCount(), k, ordering, ef, query_u);
}

eval::KnnResult PeerIndex::SearchFrom(std::size_t query, std::size_t k,
                                      eval::KnnOrdering ordering,
                                      std::size_t ef) const {
  if (query >= store_->NodeCount()) {
    throw std::out_of_range("PeerIndex::SearchFrom: query id out of range");
  }
  return SearchFrom(query, k, ordering, ef, store_->U(query));
}

eval::KnnResult PeerIndex::SearchFrom(std::size_t exclude_id, std::size_t k,
                                      eval::KnnOrdering ordering, std::size_t ef,
                                      std::span<const double> query_u) const {
  if (k == 0) {
    throw std::invalid_argument("PeerIndex::Search: k must be > 0");
  }
  if (query_u.size() != rank_) {
    throw std::invalid_argument("PeerIndex::Search: query row rank mismatch");
  }
  std::size_t beam = ef == 0 ? options_.ef_search : ef;
  beam = std::max(beam, k);
  const bool probe_everything =
      !cell_entry_.empty() && options_.ivf_nprobe >= cell_entry_.size();
  if (beam >= id_of_.size() || probe_everything) {
    // Exact mode (the beam covers the membership, or the coarse layer
    // would probe every cell): the oracle itself over the members in slot
    // order — the bit-identity the parity tests rely on.
    search_.score_evals.fetch_add(id_of_.size(), std::memory_order_relaxed);
    return eval::BruteForceKnnRow(*store_, query_u, id_of_, k, ordering,
                                  exclude_id);
  }
  const ScratchLease lease(*this);
  return GraphSearch(query_u, k, ordering, beam, exclude_id, *lease);
}

void PeerIndex::Add(std::size_t id) {
  if (id >= store_->NodeCount()) {
    throw std::out_of_range("PeerIndex::Add: id out of range");
  }
  if (slot_of_[id] != kNoSlot) {
    throw std::invalid_argument("PeerIndex::Add: already a member");
  }
  const Slot slot = AppendSlot(id);
  const ScratchLease lease(*this);
  LinkSlot(slot, slot, *lease);
  // The coarse layer is left alone: the new member is reachable through
  // back-links from its neighbors, and the next rebuild refreshes the
  // cells.
}

void PeerIndex::Remove(std::size_t id) {
  if (!Contains(id)) {
    throw std::invalid_argument("PeerIndex::Remove: not a member");
  }
  const Slot slot = slot_of_[id];
  const Slot last = static_cast<Slot>(id_of_.size() - 1);

  // One pass over every edge list: drop references to the departing slot,
  // then (second pass, after the swap) rename `last` to its new home.
  for (Slot s = 0; s <= last; ++s) {
    Slot* edges = adj_.data() + static_cast<std::size_t>(s) * options_.degree;
    std::uint32_t kept = 0;
    for (std::uint32_t e = 0; e < adj_len_[s]; ++e) {
      if (edges[e] != slot) {
        edges[kept++] = edges[e];
      }
    }
    adj_len_[s] = kept;
  }

  if (slot != last) {
    id_of_[slot] = id_of_[last];
    slot_of_[id_of_[slot]] = slot;
    std::copy(Snapshot(last), Snapshot(last) + rank_,
              snap_v_.data() + static_cast<std::size_t>(slot) * rank_);
    const Slot* from = adj_.data() + static_cast<std::size_t>(last) * options_.degree;
    Slot* to = adj_.data() + static_cast<std::size_t>(slot) * options_.degree;
    std::copy(from, from + adj_len_[last], to);
    adj_len_[slot] = adj_len_[last];
    for (Slot s = 0; s < last; ++s) {
      Slot* edges = adj_.data() + static_cast<std::size_t>(s) * options_.degree;
      for (std::uint32_t e = 0; e < adj_len_[s]; ++e) {
        if (edges[e] == last) {
          edges[e] = slot;
        }
      }
    }
  }

  // Patch the coarse entries through the swap: the departed member's cells
  // fall back to an evenly-spaced slot; `last` follows its rename.
  for (Slot& entry : cell_entry_) {
    if (entry == slot) {
      entry = kNoSlot;
    } else if (entry == last) {
      entry = slot;
    }
  }

  slot_of_[id] = kNoSlot;
  id_of_.pop_back();
  snap_v_.resize(snap_v_.size() - rank_);
  adj_.resize(adj_.size() - options_.degree);
  adj_len_.pop_back();

  if (id_of_.empty()) {
    centroids_.clear();
    cell_entry_.clear();
  } else {
    const std::size_t cells = cell_entry_.size();
    for (std::size_t c = 0; c < cells; ++c) {
      if (cell_entry_[c] == kNoSlot) {
        cell_entry_[c] = static_cast<Slot>(c * id_of_.size() / cells);
      }
    }
  }
}

bool PeerIndex::Update(std::size_t id) {
  if (!Contains(id)) {
    throw std::invalid_argument("PeerIndex::Update: not a member");
  }
  const Slot slot = slot_of_[id];
  const std::span<const double> snapshot(Snapshot(slot), rank_);
  const double drift2 = store_->VRowDriftSquared(id, snapshot);
  if (drift2 <= options_.drift_epsilon * options_.drift_epsilon) {
    return false;
  }
  // Refresh the snapshot and replace the member's out-edges; stale
  // in-edges stay (they are routing hints toward a nearby region) until a
  // rebuild re-prunes them.  The coarse centroids drift with the rows and
  // are refreshed wholesale on the rebuild path.
  store_->CopyVRow(id, {snap_v_.data() + static_cast<std::size_t>(slot) * rank_,
                        rank_});
  const ScratchLease lease(*this);
  LinkSlot(slot, id_of_.size(), *lease);
  return true;
}

PeerIndex::UpdateStats PeerIndex::ApplyUpdates(std::span<const core::NodeId> ids) {
  UpdateStats stats;
  if (id_of_.empty()) {
    return stats;
  }
  const double eps2 = options_.drift_epsilon * options_.drift_epsilon;
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
      options_.rebuild_fraction * static_cast<double>(id_of_.size())) {
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
  // Refresh every snapshot, drop every edge, re-seed the Rng, then replay
  // the construction inserts in slot order — a pure function of (member
  // order, live rows, options.seed), so a rebuild is idempotent and a
  // rebuild of a fresh index reproduces the constructed adjacency.  The
  // coarse layer rebuilds from the same refreshed snapshots.
  rng_ = common::Rng(options_.seed);
  for (Slot slot = 0; slot < id_of_.size(); ++slot) {
    store_->CopyVRow(id_of_[slot],
                     {snap_v_.data() + static_cast<std::size_t>(slot) * rank_,
                      rank_});
  }
  std::fill(adj_len_.begin(), adj_len_.end(), 0);
  SearchScratch scratch;
  for (Slot slot = 0; slot < id_of_.size(); ++slot) {
    LinkSlot(slot, slot, scratch);
  }
  BuildCoarse();
}

}  // namespace dmfsgd::ann
