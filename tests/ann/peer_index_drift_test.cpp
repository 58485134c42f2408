// The staleness contract of the ANN query plane (DESIGN.md §16): live SGD
// training drifts the coordinates out from under the index's snapshots, and
// the engine's dirty set + PeerIndex::ApplyUpdates must keep recall against
// *fresh* coordinates above the pinned floor.  Everything here is seeded —
// the same procedure always yields the same adjacency and the same recall.
#include "ann/peer_index.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/simulation.hpp"
#include "datasets/meridian.hpp"

namespace dmfsgd::ann {
namespace {

using core::CoordinateStore;
using core::DmfsgdSimulation;
using core::SimulationConfig;
using datasets::Dataset;
using eval::KnnOrdering;

Dataset DriftRtt() {
  datasets::MeridianConfig config;
  config.node_count = 200;
  config.seed = 101;
  return datasets::MakeMeridian(config);
}

SimulationConfig RegressionConfig(const Dataset& dataset) {
  SimulationConfig config;
  config.rank = 10;
  config.neighbor_count = 16;
  config.tau = dataset.MedianValue();
  config.seed = 9;
  config.mode = core::PredictionMode::kRegression;
  config.params.loss = core::LossKind::kL2;
  config.params.lambda = 0.01;
  return config;
}

/// Mean recall@10 of the index against the fresh-coordinate oracle over a
/// deterministic query sample.
double MeanRecallAt10(const PeerIndex& index, const CoordinateStore& store,
                      std::size_t stride) {
  double recall_sum = 0.0;
  std::size_t queries = 0;
  for (std::size_t q = 0; q < store.NodeCount(); q += stride) {
    const auto approx = index.SearchFrom(q, 10, KnnOrdering::kSmallestFirst);
    const auto oracle =
        eval::BruteForceKnnAll(store, q, 10, KnnOrdering::kSmallestFirst);
    recall_sum += eval::RecallAtK(approx, oracle);
    ++queries;
  }
  return recall_sum / static_cast<double>(queries);
}

/// The headline procedure: train, index, keep training (with churn), drain
/// the dirty set into the index, report (index moved-from is fine — it is
/// queried before return).
struct DriftRun {
  double recall = 0.0;
  PeerIndex::UpdateStats stats;
  std::vector<std::vector<std::size_t>> adjacency;
};

DriftRun RunDriftProcedure() {
  const Dataset dataset = DriftRtt();
  DmfsgdSimulation simulation(dataset, RegressionConfig(dataset));
  simulation.RunRounds(150);  // warm the factors before indexing

  simulation.EnableDriftTracking();
  (void)simulation.TakeDirtyNodes();  // discard pre-index history

  const CoordinateStore& store = simulation.engine().store();
  PeerIndex index(store, PeerIndexOptions{});

  simulation.RunRounds(300);              // heavy drift...
  for (const core::NodeId id : {5u, 60u, 140u}) {
    simulation.ResetNode(id);             // ...plus membership churn
  }
  simulation.RunRounds(50);

  DriftRun run;
  run.stats = index.ApplyUpdates(simulation.TakeDirtyNodes());
  run.recall = MeanRecallAt10(index, store, 3);
  for (const std::size_t id : index.Members()) {
    run.adjacency.push_back(index.NeighborsOf(id));
  }
  return run;
}

TEST(PeerIndexDrift, RecallStaysAboveTheFloorAfterHeavyDriftAndChurn) {
  const DriftRun run = RunDriftProcedure();
  // Every node trained for 350 rounds past the snapshot, three were fully
  // re-randomized — the drain must have done real work.
  EXPECT_TRUE(run.stats.rebuilt || run.stats.relinked > 0);
  EXPECT_GE(run.recall, 0.9) << "drift-tolerance floor (ISSUE acceptance)";
}

TEST(PeerIndexDrift, TheWholeProcedureIsDeterministic) {
  const DriftRun a = RunDriftProcedure();
  const DriftRun b = RunDriftProcedure();
  EXPECT_DOUBLE_EQ(a.recall, b.recall);
  EXPECT_EQ(a.adjacency, b.adjacency);
  EXPECT_EQ(a.stats.relinked, b.stats.relinked);
  EXPECT_EQ(a.stats.epsilon_skips, b.stats.epsilon_skips);
  EXPECT_EQ(a.stats.rebuilt, b.stats.rebuilt);
}

TEST(PeerIndexDrift, StaleIndexStillReportsLiveScores) {
  // The staleness split: even with *no* updates applied, returned scores are
  // read from the live store at query time — drift degrades routing only.
  const Dataset dataset = DriftRtt();
  DmfsgdSimulation simulation(dataset, RegressionConfig(dataset));
  simulation.RunRounds(100);
  const CoordinateStore& store = simulation.engine().store();
  const PeerIndex index(store, PeerIndexOptions{});
  simulation.RunRounds(200);  // drift with the index left stale
  const auto result = index.SearchFrom(7, 10, KnnOrdering::kSmallestFirst);
  ASSERT_EQ(result.ids.size(), result.scores.size());
  for (std::size_t r = 0; r < result.Size(); ++r) {
    EXPECT_EQ(result.scores[r], store.Predict(7, result.ids[r]));
  }
}

TEST(PeerIndexDrift, ApplyUpdatesEscalatesToRebuildOnBulkDrift) {
  common::Rng rng(55);
  CoordinateStore store(150, 8);
  for (std::size_t i = 0; i < 150; ++i) {
    store.RandomizeRow(i, rng);
  }
  PeerIndexOptions options;
  options.seed = 3;
  PeerIndex index(store, options);
  // Re-randomize well past rebuild_fraction of the membership.
  std::vector<core::NodeId> dirty;
  for (std::size_t i = 0; i < 100; ++i) {
    store.RandomizeRow(i, rng);
    dirty.push_back(static_cast<core::NodeId>(i));
  }
  const auto stats = index.ApplyUpdates(dirty);
  EXPECT_TRUE(stats.rebuilt);
  // A rebuild re-seeds from options.seed, so the escalated index equals a
  // fresh index over the post-drift store.
  const PeerIndex fresh(store, options);
  for (const std::size_t id : index.Members()) {
    EXPECT_EQ(index.NeighborsOf(id), fresh.NeighborsOf(id));
  }
}

TEST(PeerIndexDrift, ApplyUpdatesRelinksOnlyTheDriftedFew) {
  common::Rng rng(65);
  CoordinateStore store(150, 8);
  for (std::size_t i = 0; i < 150; ++i) {
    store.RandomizeRow(i, rng);
  }
  PeerIndex index(store, PeerIndexOptions{});
  store.RandomizeRow(10, rng);
  store.RandomizeRow(20, rng);
  const std::vector<core::NodeId> dirty{10, 20, 30, 40};  // 30/40 are clean
  const auto stats = index.ApplyUpdates(dirty);
  EXPECT_FALSE(stats.rebuilt);
  EXPECT_EQ(stats.relinked, 2u);
  EXPECT_EQ(stats.epsilon_skips, 2u);
  // The drain refreshed the snapshots, so a second identical drain is all
  // epsilon skips.
  const auto again = index.ApplyUpdates(dirty);
  EXPECT_FALSE(again.rebuilt);
  EXPECT_EQ(again.relinked, 0u);
  EXPECT_EQ(again.epsilon_skips, 4u);
}

std::vector<std::vector<std::size_t>> Adjacency(const PeerIndex& index) {
  std::vector<std::vector<std::size_t>> adjacency;
  for (const std::size_t id : index.Members()) {
    adjacency.push_back(index.NeighborsOf(id));
  }
  return adjacency;
}

// svc::CoordinateService refreshes a copy of its published index and swaps
// it in, so a copy — constructed, or assigned over an unrelated index —
// must replay every ApplyUpdates batch exactly as its source, through
// relinks (the copied Rng stream) and a RebuildAll escalation, with the
// coarse layer off and on; and copying must not disturb the source.
TEST(PeerIndexDrift, CopiesReplayUpdatesExactlyAsTheirSource) {
  for (const std::size_t cells : {0u, 12u}) {
    SCOPED_TRACE(cells);
    common::Rng rng(85);
    CoordinateStore store(300, 8);
    for (std::size_t i = 0; i < store.NodeCount(); ++i) {
      store.RandomizeRow(i, rng);
    }
    PeerIndexOptions options;
    options.ivf_cells = cells;
    options.ivf_nprobe = 3;
    options.ef_construction = 4;  // narrow link beams: the Rng stream matters
    options.entry_points = 1;
    PeerIndex source(store, options);
    const std::vector<std::size_t> queries{0, 77, 150, 299};
    std::vector<eval::KnnResult> answers;
    for (const std::size_t q : queries) {
      answers.push_back(source.SearchFrom(q, 10, KnnOrdering::kSmallestFirst));
    }
    const std::uint64_t evaluations = source.ScoreEvaluations();

    const PeerIndex constructed(source);
    PeerIndexOptions other = options;
    other.seed = options.seed + 1;
    other.ivf_cells = cells == 0 ? 5 : 0;
    PeerIndex assigned(store, std::vector<std::size_t>{1, 2, 3, 4, 5, 6}, other);
    assigned = constructed;
    PeerIndex copy(source);  // the one the batches replay on
    EXPECT_EQ(source.ScoreEvaluations(), evaluations);
    EXPECT_EQ(constructed.ScoreEvaluations(), evaluations);
    EXPECT_EQ(assigned.ScoreEvaluations(), evaluations);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto again = source.SearchFrom(queries[q], 10, KnnOrdering::kSmallestFirst);
      EXPECT_EQ(again.ids, answers[q].ids);
      EXPECT_EQ(again.scores, answers[q].scores);
    }
    EXPECT_EQ(assigned.Size(), source.Size());
    EXPECT_EQ(Adjacency(assigned), Adjacency(source));
    EXPECT_EQ(assigned.CellEntries(), source.CellEntries());

    // Relinks, a bulk drift past rebuild_fraction, then relinks again.
    bool rebuilt = false;
    for (const auto& [first, count] :
         {std::pair<std::size_t, std::size_t>{10, 12}, {0, 200}, {250, 20}}) {
      std::vector<core::NodeId> dirty;
      for (std::size_t i = first; i < first + count; ++i) {
        store.RandomizeRow(i, rng);
        dirty.push_back(static_cast<core::NodeId>(i));
      }
      const auto expected = source.ApplyUpdates(dirty);
      for (PeerIndex* replica : {&copy, &assigned}) {
        const auto stats = replica->ApplyUpdates(dirty);
        EXPECT_EQ(stats.relinked, expected.relinked);
        EXPECT_EQ(stats.epsilon_skips, expected.epsilon_skips);
        EXPECT_EQ(stats.rebuilt, expected.rebuilt);
        EXPECT_EQ(Adjacency(*replica), Adjacency(source));
        EXPECT_EQ(replica->CellEntries(), source.CellEntries());
      }
      EXPECT_TRUE(expected.rebuilt || expected.relinked > 0);
      rebuilt |= expected.rebuilt;
    }
    EXPECT_TRUE(rebuilt);
    EXPECT_EQ(source.CellCount(), cells);
  }
}

TEST(PeerIndexDrift, ApplyUpdatesIgnoresNonMembers) {
  common::Rng rng(75);
  CoordinateStore store(60, 6);
  for (std::size_t i = 0; i < 60; ++i) {
    store.RandomizeRow(i, rng);
  }
  const std::vector<std::size_t> members{1, 3, 5, 7, 9, 11, 13};
  PeerIndex index(store, members, PeerIndexOptions{});
  store.RandomizeRow(2, rng);   // non-member drift
  store.RandomizeRow(7, rng);   // member drift
  const std::vector<core::NodeId> dirty{2, 4, 7};
  const auto stats = index.ApplyUpdates(dirty);
  EXPECT_EQ(stats.relinked, 1u);
  EXPECT_EQ(stats.epsilon_skips, 0u);  // non-members are not even counted
}

}  // namespace
}  // namespace dmfsgd::ann
