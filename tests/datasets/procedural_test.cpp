// Procedural (function-backed) datasets: bench-scale ground truth without
// the O(n^2) matrix.  Pins the Dataset accessor contract (NodeCount /
// Quantity / IsKnown against quantity_fn), the validator's sampled
// procedural branch, the materialized-only guard on matrix-scanning
// helpers, and the sampled-median tau substitute the bench uses.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "datasets/dataset.hpp"
#include "datasets/procedural.hpp"
#include "linalg/matrix.hpp"

namespace dmfsgd::datasets {
namespace {

Dataset SmallProcedural(std::size_t n = 128, std::uint64_t seed = 3) {
  EuclideanRttConfig config;
  config.node_count = n;
  config.seed = seed;
  return MakeEuclideanRtt(config);
}

TEST(ProceduralDataset, AccessorsFollowTheFunctionContract) {
  const Dataset dataset = SmallProcedural();
  EXPECT_TRUE(dataset.Procedural());
  EXPECT_EQ(dataset.NodeCount(), 128u);
  EXPECT_EQ(dataset.metric, Metric::kRtt);
  EXPECT_TRUE(dataset.ground_truth.Rows() == 0);
  EXPECT_TRUE(linalg::Matrix::IsMissing(dataset.Quantity(7, 7)));
  EXPECT_FALSE(dataset.IsKnown(7, 7));
  EXPECT_FALSE(dataset.IsKnown(0, 128));
  EXPECT_FALSE(dataset.IsKnown(128, 0));
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      if (i == j) {
        continue;
      }
      EXPECT_TRUE(dataset.IsKnown(i, j));
      const double rtt = dataset.Quantity(i, j);
      EXPECT_TRUE(std::isfinite(rtt));
      EXPECT_GT(rtt, 0.0);
      // RTT is symmetric, and the function must be pure: a re-probe of a
      // static pair agrees bit-for-bit.
      EXPECT_EQ(rtt, dataset.Quantity(j, i));
      EXPECT_EQ(rtt, dataset.Quantity(i, j));
    }
  }
}

TEST(ProceduralDataset, DeterministicPerSeedAndDistinctAcrossSeeds) {
  const Dataset a = SmallProcedural(128, 3);
  const Dataset b = SmallProcedural(128, 3);
  const Dataset c = SmallProcedural(128, 4);
  bool any_differs = false;
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) {
      if (i == j) {
        continue;
      }
      EXPECT_EQ(a.Quantity(i, j), b.Quantity(i, j));
      any_differs = any_differs || a.Quantity(i, j) != c.Quantity(i, j);
    }
  }
  EXPECT_TRUE(any_differs) << "seed is not reaching the delay space";
}

TEST(ProceduralDataset, GroundTruthIsPinnedBitForBit) {
  // Exact values of the bench-tier delay space, so a faster oracle must
  // reproduce the formula and not only stay deterministic.  Four intra- and
  // five inter-cluster pairs, both orders: the access delays are added in
  // (i, j) order, so a pair may differ in its last bit between its two
  // directions, as (5, 4000) does.
  EuclideanRttConfig config;
  config.node_count = 4096;
  config.seed = 2011;
  const Dataset dataset = MakeEuclideanRtt(config);
  struct Pinned {
    std::size_t i;
    std::size_t j;
    double rtt;
  };
  const Pinned pinned[] = {
      {0, 4095, 0x1.71d72640364f8p+4},    {4095, 0, 0x1.71d72640364f8p+4},
      {1000, 2047, 0x1.c0487d0cb44a3p+4}, {2047, 1000, 0x1.c0487d0cb44a3p+4},
      {2, 301, 0x1.721265563d74bp+4},     {301, 2, 0x1.721265563d74bp+4},
      {12, 77, 0x1.c4fb959c74633p+3},     {77, 12, 0x1.c4fb959c74633p+3},
      {0, 1, 0x1.0067cd86bb572p+8},       {1, 0, 0x1.0067cd86bb572p+8},
      {5, 4000, 0x1.0e09fd33bc089p+5},    {4000, 5, 0x1.0e09fd33bc088p+5},
      {17, 1234, 0x1.a8530c2b7f45fp+8},   {1234, 17, 0x1.a8530c2b7f45fp+8},
      {9, 3333, 0x1.f93ff285cc421p+6},    {3333, 9, 0x1.f93ff285cc421p+6},
      {42, 4042, 0x1.063c5ec7d2ce7p+6},   {4042, 42, 0x1.063c5ec7d2ce7p+6},
  };
  for (const Pinned& pair : pinned) {
    EXPECT_EQ(dataset.Quantity(pair.i, pair.j), pair.rtt)
        << "pair (" << pair.i << ", " << pair.j << ")";
  }
}

TEST(ProceduralDataset, PassesTheValidatorsSampledBranch) {
  const Dataset dataset = SmallProcedural();
  EXPECT_NO_THROW(ValidateDataset(dataset));
}

TEST(ProceduralDataset, ValidatorRejectsDegenerateShapes) {
  Dataset dataset = SmallProcedural();
  dataset.procedural_nodes = 1;
  EXPECT_THROW(ValidateDataset(dataset), std::invalid_argument);

  Dataset with_matrix = SmallProcedural();
  with_matrix.ground_truth = linalg::Matrix(4, 4, linalg::Matrix::kMissing);
  EXPECT_THROW(ValidateDataset(with_matrix), std::invalid_argument);

  Dataset with_trace = SmallProcedural();
  with_trace.trace.push_back({0, 1, 10.0, 0.0});
  EXPECT_THROW(ValidateDataset(with_trace), std::invalid_argument);
}

TEST(ProceduralDataset, MatrixScanningHelpersAreRejected) {
  const Dataset dataset = SmallProcedural();
  EXPECT_THROW((void)dataset.MedianValue(), std::logic_error);
  EXPECT_THROW((void)dataset.PercentileValue(0.5), std::logic_error);
  EXPECT_THROW((void)dataset.ClassMatrix(50.0), std::logic_error);
  EXPECT_THROW((void)dataset.GoodFraction(50.0), std::logic_error);
}

TEST(SampledMedian, TracksTheExactMedianOnMaterializedData) {
  // On a small materialized dataset the sampled median must land near the
  // exact one — it is the bench's tau stand-in, not a new statistic.
  datasets::EuclideanRttConfig config;
  config.node_count = 96;
  config.seed = 7;
  const Dataset procedural = MakeEuclideanRtt(config);
  Dataset materialized;
  materialized.name = "materialized";
  materialized.metric = Metric::kRtt;
  materialized.ground_truth =
      linalg::Matrix(96, 96, linalg::Matrix::kMissing);
  for (std::size_t i = 0; i < 96; ++i) {
    for (std::size_t j = 0; j < 96; ++j) {
      if (i != j) {
        materialized.ground_truth(i, j) = procedural.Quantity(i, j);
      }
    }
  }
  const double exact = materialized.MedianValue();
  const double sampled = SampledMedianValue(procedural, 4096, 7);
  EXPECT_GT(sampled, 0.0);
  EXPECT_NEAR(sampled, exact, 0.15 * exact);
}

TEST(SampledMedian, GuardsItsArguments) {
  const Dataset dataset = SmallProcedural();
  EXPECT_THROW((void)SampledMedianValue(dataset, 0), std::invalid_argument);
  Dataset tiny = SmallProcedural();
  tiny.procedural_nodes = 1;
  EXPECT_THROW((void)SampledMedianValue(tiny), std::invalid_argument);
}

TEST(SampledMedian, ThrowsInsteadOfSpinningOnAllMissingData) {
  Dataset sparse;
  sparse.name = "all-missing";
  sparse.metric = Metric::kRtt;
  sparse.ground_truth = linalg::Matrix(8, 8, linalg::Matrix::kMissing);
  EXPECT_THROW((void)SampledMedianValue(sparse, 16), std::invalid_argument);
}

}  // namespace
}  // namespace dmfsgd::datasets
