#include "core/error_injection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "datasets/hps3.hpp"
#include "datasets/meridian.hpp"

namespace dmfsgd::core {
namespace {

using datasets::Dataset;
using datasets::MakeHpS3;
using datasets::MakeMeridian;

Dataset SmallRtt() {
  datasets::MeridianConfig config;
  config.node_count = 60;
  config.seed = 21;
  return MakeMeridian(config);
}

Dataset SmallAbw() {
  datasets::HpS3Config config;
  config.host_count = 60;
  config.missing_fraction = 0.0;
  config.seed = 23;
  return MakeHpS3(config);
}

TEST(ErrorInjector, NoSpecsMeansCleanLabels) {
  const Dataset dataset = SmallRtt();
  const double tau = dataset.MedianValue();
  const ErrorInjector injector(dataset, tau, {}, 1);
  EXPECT_DOUBLE_EQ(injector.ErrorRate(), 0.0);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      if (i != j) {
        EXPECT_EQ(injector.Label(i, j),
                  ClassOf(dataset.metric, dataset.Quantity(i, j), tau));
        EXPECT_FALSE(injector.IsCorrupted(i, j));
      }
    }
  }
}

TEST(ErrorInjector, Type1FlipsOnlyInsideBand) {
  const Dataset dataset = SmallRtt();
  const double tau = dataset.MedianValue();
  const double delta = 5.0;
  const std::vector<ErrorSpec> specs{{ErrorType::kFlipNearTau, delta, 0.0}};
  const ErrorInjector injector(dataset, tau, specs, 7);
  for (std::size_t i = 0; i < dataset.NodeCount(); ++i) {
    for (std::size_t j = 0; j < dataset.NodeCount(); ++j) {
      if (i == j) {
        continue;
      }
      if (injector.IsCorrupted(i, j)) {
        EXPECT_LE(std::abs(dataset.Quantity(i, j) - tau), delta);
      }
    }
  }
  EXPECT_GT(injector.ErrorRate(), 0.0);
}

TEST(ErrorInjector, Type1PreservesSymmetryOnRtt) {
  const Dataset dataset = SmallRtt();
  const double tau = dataset.MedianValue();
  const std::vector<ErrorSpec> specs{{ErrorType::kFlipNearTau, 20.0, 0.0}};
  const ErrorInjector injector(dataset, tau, specs, 9);
  for (std::size_t i = 0; i < dataset.NodeCount(); ++i) {
    for (std::size_t j = i + 1; j < dataset.NodeCount(); ++j) {
      EXPECT_EQ(injector.Label(i, j), injector.Label(j, i));
    }
  }
}

TEST(ErrorInjector, Type2OnlyDegradesGoodSidePaths) {
  const Dataset dataset = SmallAbw();
  const double tau = dataset.MedianValue();
  const double delta = 8.0;
  const std::vector<ErrorSpec> specs{{ErrorType::kUnderestimationBias, delta, 0.0}};
  const ErrorInjector injector(dataset, tau, specs, 11);
  for (std::size_t i = 0; i < dataset.NodeCount(); ++i) {
    for (std::size_t j = 0; j < dataset.NodeCount(); ++j) {
      if (i == j || !dataset.IsKnown(i, j)) {
        continue;
      }
      const double q = dataset.Quantity(i, j);
      if (injector.IsCorrupted(i, j)) {
        // Only truly-good paths just above tau get mislabeled "bad".
        EXPECT_GE(q, tau);
        EXPECT_LE(q, tau + delta);
        EXPECT_EQ(injector.Label(i, j), -1);
      }
    }
  }
}

TEST(ErrorInjector, Type3HitsRequestedFraction) {
  const Dataset dataset = SmallAbw();
  const double tau = dataset.MedianValue();
  const std::vector<ErrorSpec> specs{{ErrorType::kFlipRandom, 0.0, 0.10}};
  const ErrorInjector injector(dataset, tau, specs, 13);
  EXPECT_NEAR(injector.ErrorRate(), 0.10, 0.005);
}

TEST(ErrorInjector, Type4FlipsOnlyGoodPaths) {
  const Dataset dataset = SmallRtt();
  const double tau = dataset.MedianValue();
  const std::vector<ErrorSpec> specs{{ErrorType::kGoodToBad, 0.0, 0.10}};
  const ErrorInjector injector(dataset, tau, specs, 17);
  EXPECT_NEAR(injector.ErrorRate(), 0.10, 0.01);
  for (std::size_t i = 0; i < dataset.NodeCount(); ++i) {
    for (std::size_t j = 0; j < dataset.NodeCount(); ++j) {
      if (i != j && injector.IsCorrupted(i, j)) {
        EXPECT_EQ(ClassOf(dataset.metric, dataset.Quantity(i, j), tau), 1);
        EXPECT_EQ(injector.Label(i, j), -1);
      }
    }
  }
}

TEST(ErrorInjector, Type4CapsAtAvailableGoodPaths) {
  const Dataset dataset = SmallRtt();
  // With tau at the 10th percentile only ~10% of paths are good; asking for
  // 50% errors can corrupt at most those.
  const double tau = dataset.TauForGoodPortion(0.10);
  const std::vector<ErrorSpec> specs{{ErrorType::kGoodToBad, 0.0, 0.50}};
  const ErrorInjector injector(dataset, tau, specs, 19);
  EXPECT_LE(injector.ErrorRate(), 0.12);
  EXPECT_GT(injector.ErrorRate(), 0.05);
}

TEST(ErrorInjector, StackedSpecsCompose) {
  // The paper's Figure 7 noise setting: 10% Type 1 + 5% good-to-bad.
  const Dataset dataset = SmallRtt();
  const double tau = dataset.MedianValue();
  const double delta = DeltaForErrorRate(dataset, tau, ErrorType::kFlipNearTau, 0.10);
  const std::vector<ErrorSpec> specs{{ErrorType::kFlipNearTau, delta, 0.0},
                                     {ErrorType::kGoodToBad, 0.0, 0.05}};
  const ErrorInjector injector(dataset, tau, specs, 23);
  EXPECT_GT(injector.ErrorRate(), 0.10);
  EXPECT_LT(injector.ErrorRate(), 0.20);
}

TEST(ErrorInjector, RejectsBadArguments) {
  const Dataset dataset = SmallRtt();
  const double tau = dataset.MedianValue();
  {
    const std::vector<ErrorSpec> specs{{ErrorType::kFlipNearTau, -1.0, 0.0}};
    EXPECT_THROW(ErrorInjector(dataset, tau, specs, 1), std::invalid_argument);
  }
  {
    const std::vector<ErrorSpec> specs{{ErrorType::kFlipRandom, 0.0, 1.5}};
    EXPECT_THROW(ErrorInjector(dataset, tau, specs, 1), std::invalid_argument);
  }
  const ErrorInjector injector(dataset, tau, {}, 1);
  EXPECT_THROW((void)injector.Label(0, 0), std::invalid_argument);  // diagonal
  EXPECT_THROW((void)injector.Label(dataset.NodeCount(), 0), std::out_of_range);
}

TEST(ErrorInjector, RejectsNanSpecs) {
  // A NaN fraction once rounded to a huge flip count and indexed past the
  // path list; a NaN delta silently corrupted nothing.
  const Dataset dataset = SmallRtt();
  const double tau = dataset.MedianValue();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const ErrorSpec& spec :
       {ErrorSpec{ErrorType::kFlipNearTau, nan, 0.0},
        ErrorSpec{ErrorType::kUnderestimationBias, nan, 0.0},
        ErrorSpec{ErrorType::kFlipRandom, 0.0, nan},
        ErrorSpec{ErrorType::kGoodToBad, 0.0, nan}}) {
    SCOPED_TRACE(ErrorTypeName(spec.type));
    const std::vector<ErrorSpec> specs{spec};
    EXPECT_THROW(ErrorInjector(dataset, tau, specs, 1), std::invalid_argument);
  }
  EXPECT_THROW(
      (void)DeltaForErrorRate(dataset, tau, ErrorType::kFlipNearTau, nan),
      std::invalid_argument);
}

TEST(DeltaForErrorRate, Type1ExpectedRateMatchesTarget) {
  const Dataset dataset = SmallRtt();
  const double tau = dataset.MedianValue();
  for (const double target : {0.05, 0.10, 0.15}) {
    const double delta =
        DeltaForErrorRate(dataset, tau, ErrorType::kFlipNearTau, target);
    // Count paths in the band: expected flips are half of them.
    const auto values = linalg::KnownOffDiagonal(dataset.ground_truth);
    std::size_t in_band = 0;
    for (const double q : values) {
      if (std::abs(q - tau) <= delta) {
        ++in_band;
      }
    }
    const double expected =
        0.5 * static_cast<double>(in_band) / static_cast<double>(values.size());
    EXPECT_NEAR(expected, target, 0.01);
  }
}

TEST(DeltaForErrorRate, DeltasGrowWithTargetRate) {
  const Dataset dataset = SmallAbw();
  const double tau = dataset.MedianValue();
  double previous = 0.0;
  for (const double target : {0.05, 0.10, 0.15}) {
    const double delta =
        DeltaForErrorRate(dataset, tau, ErrorType::kUnderestimationBias, target);
    EXPECT_GT(delta, previous);
    previous = delta;
  }
}

TEST(DeltaForErrorRate, RejectsUnreachableOrInvalidTargets) {
  const Dataset dataset = SmallRtt();
  const double tau = dataset.MedianValue();
  EXPECT_THROW(
      (void)DeltaForErrorRate(dataset, tau, ErrorType::kFlipNearTau, 0.9),
      std::invalid_argument);
  EXPECT_THROW((void)DeltaForErrorRate(dataset, tau, ErrorType::kFlipRandom, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)DeltaForErrorRate(dataset, tau, ErrorType::kFlipNearTau, 0.0),
               std::invalid_argument);
}

TEST(ErrorTypeName, AllNamesDistinct) {
  EXPECT_STRNE(ErrorTypeName(ErrorType::kFlipNearTau),
               ErrorTypeName(ErrorType::kGoodToBad));
  EXPECT_STRNE(ErrorTypeName(ErrorType::kUnderestimationBias),
               ErrorTypeName(ErrorType::kFlipRandom));
}

}  // namespace
}  // namespace dmfsgd::core
