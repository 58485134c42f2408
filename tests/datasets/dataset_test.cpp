#include "datasets/dataset.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace dmfsgd::datasets {
namespace {

Dataset TinyRtt() {
  Dataset dataset;
  dataset.name = "tiny";
  dataset.metric = Metric::kRtt;
  dataset.ground_truth = linalg::Matrix(4, 4, linalg::Matrix::kMissing);
  // Symmetric RTTs: 10, 20, 30, 40, 50, 60 over the six pairs.
  double value = 10.0;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      dataset.ground_truth(i, j) = value;
      dataset.ground_truth(j, i) = value;
      value += 10.0;
    }
  }
  return dataset;
}

TEST(MetricHelpers, NamesAndDirections) {
  EXPECT_STREQ(MetricName(Metric::kRtt), "RTT");
  EXPECT_STREQ(MetricName(Metric::kAbw), "ABW");
  EXPECT_TRUE(LowerIsBetter(Metric::kRtt));
  EXPECT_FALSE(LowerIsBetter(Metric::kAbw));
}

TEST(ClassOf, RttGoodWhenBelowTau) {
  EXPECT_EQ(ClassOf(Metric::kRtt, 50.0, 100.0), 1);
  EXPECT_EQ(ClassOf(Metric::kRtt, 150.0, 100.0), -1);
  EXPECT_EQ(ClassOf(Metric::kRtt, 100.0, 100.0), 1);  // boundary is good
}

TEST(ClassOf, AbwGoodWhenAboveTau) {
  EXPECT_EQ(ClassOf(Metric::kAbw, 50.0, 10.0), 1);
  EXPECT_EQ(ClassOf(Metric::kAbw, 5.0, 10.0), -1);
  EXPECT_EQ(ClassOf(Metric::kAbw, 10.0, 10.0), 1);
}

TEST(Dataset, PercentileAndMedian) {
  const Dataset dataset = TinyRtt();
  // Known off-diagonal values: each of 10..60 twice.
  EXPECT_DOUBLE_EQ(dataset.MedianValue(), 35.0);
  EXPECT_DOUBLE_EQ(dataset.PercentileValue(0.0), 10.0);
  EXPECT_DOUBLE_EQ(dataset.PercentileValue(100.0), 60.0);
}

TEST(Dataset, TauForGoodPortionRtt) {
  const Dataset dataset = TinyRtt();
  // 50% good needs tau at the median RTT.
  EXPECT_DOUBLE_EQ(dataset.TauForGoodPortion(0.5), 35.0);
  // More good paths require a *larger* RTT threshold.
  EXPECT_GT(dataset.TauForGoodPortion(0.9), dataset.TauForGoodPortion(0.1));
  EXPECT_THROW((void)dataset.TauForGoodPortion(0.0), std::invalid_argument);
  EXPECT_THROW((void)dataset.TauForGoodPortion(1.0), std::invalid_argument);
}

TEST(Dataset, TauForGoodPortionAbwIsReversed) {
  Dataset dataset = TinyRtt();
  dataset.metric = Metric::kAbw;
  // For ABW more good paths require a *smaller* threshold.
  EXPECT_LT(dataset.TauForGoodPortion(0.9), dataset.TauForGoodPortion(0.1));
}

TEST(Dataset, GoodFractionMatchesTau) {
  const Dataset dataset = TinyRtt();
  const double tau = dataset.TauForGoodPortion(0.5);
  EXPECT_NEAR(dataset.GoodFraction(tau), 0.5, 0.1);
  EXPECT_DOUBLE_EQ(dataset.GoodFraction(1000.0), 1.0);
  EXPECT_DOUBLE_EQ(dataset.GoodFraction(1.0), 0.0);
}

TEST(Dataset, ClassMatrixUsesMetricDirection) {
  const Dataset dataset = TinyRtt();
  const linalg::Matrix classes = dataset.ClassMatrix(35.0);
  EXPECT_DOUBLE_EQ(classes(0, 1), 1.0);   // rtt 10 <= 35
  EXPECT_DOUBLE_EQ(classes(2, 3), -1.0);  // rtt 60 > 35
  EXPECT_TRUE(linalg::Matrix::IsMissing(classes(0, 0)));
}

TEST(Dataset, IsKnownAndQuantity) {
  const Dataset dataset = TinyRtt();
  EXPECT_TRUE(dataset.IsKnown(0, 1));
  EXPECT_FALSE(dataset.IsKnown(2, 2));
  EXPECT_DOUBLE_EQ(dataset.Quantity(0, 1), 10.0);
}

TEST(ValidateDataset, AcceptsWellFormed) {
  EXPECT_NO_THROW(ValidateDataset(TinyRtt()));
}

TEST(ValidateDataset, RejectsNonSquare) {
  Dataset dataset = TinyRtt();
  dataset.ground_truth = linalg::Matrix(2, 3, 1.0);
  EXPECT_THROW(ValidateDataset(dataset), std::invalid_argument);
}

TEST(ValidateDataset, RejectsKnownDiagonal) {
  Dataset dataset = TinyRtt();
  dataset.ground_truth(1, 1) = 5.0;
  EXPECT_THROW(ValidateDataset(dataset), std::invalid_argument);
}

TEST(ValidateDataset, RejectsNonPositiveQuantities) {
  Dataset dataset = TinyRtt();
  dataset.ground_truth(0, 1) = -2.0;
  dataset.ground_truth(1, 0) = -2.0;
  EXPECT_THROW(ValidateDataset(dataset), std::invalid_argument);
}

TEST(ValidateDataset, RejectsInfiniteQuantities) {
  Dataset dataset = TinyRtt();
  dataset.ground_truth(0, 1) = std::numeric_limits<double>::infinity();
  dataset.ground_truth(1, 0) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ValidateDataset(dataset), std::invalid_argument);
}

TEST(ValidateDataset, RejectsNonFiniteTraceValuesAndTimestamps) {
  // Each check is written to fail on NaN: `value <= 0` let NaN through.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNaN, kInf}) {
    SCOPED_TRACE(bad);
    Dataset dataset = TinyRtt();
    dataset.trace.push_back(TraceRecord{0, 1, bad, 5.0});
    EXPECT_THROW(ValidateDataset(dataset), std::invalid_argument);
    dataset.trace.back() = TraceRecord{0, 1, 12.0, bad};
    EXPECT_THROW(ValidateDataset(dataset), std::invalid_argument);
  }
}

TEST(ValidateDataset, RejectsAsymmetricRtt) {
  Dataset dataset = TinyRtt();
  dataset.ground_truth(0, 1) = 11.0;  // (1, 0) still 10.0
  EXPECT_THROW(ValidateDataset(dataset), std::invalid_argument);
}

TEST(ValidateDataset, AllowsAsymmetricAbw) {
  Dataset dataset = TinyRtt();
  dataset.metric = Metric::kAbw;
  dataset.ground_truth(0, 1) = 11.0;
  EXPECT_NO_THROW(ValidateDataset(dataset));
}

TEST(ValidateDataset, RejectsBadTraces) {
  Dataset dataset = TinyRtt();
  dataset.trace.push_back(TraceRecord{0, 1, 12.0, 5.0});
  EXPECT_NO_THROW(ValidateDataset(dataset));

  dataset.trace.push_back(TraceRecord{0, 1, 12.0, 4.0});  // time goes backward
  EXPECT_THROW(ValidateDataset(dataset), std::invalid_argument);

  dataset.trace.back() = TraceRecord{0, 0, 12.0, 6.0};  // self pair
  EXPECT_THROW(ValidateDataset(dataset), std::invalid_argument);

  dataset.trace.back() = TraceRecord{0, 9, 12.0, 6.0};  // out of range
  EXPECT_THROW(ValidateDataset(dataset), std::invalid_argument);

  dataset.trace.back() = TraceRecord{0, 1, -1.0, 6.0};  // bad value
  EXPECT_THROW(ValidateDataset(dataset), std::invalid_argument);
}

}  // namespace
}  // namespace dmfsgd::datasets
