#include "netsim/probes.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace dmfsgd::netsim {
namespace {

TEST(PingProbe, NoiseIsMultiplicativeAndUnbiasedInLog) {
  common::Rng rng(5);
  const PingProbe ping({.noise_sigma = 0.05});
  common::RunningStats ratio;
  for (int i = 0; i < 20000; ++i) {
    ratio.Add(ping.Measure(100.0, rng) / 100.0);
  }
  // LogNormal(0, 0.05) mean ≈ e^{0.00125} ≈ 1.00125.
  EXPECT_NEAR(ratio.Mean(), 1.0, 0.01);
  EXPECT_GT(ratio.Min(), 0.7);
  EXPECT_LT(ratio.Max(), 1.4);
}

TEST(PingProbe, RejectsNonPositiveRtt) {
  common::Rng rng(5);
  const PingProbe ping;
  EXPECT_THROW((void)ping.Measure(0.0, rng), std::invalid_argument);
  EXPECT_THROW((void)ping.Measure(-1.0, rng), std::invalid_argument);
}

TEST(PathchirpProbe, UnderestimatesOnAverage) {
  common::Rng rng(17);
  const PathchirpProbe probe({.underestimation_factor = 0.9, .noise_sigma = 0.1});
  common::RunningStats ratio;
  for (int i = 0; i < 20000; ++i) {
    ratio.Add(probe.Measure(80.0, rng) / 80.0);
  }
  // Mean ≈ 0.9 * e^{0.005} ≈ 0.905 < 1.
  EXPECT_LT(ratio.Mean(), 0.95);
  EXPECT_NEAR(ratio.Mean(), 0.905, 0.02);
}

TEST(PathchirpProbe, AlwaysPositive) {
  common::Rng rng(19);
  const PathchirpProbe probe;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(probe.Measure(50.0, rng), 0.0);
  }
  EXPECT_THROW((void)probe.Measure(0.0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace dmfsgd::netsim
