#include "netsim/delay_space.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/stats.hpp"
#include "linalg/low_rank.hpp"
#include "linalg/svd.hpp"

namespace dmfsgd::netsim {
namespace {

DelaySpaceConfig SmallConfig() {
  DelaySpaceConfig config;
  config.node_count = 60;
  config.cluster_count = 4;
  config.seed = 123;
  return config;
}

TEST(DelaySpace, DeterministicAcrossInstances) {
  const DelaySpace a(SmallConfig());
  const DelaySpace b(SmallConfig());
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = i + 1; j < 10; ++j) {
      EXPECT_DOUBLE_EQ(a.Rtt(i, j), b.Rtt(i, j));
    }
  }
}

TEST(DelaySpace, RttIsSymmetric) {
  const DelaySpace space(SmallConfig());
  for (std::size_t i = 0; i < space.NodeCount(); ++i) {
    for (std::size_t j = i + 1; j < space.NodeCount(); ++j) {
      EXPECT_DOUBLE_EQ(space.Rtt(i, j), space.Rtt(j, i));
    }
  }
}

TEST(DelaySpace, RttIsPositive) {
  const DelaySpace space(SmallConfig());
  for (std::size_t i = 0; i < space.NodeCount(); ++i) {
    for (std::size_t j = 0; j < space.NodeCount(); ++j) {
      if (i != j) {
        EXPECT_GT(space.Rtt(i, j), 0.0);
      }
    }
  }
}

TEST(DelaySpace, RejectsSelfPairAndBadIndex) {
  const DelaySpace space(SmallConfig());
  EXPECT_THROW((void)space.Rtt(1, 1), std::invalid_argument);
  EXPECT_THROW((void)space.Rtt(0, space.NodeCount()), std::out_of_range);
  EXPECT_THROW((void)space.Cluster(space.NodeCount()), std::out_of_range);
}

TEST(DelaySpace, RejectsDegenerateConfigs) {
  DelaySpaceConfig config = SmallConfig();
  config.node_count = 1;
  EXPECT_THROW(DelaySpace{config}, std::invalid_argument);
  config = SmallConfig();
  config.cluster_count = 0;
  EXPECT_THROW(DelaySpace{config}, std::invalid_argument);
  config = SmallConfig();
  config.dimensions = 0;
  EXPECT_THROW(DelaySpace{config}, std::invalid_argument);

  // Every spread must be finite and >= 0.  A negative detour sigma used to
  // pass construction and abort the process at the first Rtt().
  double DelaySpaceConfig::*const spreads[] = {
      &DelaySpaceConfig::cluster_radius_ms,
      &DelaySpaceConfig::continent_radius_ms,
      &DelaySpaceConfig::world_radius_ms,
      &DelaySpaceConfig::min_access_ms,
      &DelaySpaceConfig::access_lognormal_sigma,
      &DelaySpaceConfig::detour_cluster_sigma,
      &DelaySpaceConfig::detour_pair_sigma,
  };
  for (double DelaySpaceConfig::*const spread : spreads) {
    for (const double bad : {-0.01, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      config = SmallConfig();
      config.*spread = bad;
      EXPECT_THROW(DelaySpace{config}, std::invalid_argument) << bad;
    }
    config = SmallConfig();
    config.*spread = 0.0;
    EXPECT_NO_THROW(DelaySpace{config});
  }
  config = SmallConfig();
  config.access_lognormal_mu = std::numeric_limits<double>::infinity();
  EXPECT_THROW(DelaySpace{config}, std::invalid_argument);
}

TEST(DelaySpace, IntraClusterShorterThanInterClusterOnAverage) {
  const DelaySpace space(SmallConfig());
  common::RunningStats intra;
  common::RunningStats inter;
  for (std::size_t i = 0; i < space.NodeCount(); ++i) {
    for (std::size_t j = i + 1; j < space.NodeCount(); ++j) {
      if (space.Cluster(i) == space.Cluster(j)) {
        intra.Add(space.Rtt(i, j));
      } else {
        inter.Add(space.Rtt(i, j));
      }
    }
  }
  ASSERT_GT(intra.Count(), 10u);
  ASSERT_GT(inter.Count(), 10u);
  EXPECT_LT(intra.Mean(), inter.Mean());
}

TEST(DelaySpace, MatrixMatchesPairQueries) {
  const DelaySpace space(SmallConfig());
  const linalg::Matrix m = space.ToMatrix();
  EXPECT_EQ(m.Rows(), space.NodeCount());
  EXPECT_TRUE(linalg::Matrix::IsMissing(m(3, 3)));
  EXPECT_DOUBLE_EQ(m(2, 5), space.Rtt(2, 5));
  EXPECT_DOUBLE_EQ(m(5, 2), m(2, 5));
}

TEST(DelaySpace, MatrixIsPinnedBitForBit) {
  // Every entry of a six-node world (clusters 0, 2, 0, 1, 0, 1): intra- and
  // inter-cluster pairs in both cluster orders.  Determinism tests pass
  // under any formula; these values pin the formula itself.
  DelaySpaceConfig config;
  config.node_count = 6;
  config.cluster_count = 3;
  config.seed = 123;
  const DelaySpace space(config);
  struct Pinned {
    std::size_t i;
    std::size_t j;
    double rtt;
  };
  const Pinned pinned[] = {
      {0, 1, 0x1.45700113f5968p+7}, {0, 2, 0x1.0ed2df19a3af7p+5},
      {0, 3, 0x1.7bfa75992a905p+8}, {0, 4, 0x1.5b3d750e7ee92p+5},
      {0, 5, 0x1.adebd60b95c6dp+8}, {1, 2, 0x1.857e165b1973bp+7},
      {1, 3, 0x1.6fcecfadeb4edp+7}, {1, 4, 0x1.820d3d8156f42p+7},
      {1, 5, 0x1.da1aa9b4c4b98p+7}, {2, 3, 0x1.93c3db5f7db1fp+8},
      {2, 4, 0x1.e9d505d9d436fp+4}, {2, 5, 0x1.d85cd2792a14fp+8},
      {3, 4, 0x1.abcf055504f38p+8}, {3, 5, 0x1.7fff5e3e1d1b3p+5},
      {4, 5, 0x1.d48437904e2fep+8},
  };
  const linalg::Matrix m = space.ToMatrix();
  for (const Pinned& pair : pinned) {
    EXPECT_EQ(m(pair.i, pair.j), pair.rtt) << "(" << pair.i << ", " << pair.j << ")";
    EXPECT_EQ(m(pair.j, pair.i), pair.rtt) << "(" << pair.j << ", " << pair.i << ")";
  }
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(linalg::Matrix::IsMissing(m(i, i)));
  }
}

TEST(DelaySpace, MatrixHasLowEffectiveRank) {
  // The structural property that justifies matrix factorization (paper §4.1):
  // 90% of the spectral energy concentrates in a handful of components.
  const DelaySpace space(SmallConfig());
  linalg::Matrix m = space.ToMatrix();
  for (std::size_t i = 0; i < m.Rows(); ++i) {
    m(i, i) = 0.0;  // SVD needs finite entries
  }
  const auto svd = linalg::JacobiSvd(m);
  const std::size_t rank = linalg::EffectiveRank(svd.singular_values, 0.9);
  EXPECT_LE(rank, 10u);
}

TEST(DelaySpace, DifferentSeedsGiveDifferentWorlds) {
  DelaySpaceConfig other = SmallConfig();
  other.seed = 321;
  const DelaySpace a(SmallConfig());
  const DelaySpace b(other);
  int equal = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = i + 1; j < 10; ++j) {
      if (a.Rtt(i, j) == b.Rtt(i, j)) {
        ++equal;
      }
    }
  }
  EXPECT_EQ(equal, 0);
}

TEST(DelaySpace, DetourInflatesBeyondPureGeometry) {
  // With a large detour sigma RTTs must (on average) exceed the same space
  // with detours disabled; checks the lognormal detour is actually applied.
  DelaySpaceConfig no_detour = SmallConfig();
  no_detour.detour_cluster_sigma = 0.0;
  no_detour.detour_pair_sigma = 0.0;
  DelaySpaceConfig detour = SmallConfig();
  detour.detour_cluster_sigma = 0.5;
  detour.detour_pair_sigma = 0.05;
  const DelaySpace base(no_detour);
  const DelaySpace inflated(detour);
  common::RunningStats ratio;
  for (std::size_t i = 0; i < base.NodeCount(); ++i) {
    for (std::size_t j = i + 1; j < base.NodeCount(); ++j) {
      ratio.Add(inflated.Rtt(i, j) / base.Rtt(i, j));
    }
  }
  // LogNormal(0, 0.5) has mean exp(0.125) ≈ 1.13 > 1.
  EXPECT_GT(ratio.Mean(), 1.02);
}

}  // namespace
}  // namespace dmfsgd::netsim
