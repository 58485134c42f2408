// Property tests for the fused raw-pointer kernels (linalg/kernels.hpp).
//
// The fused DecayAxpy must be numerically interchangeable with the two-pass
// Scale+Axpy reference it replaced: element-wise bit-identical, since both
// evaluate fl(decay*y + alpha*x) and the build turns FP contraction off
// (DESIGN.md §5), whatever -march says.  DotPair must match two independent
// dots the same way, and the runtime rank dispatch (compile-time bodies for
// r = 3 and r = 10, generic loop otherwise) must be invisible to results —
// for the peer index's DistanceSquared as much as for the dots.
#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "linalg/vector_ops.hpp"

namespace dmfsgd::linalg {
namespace {

// Ranks chosen to hit both fixed-trip-count paths (3, 10) and generic sizes
// around them, including remainders of the compiler's vector widths.
const std::vector<std::size_t> kRanks = {1, 2, 3, 4, 5, 7, 8, 10, 16, 33};

/// The bits of a double: equal bits is the kernels' contract, stricter
/// than == (which would accept -0.0 for +0.0).
std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The seed's two-pass update: x *= decay; then x += alpha * y.
void ReferenceScaleAxpy(double decay, double alpha,
                        const std::vector<double>& x, std::vector<double>& y) {
  for (double& value : y) {
    value *= decay;
  }
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] += alpha * x[i];
  }
}

std::vector<double> RandomVector(common::Rng& rng, std::size_t size) {
  std::vector<double> values(size);
  for (double& value : values) {
    value = rng.Uniform(-2.0, 2.0);
  }
  return values;
}

TEST(Kernels, DecayAxpyMatchesScaleAxpyBitForBit) {
  common::Rng rng(17);
  for (const std::size_t r : kRanks) {
    for (int trial = 0; trial < 200; ++trial) {
      const double decay = rng.Uniform(0.5, 1.0);
      const double alpha = rng.Uniform(-0.5, 0.5);
      const std::vector<double> x = RandomVector(rng, r);
      std::vector<double> fused = RandomVector(rng, r);
      std::vector<double> reference = fused;

      DecayAxpyRaw(decay, alpha, x.data(), fused.data(), r);
      ReferenceScaleAxpy(decay, alpha, x, reference);

      for (std::size_t d = 0; d < r; ++d) {
        EXPECT_EQ(Bits(fused[d]), Bits(reference[d]))
            << "rank " << r << " trial " << trial << " element " << d;
      }
    }
  }
}

TEST(Kernels, DotPairMatchesTwoIndependentDots) {
  common::Rng rng(19);
  for (const std::size_t r : kRanks) {
    for (int trial = 0; trial < 200; ++trial) {
      const std::vector<double> a = RandomVector(rng, r);
      const std::vector<double> b = RandomVector(rng, r);
      const std::vector<double> c = RandomVector(rng, r);
      const std::vector<double> d = RandomVector(rng, r);
      const auto [ab, cd] = DotPairRaw(a.data(), b.data(), c.data(), d.data(), r);
      EXPECT_EQ(Bits(ab), Bits(DotRaw(a.data(), b.data(), r)));
      EXPECT_EQ(Bits(cd), Bits(DotRaw(c.data(), d.data(), r)));
    }
  }
}

TEST(Kernels, RankDispatchIsInvisibleToResults) {
  // The r = 3 and r = 10 fast paths must agree with a plain accumulation in
  // the same order.
  common::Rng rng(23);
  for (const std::size_t r : kRanks) {
    const std::vector<double> a = RandomVector(rng, r);
    const std::vector<double> b = RandomVector(rng, r);
    double plain = 0.0;
    for (std::size_t d = 0; d < r; ++d) {
      plain += a[d] * b[d];
    }
    EXPECT_EQ(Bits(DotRaw(a.data(), b.data(), r)), Bits(plain));
  }
}

TEST(Kernels, DistanceSquaredMatchesTheGenericLoopBitForBit) {
  // The peer index's graph is a function of these bits (DESIGN.md §18), so
  // the fixed-trip bodies (r = 3, 10) and the fallback (r = 7 among others)
  // must round exactly like the left-to-right loop the index used to spell
  // inline.  Magnitudes spread over six decades so that a reassociated sum
  // would round differently.
  common::Rng rng(29);
  for (const std::size_t r : kRanks) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<double> a = RandomVector(rng, r);
      const std::vector<double> b = RandomVector(rng, r);
      for (std::size_t d = 0; d < r; ++d) {
        a[d] *= std::ldexp(1.0, static_cast<int>(rng.UniformInt(20)) - 10);
      }
      double plain = 0.0;
      for (std::size_t d = 0; d < r; ++d) {
        const double diff = a[d] - b[d];
        plain += diff * diff;
      }
      EXPECT_EQ(Bits(DistanceSquaredRaw(a.data(), b.data(), r)), Bits(plain))
          << "rank " << r << " trial " << trial;
      EXPECT_EQ(Bits(DistanceSquaredRaw(b.data(), a.data(), r)), Bits(plain))
          << "rank " << r << " trial " << trial << " (swapped)";
    }
  }
}

TEST(Kernels, CheckedWrappersValidateAtTheBoundary) {
  const std::vector<double> three(3, 1.0);
  std::vector<double> four(4, 1.0);
  EXPECT_THROW((void)Dot(three, four), std::invalid_argument);
  EXPECT_THROW((void)DotPair(three, three, three, four), std::invalid_argument);
  EXPECT_THROW(DecayAxpy(0.9, 0.1, three, four), std::invalid_argument);

  // And the happy path funnels into the same kernels.
  std::vector<double> y = {1.0, 2.0, 3.0};
  std::vector<double> expected = y;
  DecayAxpy(0.9, 0.1, three, y);
  DecayAxpyRaw(0.9, 0.1, three.data(), expected.data(), 3);
  EXPECT_EQ(y, expected);
  EXPECT_EQ(DotPair(three, three, three, three),
            DotPairRaw(three.data(), three.data(), three.data(), three.data(), 3));
}

}  // namespace
}  // namespace dmfsgd::linalg
