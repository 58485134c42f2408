// Pre-validated raw-pointer kernels for the SGD hot path and the peer index.
//
// vector_ops.hpp keeps the checked, span-based API used at validation
// boundaries (message decode, public entry points, tests).  The functions
// here are the unchecked inner loops those boundaries dispatch to once sizes
// are known to agree: raw `double*` with __restrict so the compiler can keep
// operands in registers and auto-vectorize, no size branches, no throws, and
// compile-time trip counts for the paper's canonical ranks (r = 3 — the
// Vivaldi-comparable embedding — and r = 10, the §6.2 default) with a
// generic loop as fallback.  The Dot family and DecayAxpy serve the SGD
// updates and the index's live scores; DistanceSquaredRaw serves the index's
// snapshot geometry (beam keys, the prune, the coarse k-means) and the
// store's drift check.
//
// Contract (the caller's responsibility, validated upstream):
//   * every pointer addresses `r` readable (or writable) doubles;
//   * DecayAxpy's output must not alias its input — DmfsgdNode always
//     updates its own row against a remote *copy*, a round snapshot or
//     another node's store row, so every call site satisfies this by
//     construction.  Read-only arguments (the Dot family, DistanceSquared)
//     may alias freely.
//
// Every sum runs left to right over d = 0..r-1 and the build compiles with
// -ffp-contract=off, so the fixed-trip bodies give the same bits as the
// generic loop on every -march (see kernels_test).
#pragma once

#include <cstddef>
#include <utility>

#if defined(__GNUC__) || defined(__clang__)
#define DMFSGD_RESTRICT __restrict__
#else
#define DMFSGD_RESTRICT
#endif

namespace dmfsgd::linalg {

namespace detail {

// Fixed-trip-count bodies: with R known at compile time the optimizer fully
// unrolls and vectorizes these (no remainder loop, no induction overhead).

template <int R>
[[nodiscard]] inline double DotFixed(const double* a, const double* b) noexcept {
  double sum = 0.0;
  for (int d = 0; d < R; ++d) {
    sum += a[d] * b[d];
  }
  return sum;
}

template <int R>
[[nodiscard]] inline std::pair<double, double> DotPairFixed(
    const double* a, const double* b, const double* c, const double* d) noexcept {
  double ab = 0.0;
  double cd = 0.0;
  for (int k = 0; k < R; ++k) {
    ab += a[k] * b[k];
    cd += c[k] * d[k];
  }
  return {ab, cd};
}

template <int R>
[[nodiscard]] inline double DistanceSquaredFixed(const double* a,
                                                 const double* b) noexcept {
  double sum = 0.0;
  for (int d = 0; d < R; ++d) {
    const double diff = a[d] - b[d];
    sum += diff * diff;
  }
  return sum;
}

template <int R>
inline void DecayAxpyFixed(double decay, double alpha,
                           const double* DMFSGD_RESTRICT x,
                           double* DMFSGD_RESTRICT y) noexcept {
  for (int d = 0; d < R; ++d) {
    y[d] = decay * y[d] + alpha * x[d];
  }
}

template <int R>
inline void AxpyFixed(double alpha, const double* DMFSGD_RESTRICT x,
                      double* DMFSGD_RESTRICT y) noexcept {
  for (int d = 0; d < R; ++d) {
    y[d] += alpha * x[d];
  }
}

}  // namespace detail

/// a · b over `r` elements, no validation.
[[nodiscard]] inline double DotRaw(const double* a, const double* b,
                                   std::size_t r) noexcept {
  switch (r) {
    case 3:
      return detail::DotFixed<3>(a, b);
    case 10:
      return detail::DotFixed<10>(a, b);
    default: {
      double sum = 0.0;
      for (std::size_t d = 0; d < r; ++d) {
        sum += a[d] * b[d];
      }
      return sum;
    }
  }
}

/// {a·b, c·d} in one sweep — the RTT update needs both u_i·v_j (eq. 9) and
/// u_j·v_i (eq. 10); interleaving the two accumulations halves the loop
/// overhead and keeps all four rows streaming through one pass.
[[nodiscard]] inline std::pair<double, double> DotPairRaw(
    const double* a, const double* b, const double* c, const double* d,
    std::size_t r) noexcept {
  switch (r) {
    case 3:
      return detail::DotPairFixed<3>(a, b, c, d);
    case 10:
      return detail::DotPairFixed<10>(a, b, c, d);
    default: {
      double ab = 0.0;
      double cd = 0.0;
      for (std::size_t k = 0; k < r; ++k) {
        ab += a[k] * b[k];
        cd += c[k] * d[k];
      }
      return {ab, cd};
    }
  }
}

/// ||a - b||² over `r` elements, no validation.
[[nodiscard]] inline double DistanceSquaredRaw(const double* a, const double* b,
                                               std::size_t r) noexcept {
  switch (r) {
    case 3:
      return detail::DistanceSquaredFixed<3>(a, b);
    case 10:
      return detail::DistanceSquaredFixed<10>(a, b);
    default: {
      double sum = 0.0;
      for (std::size_t d = 0; d < r; ++d) {
        const double diff = a[d] - b[d];
        sum += diff * diff;
      }
      return sum;
    }
  }
}

/// y = decay * y + alpha * x in a single pass — the fusion of the
/// Scale-then-Axpy sequence every SGD step performs ((1-ηλ)·row − ηg·remote),
/// which halves the traffic over the updated row.  Element-wise it evaluates
/// the same expression fl(decay*y + alpha*x) the two-pass reference does,
/// and the build compiles with -ffp-contract=off, so results are
/// bit-identical on every -march (see kernels_test).
inline void DecayAxpyRaw(double decay, double alpha,
                         const double* DMFSGD_RESTRICT x,
                         double* DMFSGD_RESTRICT y, std::size_t r) noexcept {
  switch (r) {
    case 3:
      detail::DecayAxpyFixed<3>(decay, alpha, x, y);
      return;
    case 10:
      detail::DecayAxpyFixed<10>(decay, alpha, x, y);
      return;
    default:
      for (std::size_t d = 0; d < r; ++d) {
        y[d] = decay * y[d] + alpha * x[d];
      }
  }
}

/// y += alpha * x — the full-gradient accumulation kernel (core::FitBatchMf
/// sums every known entry's g·remote term into a per-row gradient, then
/// steps each row along it).  Same aliasing contract as DecayAxpyRaw: x
/// must not alias y.
inline void AxpyRaw(double alpha, const double* DMFSGD_RESTRICT x,
                    double* DMFSGD_RESTRICT y, std::size_t r) noexcept {
  switch (r) {
    case 3:
      detail::AxpyFixed<3>(alpha, x, y);
      return;
    case 10:
      detail::AxpyFixed<10>(alpha, x, y);
      return;
    default:
      for (std::size_t d = 0; d < r; ++d) {
        y[d] += alpha * x[d];
      }
  }
}

/// Instruction-set tiers the inline kernels above can be compiled for.
enum class KernelIsa {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,  ///< avx512f
};

/// Human-readable ISA name ("scalar" / "avx2" / "avx512").
[[nodiscard]] constexpr const char* KernelIsaName(KernelIsa isa) noexcept {
  switch (isa) {
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kAvx2:
      return "avx2";
    case KernelIsa::kAvx512:
      return "avx512";
  }
  return "?";
}

/// The widest tier the compiler was allowed to vectorize the inline kernels
/// for — a build-flag report (-march, -mavx2 in CMAKE_CXX_FLAGS), not a
/// runtime CPUID probe, kept as benchmark provenance.  A default build
/// reports kScalar.  The tier changes speed only: contraction is off on
/// every build, so every tier computes the same bits (DESIGN.md §5).
[[nodiscard]] constexpr KernelIsa ActiveKernelIsa() noexcept {
#if defined(__AVX512F__)
  return KernelIsa::kAvx512;
#elif defined(__AVX2__)
  return KernelIsa::kAvx2;
#else
  return KernelIsa::kScalar;
#endif
}

}  // namespace dmfsgd::linalg
