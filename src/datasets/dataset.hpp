// Dataset value types.
//
// A Dataset bundles a ground-truth pairwise performance matrix with its
// metric semantics.  The three instances used throughout the reproduction
// mirror the paper's evaluation data (§6.1):
//
//   Harvard   226 nodes, dynamic application-level RTT (plus a replayable
//             timestamped trace; the static matrix holds per-pair medians)
//   Meridian  2500 nodes, static RTT
//   HP-S3     231 nodes, static ABW with ~4% missing entries
//
// Metric semantics matter for classification: for RTT *smaller* is better
// (good == rtt <= tau) while for ABW *larger* is better (good == abw >= tau).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace dmfsgd::datasets {

enum class Metric {
  kRtt,  ///< round-trip time, ms; lower is better; symmetric
  kAbw,  ///< available bandwidth, Mbps; higher is better; asymmetric
};

/// Human-readable metric name ("RTT" / "ABW").
[[nodiscard]] const char* MetricName(Metric metric) noexcept;

/// True if smaller metric values are better (RTT); false for ABW.
[[nodiscard]] bool LowerIsBetter(Metric metric) noexcept;

/// Binary class of a quantity under threshold tau: +1 good / -1 bad.
[[nodiscard]] int ClassOf(Metric metric, double quantity, double tau) noexcept;

/// One timestamped measurement (the Harvard trace format).
struct TraceRecord {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  double value = 0.0;        ///< observed quantity (ms or Mbps)
  double timestamp_s = 0.0;  ///< seconds since trace start, non-decreasing
};

/// A pairwise performance dataset.
struct Dataset {
  std::string name;
  Metric metric = Metric::kRtt;
  /// Ground-truth quantities; diagonal and unmeasured pairs are NaN.
  linalg::Matrix ground_truth;
  /// Optional dynamic trace (empty for static datasets), time-ordered.
  std::vector<TraceRecord> trace;
  /// Procedural ground truth for bench-scale node counts: when set, the
  /// dataset has `procedural_nodes` nodes, every off-diagonal pair is known,
  /// and Quantity(i, j) = quantity_fn(i, j) — `ground_truth` stays empty (a
  /// dense matrix at n = 65536 would be ~34 GB).  The function must be pure
  /// (repeated probes of a static pair must agree), return positive finite
  /// values, and be symmetric when metric == kRtt.  Purity is load-bearing:
  /// the deployment engine stores each neighbor pair's training target at
  /// its first probe and reuses it (DESIGN.md §14), so an impure function
  /// is frozen at its first probe of each neighbor pair.  Matrix-scanning
  /// helpers (percentiles, class matrices) reject procedural datasets —
  /// pick tau analytically or by sampling quantity_fn.
  std::function<double(std::size_t, std::size_t)> quantity_fn;
  std::size_t procedural_nodes = 0;

  /// True when ground truth is generated by quantity_fn instead of a matrix.
  [[nodiscard]] bool Procedural() const noexcept {
    return static_cast<bool>(quantity_fn);
  }

  [[nodiscard]] std::size_t NodeCount() const noexcept {
    return Procedural() ? procedural_nodes : ground_truth.Rows();
  }

  /// True quantity of pair (i, j), NaN if unknown.
  [[nodiscard]] double Quantity(std::size_t i, std::size_t j) const {
    if (Procedural()) {
      return i == j ? linalg::Matrix::kMissing : quantity_fn(i, j);
    }
    return ground_truth.At(i, j);
  }

  /// True if pair (i, j) has a known ground-truth quantity.
  [[nodiscard]] bool IsKnown(std::size_t i, std::size_t j) const {
    if (Procedural()) {
      return i != j && i < procedural_nodes && j < procedural_nodes;
    }
    return !linalg::Matrix::IsMissing(ground_truth.At(i, j));
  }

  /// p-th percentile of known off-diagonal quantities (Table 1's tau rows).
  [[nodiscard]] double PercentileValue(double p) const;

  /// Median of known off-diagonal quantities (the paper's default tau).
  [[nodiscard]] double MedianValue() const;

  /// The tau that makes `portion_good` of the known pairs "good" — e.g. for
  /// RTT the portion-th percentile, for ABW the (1-portion)-th (Table 1).
  [[nodiscard]] double TauForGoodPortion(double portion_good) const;

  /// Ground-truth class matrix under tau (+1 / -1, NaN preserved).
  [[nodiscard]] linalg::Matrix ClassMatrix(double tau) const;

  /// Fraction of known off-diagonal pairs that are "good" under tau.
  [[nodiscard]] double GoodFraction(double tau) const;
};

/// Sanity checks: square matrix, NaN diagonal, symmetric iff RTT, positive
/// finite known entries and trace values, trace indices in range, and
/// finite sorted timestamps.  Every check fails on NaN.  Throws
/// std::invalid_argument with a description of the first violation.
void ValidateDataset(const Dataset& dataset);

}  // namespace dmfsgd::datasets
