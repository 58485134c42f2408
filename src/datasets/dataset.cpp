#include "datasets/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "linalg/low_rank.hpp"

namespace dmfsgd::datasets {

const char* MetricName(Metric metric) noexcept {
  switch (metric) {
    case Metric::kRtt:
      return "RTT";
    case Metric::kAbw:
      return "ABW";
  }
  return "?";
}

bool LowerIsBetter(Metric metric) noexcept { return metric == Metric::kRtt; }

int ClassOf(Metric metric, double quantity, double tau) noexcept {
  if (LowerIsBetter(metric)) {
    return quantity <= tau ? 1 : -1;
  }
  return quantity >= tau ? 1 : -1;
}

namespace {

// The percentile/class-matrix helpers scan the dense ground-truth matrix —
// meaningless (and, at bench scale, impossibly large) for a procedural
// dataset.  Callers on procedural data pick tau analytically or by sampling
// quantity_fn instead.
void RequireMaterialized(const Dataset& dataset, const char* what) {
  if (dataset.Procedural()) {
    throw std::logic_error(std::string(what) +
                           ": not available on a procedural dataset");
  }
}

}  // namespace

double Dataset::PercentileValue(double p) const {
  RequireMaterialized(*this, "Dataset::PercentileValue");
  const auto values = linalg::KnownOffDiagonal(ground_truth);
  return common::Percentile(values, p);
}

double Dataset::MedianValue() const { return PercentileValue(50.0); }

double Dataset::TauForGoodPortion(double portion_good) const {
  if (portion_good <= 0.0 || portion_good >= 1.0) {
    throw std::invalid_argument("TauForGoodPortion: portion must be in (0, 1)");
  }
  const double percentile =
      LowerIsBetter(metric) ? portion_good * 100.0 : (1.0 - portion_good) * 100.0;
  return PercentileValue(percentile);
}

linalg::Matrix Dataset::ClassMatrix(double tau) const {
  RequireMaterialized(*this, "Dataset::ClassMatrix");
  return linalg::ClassMatrix(ground_truth, tau, LowerIsBetter(metric));
}

double Dataset::GoodFraction(double tau) const {
  RequireMaterialized(*this, "Dataset::GoodFraction");
  const auto values = linalg::KnownOffDiagonal(ground_truth);
  if (values.empty()) {
    throw std::logic_error("GoodFraction: dataset has no known pairs");
  }
  std::size_t good = 0;
  for (const double v : values) {
    if (ClassOf(metric, v, tau) > 0) {
      ++good;
    }
  }
  return static_cast<double>(good) / static_cast<double>(values.size());
}

void ValidateDataset(const Dataset& dataset) {
  if (dataset.Procedural()) {
    // The full pairwise check would be O(n²) against a function — spot-check
    // the declared invariants on a deterministic sample of pairs instead.
    if (dataset.procedural_nodes < 2) {
      throw std::invalid_argument("ValidateDataset: need at least 2 nodes");
    }
    if (dataset.ground_truth.Rows() != 0) {
      throw std::invalid_argument(
          "ValidateDataset: procedural dataset must not also carry a matrix");
    }
    if (!dataset.trace.empty()) {
      throw std::invalid_argument(
          "ValidateDataset: procedural datasets cannot carry a trace");
    }
    const std::size_t n = dataset.procedural_nodes;
    const std::size_t step = std::max<std::size_t>(1, n / 64);
    for (std::size_t i = 0; i < n; i += step) {
      const std::size_t j = (i + step) % n;
      if (i == j) {
        continue;
      }
      const double v = dataset.quantity_fn(i, j);
      if (!(v > 0.0) || !std::isfinite(v)) {
        throw std::invalid_argument(
            "ValidateDataset: procedural quantities must be positive finite");
      }
      if (dataset.metric == Metric::kRtt) {
        const double back = dataset.quantity_fn(j, i);
        if (std::abs(v - back) > 1e-9 * std::max(v, back)) {
          throw std::invalid_argument(
              "ValidateDataset: procedural RTT must be symmetric");
        }
      }
    }
    return;
  }
  const auto& m = dataset.ground_truth;
  if (m.Rows() != m.Cols()) {
    throw std::invalid_argument("ValidateDataset: matrix must be square");
  }
  if (m.Rows() < 2) {
    throw std::invalid_argument("ValidateDataset: need at least 2 nodes");
  }
  for (std::size_t i = 0; i < m.Rows(); ++i) {
    if (!linalg::Matrix::IsMissing(m(i, i))) {
      throw std::invalid_argument("ValidateDataset: diagonal must be NaN");
    }
  }
  for (std::size_t i = 0; i < m.Rows(); ++i) {
    for (std::size_t j = 0; j < m.Cols(); ++j) {
      const double v = m(i, j);
      if (!linalg::Matrix::IsMissing(v) && !(v > 0.0 && std::isfinite(v))) {
        throw std::invalid_argument(
            "ValidateDataset: known quantities must be positive and finite");
      }
    }
  }
  if (dataset.metric == Metric::kRtt) {
    for (std::size_t i = 0; i < m.Rows(); ++i) {
      for (std::size_t j = i + 1; j < m.Cols(); ++j) {
        const double a = m(i, j);
        const double b = m(j, i);
        const bool a_missing = linalg::Matrix::IsMissing(a);
        const bool b_missing = linalg::Matrix::IsMissing(b);
        if (a_missing != b_missing ||
            (!a_missing && std::abs(a - b) > 1e-9 * std::max(a, b))) {
          throw std::invalid_argument("ValidateDataset: RTT matrix must be symmetric");
        }
      }
    }
  }
  double previous_time = 0.0;
  for (const TraceRecord& record : dataset.trace) {
    if (record.src >= m.Rows() || record.dst >= m.Rows()) {
      throw std::invalid_argument("ValidateDataset: trace node out of range");
    }
    if (record.src == record.dst) {
      throw std::invalid_argument("ValidateDataset: trace contains self-pair");
    }
    if (!(record.value > 0.0 && std::isfinite(record.value))) {
      throw std::invalid_argument(
          "ValidateDataset: trace value must be positive and finite");
    }
    if (!std::isfinite(record.timestamp_s)) {
      throw std::invalid_argument("ValidateDataset: trace timestamps must be finite");
    }
    if (!(record.timestamp_s >= previous_time)) {
      throw std::invalid_argument("ValidateDataset: trace timestamps must be sorted");
    }
    previous_time = record.timestamp_s;
  }
}

}  // namespace dmfsgd::datasets
