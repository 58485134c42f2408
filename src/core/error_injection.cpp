#include "core/error_injection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace dmfsgd::core {

namespace {

using datasets::ClassOf;
using datasets::Dataset;
using datasets::LowerIsBetter;

/// True if `quantity` lies in the "good side" band of width delta next to
/// tau — the region where underestimating tools flip good labels to bad.
bool InUnderestimationBand(const Dataset& dataset, double tau, double delta,
                           double quantity) {
  if (LowerIsBetter(dataset.metric)) {
    return quantity >= tau - delta && quantity <= tau;
  }
  return quantity >= tau && quantity <= tau + delta;
}

}  // namespace

const char* ErrorTypeName(ErrorType type) noexcept {
  switch (type) {
    case ErrorType::kFlipNearTau:
      return "Type 1 (flip near tau)";
    case ErrorType::kUnderestimationBias:
      return "Type 2 (underestimation bias)";
    case ErrorType::kFlipRandom:
      return "Type 3 (flip randomly)";
    case ErrorType::kGoodToBad:
      return "Type 4 (good-to-bad)";
  }
  return "?";
}

ErrorInjector::ErrorInjector(const Dataset& dataset, double tau,
                             std::span<const ErrorSpec> specs, std::uint64_t seed)
    : n_(dataset.NodeCount()),
      symmetric_(dataset.metric == datasets::Metric::kRtt),
      labels_(n_ * n_, 0),
      true_labels_(n_ * n_, 0) {
  common::Rng rng(seed);

  // Clean labels first.
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      if (i == j || !dataset.IsKnown(i, j)) {
        continue;
      }
      const auto label = static_cast<std::int8_t>(
          ClassOf(dataset.metric, dataset.Quantity(i, j), tau));
      true_labels_[i * n_ + j] = label;
      labels_[i * n_ + j] = label;
      ++known_count_;
    }
  }

  // The unit of corruption is a *path*: an unordered pair for symmetric
  // metrics, an ordered pair otherwise.
  std::vector<std::pair<std::size_t, std::size_t>> paths;
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j_begin = symmetric_ ? i + 1 : 0;
    for (std::size_t j = j_begin; j < n_; ++j) {
      if (i != j && dataset.IsKnown(i, j)) {
        paths.emplace_back(i, j);
      }
    }
  }

  const auto flip_path = [&](std::size_t i, std::size_t j) {
    labels_[i * n_ + j] = static_cast<std::int8_t>(-labels_[i * n_ + j]);
    if (symmetric_) {
      labels_[j * n_ + i] = static_cast<std::int8_t>(-labels_[j * n_ + i]);
    }
  };
  const auto set_bad = [&](std::size_t i, std::size_t j) {
    labels_[i * n_ + j] = -1;
    if (symmetric_) {
      labels_[j * n_ + i] = -1;
    }
  };

  for (const ErrorSpec& spec : specs) {
    switch (spec.type) {
      case ErrorType::kFlipNearTau: {
        if (!(spec.delta >= 0.0)) {  // NaN fails too
          throw std::invalid_argument("ErrorInjector: Type 1 delta must be >= 0");
        }
        for (const auto& [i, j] : paths) {
          const double q = dataset.Quantity(i, j);
          if (std::abs(q - tau) <= spec.delta && rng.Bernoulli(0.5)) {
            flip_path(i, j);
          }
        }
        break;
      }
      case ErrorType::kUnderestimationBias: {
        if (!(spec.delta >= 0.0)) {  // NaN fails too
          throw std::invalid_argument("ErrorInjector: Type 2 delta must be >= 0");
        }
        for (const auto& [i, j] : paths) {
          if (InUnderestimationBand(dataset, tau, spec.delta,
                                    dataset.Quantity(i, j))) {
            set_bad(i, j);
          }
        }
        break;
      }
      case ErrorType::kFlipRandom: {
        if (!(spec.fraction >= 0.0 && spec.fraction <= 1.0)) {  // NaN fails too
          throw std::invalid_argument("ErrorInjector: Type 3 fraction in [0, 1]");
        }
        auto order = paths;
        rng.Shuffle(std::span(order));
        const auto count = static_cast<std::size_t>(
            std::llround(spec.fraction * static_cast<double>(order.size())));
        for (std::size_t p = 0; p < count; ++p) {
          flip_path(order[p].first, order[p].second);
        }
        break;
      }
      case ErrorType::kGoodToBad: {
        if (!(spec.fraction >= 0.0 && spec.fraction <= 1.0)) {  // NaN fails too
          throw std::invalid_argument("ErrorInjector: Type 4 fraction in [0, 1]");
        }
        std::vector<std::pair<std::size_t, std::size_t>> good_paths;
        for (const auto& [i, j] : paths) {
          if (true_labels_[i * n_ + j] > 0) {
            good_paths.emplace_back(i, j);
          }
        }
        rng.Shuffle(std::span(good_paths));
        // The target fraction is measured against *all* paths (Figure 6's
        // x-axis), capped by how many good paths exist.
        const auto wanted = static_cast<std::size_t>(
            std::llround(spec.fraction * static_cast<double>(paths.size())));
        const std::size_t count = std::min(wanted, good_paths.size());
        for (std::size_t p = 0; p < count; ++p) {
          set_bad(good_paths[p].first, good_paths[p].second);
        }
        break;
      }
    }
  }

  for (std::size_t idx = 0; idx < labels_.size(); ++idx) {
    if (true_labels_[idx] != 0 && labels_[idx] != true_labels_[idx]) {
      ++corrupted_count_;
    }
  }
}

std::int8_t ErrorInjector::LabelAt(std::size_t i, std::size_t j) const {
  return labels_[i * n_ + j];
}

int ErrorInjector::Label(std::size_t i, std::size_t j) const {
  if (i >= n_ || j >= n_) {
    throw std::out_of_range("ErrorInjector::Label: index out of range");
  }
  const std::int8_t label = LabelAt(i, j);
  if (label == 0) {
    throw std::invalid_argument("ErrorInjector::Label: pair has no ground truth");
  }
  return label;
}

bool ErrorInjector::IsCorrupted(std::size_t i, std::size_t j) const {
  if (i >= n_ || j >= n_) {
    throw std::out_of_range("ErrorInjector::IsCorrupted: index out of range");
  }
  return true_labels_[i * n_ + j] != 0 && labels_[i * n_ + j] != true_labels_[i * n_ + j];
}

double ErrorInjector::ErrorRate() const noexcept {
  if (known_count_ == 0) {
    return 0.0;
  }
  return static_cast<double>(corrupted_count_) / static_cast<double>(known_count_);
}

double DeltaForErrorRate(const Dataset& dataset, double tau, ErrorType type,
                         double target_rate) {
  if (type != ErrorType::kFlipNearTau && type != ErrorType::kUnderestimationBias) {
    throw std::invalid_argument("DeltaForErrorRate: only Types 1 and 2 use delta");
  }
  if (!(target_rate > 0.0 && target_rate < 1.0)) {
    throw std::invalid_argument("DeltaForErrorRate: target_rate must be in (0, 1)");
  }
  const auto values = linalg::KnownOffDiagonal(dataset.ground_truth);
  if (values.empty()) {
    throw std::invalid_argument("DeltaForErrorRate: dataset has no known pairs");
  }

  // Expected error fraction as a function of delta (monotone non-decreasing).
  const auto expected_rate = [&](double delta) {
    std::size_t hit = 0;
    for (const double q : values) {
      const bool in_band = type == ErrorType::kFlipNearTau
                               ? std::abs(q - tau) <= delta
                               : InUnderestimationBand(dataset, tau, delta, q);
      if (in_band) {
        ++hit;
      }
    }
    const double fraction = static_cast<double>(hit) / static_cast<double>(values.size());
    return type == ErrorType::kFlipNearTau ? 0.5 * fraction : fraction;
  };

  double hi = 0.0;
  for (const double q : values) {
    hi = std::max(hi, std::abs(q - tau));
  }
  if (expected_rate(hi) < target_rate) {
    throw std::invalid_argument(
        "DeltaForErrorRate: target error level unreachable for this dataset/tau");
  }
  double lo = 0.0;
  for (int iteration = 0; iteration < 100; ++iteration) {
    const double mid = 0.5 * (lo + hi);
    if (expected_rate(mid) >= target_rate) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace dmfsgd::core
