// Figure 2: the class-based measurement-and-prediction architecture, as a
// *working* demo rather than a diagram.
//
// The paper's figure shows an 8x8 matrix X of measured ±1 classes with
// holes, the factorization estimate X̂ = U Vᵀ, and the recovered sign
// matrix.  This bench builds exactly that pipeline on a small network:
// measure a subset of pairs (pathload-style binary verdicts for ABW, ping
// thresholding for RTT), complete the matrix, print all three stages, and
// score the recovered signs against the held-out ground truth.
//
// Usage: fig2_architecture [--nodes=N] [--seed=S]
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/batch_mf.hpp"
#include "datasets/hps3.hpp"
#include "linalg/matrix.hpp"

namespace {

using namespace dmfsgd;

void PrintClassMatrix(const linalg::Matrix& m) {
  for (std::size_t i = 0; i < m.Rows(); ++i) {
    std::cout << "  ";
    for (std::size_t j = 0; j < m.Cols(); ++j) {
      if (linalg::Matrix::IsMissing(m(i, j))) {
        std::cout << "  . ";
      } else {
        std::cout << (m(i, j) > 0 ? " +1 " : " -1 ");
      }
    }
    std::cout << "\n";
  }
}

void PrintEstimate(const core::BatchMfResult& model, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::cout << "  ";
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) {
        std::cout << "    . ";
        continue;
      }
      char buffer[16];
      std::snprintf(buffer, sizeof(buffer), "%5.1f ", model.Predict(i, j));
      std::cout << buffer;
    }
    std::cout << "\n";
  }
}

int Run(int argc, char** argv) {
  const common::Flags flags(argc, argv, {"nodes", "seed"});
  const std::size_t n = flags.GetSize("nodes", 8);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 2));

  std::cout << "=== Figure 2: class-based measurement and prediction ===\n";

  // A small ABW network; τ = median -> the pathload verdict matrix.
  datasets::HpS3Config dataset_config;
  dataset_config.host_count = std::max<std::size_t>(n, 8);
  dataset_config.missing_fraction = 0.0;
  dataset_config.seed = seed;
  const datasets::Dataset dataset = datasets::MakeHpS3(dataset_config);
  const double tau = dataset.MedianValue();
  const linalg::Matrix truth = dataset.ClassMatrix(tau);

  // Measurement module: probe ~60% of the off-diagonal pairs.
  common::Rng rng(seed + 1);
  linalg::Matrix observed(n, n, linalg::Matrix::kMissing);
  std::size_t measured = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.Bernoulli(0.6)) {
        observed(i, j) = truth(i, j);
        ++measured;
      }
    }
  }
  std::cout << "\nX — measured classes (" << measured << " of " << n * (n - 1)
            << " pairs probed at rate tau = " << tau << " Mbps; . = unknown):\n";
  PrintClassMatrix(observed);

  // Prediction module: rank-r factorization of the incomplete matrix.
  core::BatchMfConfig mf_config;
  mf_config.rank = 3;
  mf_config.epochs = 400;
  mf_config.eta = 0.5;
  mf_config.seed = seed + 2;
  const core::BatchMfResult model = core::FitBatchMf(observed, mf_config);

  std::cout << "\nX-hat = U V^T — real-valued estimates (rank " << mf_config.rank
            << "):\n";
  PrintEstimate(model, n);

  std::cout << "\nsign(x-hat) — predicted classes:\n";
  linalg::Matrix predicted(n, n, linalg::Matrix::kMissing);
  std::size_t correct = 0;
  std::size_t held_out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) {
        continue;
      }
      predicted(i, j) = model.Predict(i, j) > 0 ? 1.0 : -1.0;
      if (linalg::Matrix::IsMissing(observed(i, j))) {
        ++held_out;
        if (predicted(i, j) == truth(i, j)) {
          ++correct;
        }
      }
    }
  }
  PrintClassMatrix(predicted);

  std::cout << "\nrecovered " << correct << "/" << held_out
            << " held-out (never measured) pair classes correctly ("
            << common::FormatFixed(
                   100.0 * static_cast<double>(correct) /
                       static_cast<double>(held_out == 0 ? 1 : held_out),
                   1)
            << "%)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
