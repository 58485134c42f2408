#include "core/batch_mf.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vector_ops.hpp"

namespace dmfsgd::core {

double BatchMfResult::Predict(std::size_t i, std::size_t j) const {
  return linalg::Dot(u.Row(i), v.Row(j));
}

BatchMfResult FitBatchMf(const linalg::Matrix& x, const BatchMfConfig& config) {
  if (x.Rows() != x.Cols()) {
    throw std::invalid_argument("FitBatchMf: matrix must be square");
  }
  if (config.rank == 0) {
    throw std::invalid_argument("FitBatchMf: rank must be > 0");
  }
  const std::size_t n = x.Rows();
  const std::size_t r = config.rank;

  // Count known entries per row/column for gradient averaging; rows with
  // more observations shouldn't take proportionally larger steps.
  std::vector<std::size_t> row_count(n, 0);
  std::vector<std::size_t> col_count(n, 0);
  std::size_t known = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!linalg::Matrix::IsMissing(x(i, j))) {
        ++row_count[i];
        ++col_count[j];
        ++known;
      }
    }
  }
  if (known == 0) {
    throw std::invalid_argument("FitBatchMf: matrix has no known entries");
  }

  common::Rng rng(config.seed);
  BatchMfResult result;
  result.u = linalg::Matrix(n, r);
  result.v = linalg::Matrix(n, r);
  result.u.FillUniform(rng, 0.0, 1.0);
  result.v.FillUniform(rng, 0.0, 1.0);
  result.loss_history.reserve(config.epochs);

  linalg::Matrix grad_u(n, r);
  linalg::Matrix grad_v(n, r);
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    grad_u.Fill(0.0);
    grad_v.Fill(0.0);
    double total_loss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto u_i = result.u.Row(i);
      for (std::size_t j = 0; j < n; ++j) {
        const double value = x(i, j);
        if (linalg::Matrix::IsMissing(value)) {
          continue;
        }
        const auto v_j = result.v.Row(j);
        const double x_hat = linalg::Dot(u_i, v_j);
        const double g = LossGradientScale(config.loss, value, x_hat);
        total_loss += LossValue(config.loss, value, x_hat);
        linalg::AxpyRaw(g / static_cast<double>(row_count[i]), v_j.data(),
                        grad_u.Row(i).data(), r);
        linalg::AxpyRaw(g / static_cast<double>(col_count[j]), u_i.data(),
                        grad_v.Row(j).data(), r);
      }
    }
    // U = (1 - ηλ) U - η grad_U, same for V (eq. 3's regularization).
    const double decay = 1.0 - config.eta * config.lambda;
    for (std::size_t i = 0; i < n; ++i) {
      auto u_i = result.u.Row(i);
      linalg::Scale(decay, u_i);
      linalg::AxpyRaw(-config.eta, grad_u.Row(i).data(), u_i.data(), r);
      auto v_i = result.v.Row(i);
      linalg::Scale(decay, v_i);
      linalg::AxpyRaw(-config.eta, grad_v.Row(i).data(), v_i.data(), r);
    }
    double reg = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      reg += linalg::SquaredNorm(result.u.Row(i)) +
             linalg::SquaredNorm(result.v.Row(i));
    }
    result.loss_history.push_back(
        (total_loss + config.lambda * reg) / static_cast<double>(known));
  }
  return result;
}

}  // namespace dmfsgd::core
