#include "core/coordinate_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "linalg/vector_ops.hpp"

namespace dmfsgd::core {

CoordinateStore::CoordinateStore(std::size_t node_count, std::size_t rank) {
  Reset(node_count, rank);
}

void CoordinateStore::Reset(std::size_t node_count, std::size_t rank) {
  if (rank == 0) {
    throw std::invalid_argument("CoordinateStore: rank must be > 0");
  }
  rank_ = rank;
  u_data_.assign(node_count * rank, 0.0);
  v_data_.assign(node_count * rank, 0.0);
}

void CoordinateStore::RandomizeRow(std::size_t i, common::Rng& rng) {
  if (i >= NodeCount()) {
    throw std::out_of_range("CoordinateStore::RandomizeRow: index out of range");
  }
  for (double& value : U(i)) {
    value = rng.Uniform();
  }
  for (double& value : V(i)) {
    value = rng.Uniform();
  }
}

void CoordinateStore::CopyVRow(std::size_t i, std::span<double> out) const {
  if (i >= NodeCount()) {
    throw std::out_of_range("CoordinateStore::CopyVRow: index out of range");
  }
  if (out.size() != rank_) {
    throw std::invalid_argument("CoordinateStore::CopyVRow: rank mismatch");
  }
  const auto row = V(i);
  std::copy(row.begin(), row.end(), out.begin());
}

double CoordinateStore::VRowDriftSquared(std::size_t i,
                                         std::span<const double> snapshot) const {
  if (i >= NodeCount()) {
    throw std::out_of_range(
        "CoordinateStore::VRowDriftSquared: index out of range");
  }
  if (snapshot.size() != rank_) {
    throw std::invalid_argument(
        "CoordinateStore::VRowDriftSquared: rank mismatch");
  }
  return linalg::DistanceSquaredRaw(V(i).data(), snapshot.data(), rank_);
}

double CoordinateStore::Predict(std::size_t i, std::size_t j) const {
  if (i >= NodeCount() || j >= NodeCount()) {
    throw std::out_of_range("CoordinateStore::Predict: index out of range");
  }
  return PredictUnchecked(i, j);
}

}  // namespace dmfsgd::core
