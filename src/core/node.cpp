#include "core/node.hpp"

#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "linalg/kernels.hpp"
#include "linalg/vector_ops.hpp"

namespace dmfsgd::core {

DmfsgdNode::DmfsgdNode(NodeId id, std::size_t rank, common::Rng& rng)
    : id_(id), owned_(std::make_unique<CoordinateStore>(1, rank)), store_(owned_.get()) {
  store_->RandomizeRow(0, rng);
}

DmfsgdNode::DmfsgdNode(NodeId id, CoordinateStore& store, std::size_t row,
                       common::Rng& rng)
    : id_(id), store_(&store), row_(row) {
  if (row >= store.NodeCount()) {
    throw std::out_of_range("DmfsgdNode: row outside the coordinate store");
  }
  store_->RandomizeRow(row_, rng);
}

void DmfsgdNode::RequireRank(std::size_t remote_rank) const {
  if (remote_rank != rank()) {
    throw std::invalid_argument("DmfsgdNode: rank mismatch (local " +
                                std::to_string(rank()) + ", remote " +
                                std::to_string(remote_rank) + ")");
  }
}

double DmfsgdNode::Predict(std::span<const double> v_remote) const {
  RequireRank(v_remote.size());
  return linalg::DotRaw(u().data(), v_remote.data(), rank());
}

void DmfsgdNode::RttUpdate(double x, std::span<const double> u_remote,
                           std::span<const double> v_remote,
                           const UpdateParams& params) {
  RequireRank(u_remote.size());
  RequireRank(v_remote.size());

  // Compute both gradient scales before touching any state: eq. 9 reads
  // u_i·v_j and eq. 10 reads u_j·v_i, neither of which depends on the other
  // update, but evaluating first keeps the rules exactly simultaneous.  One
  // fused sweep produces both dots.
  const auto [x_hat_ij, x_hat_ji] = linalg::DotPairRaw(
      u().data(), v_remote.data(), u_remote.data(), v().data(), rank());
  const double g_u = LossGradientScale(params.loss, x, x_hat_ij);
  const double g_v = LossGradientScale(params.loss, x, x_hat_ji);

  GradientStepU(g_u, v_remote, params);  // eq. 9
  GradientStepV(g_v, u_remote, params);  // eq. 10 (x_ji = x_ij for RTT)
}

void DmfsgdNode::AbwProberUpdate(double x, std::span<const double> v_remote,
                                 const UpdateParams& params) {
  RequireRank(v_remote.size());
  const double x_hat = linalg::DotRaw(u().data(), v_remote.data(), rank());
  const double g = LossGradientScale(params.loss, x, x_hat);
  GradientStepU(g, v_remote, params);  // eq. 12
}

void DmfsgdNode::AbwTargetUpdate(double x, std::span<const double> u_remote,
                                 const UpdateParams& params) {
  RequireRank(u_remote.size());
  const double x_hat = linalg::DotRaw(u_remote.data(), v().data(), rank());
  const double g = LossGradientScale(params.loss, x, x_hat);
  GradientStepV(g, u_remote, params);  // eq. 13
}

void DmfsgdNode::GradientStepU(double g, std::span<const double> v_remote,
                               const UpdateParams& params) {
  // u_i = (1 - ηλ) u_i - η g v_remote, fused into one pass over u_i.
  linalg::DecayAxpyRaw(1.0 - params.eta * params.lambda, -params.eta * g,
                       v_remote.data(), MutableU().data(), rank());
}

void DmfsgdNode::GradientStepV(double g, std::span<const double> u_remote,
                               const UpdateParams& params) {
  // v_i = (1 - ηλ) v_i - η g u_remote, fused into one pass over v_i.
  linalg::DecayAxpyRaw(1.0 - params.eta * params.lambda, -params.eta * g,
                       u_remote.data(), MutableV().data(), rank());
}

double DmfsgdNode::LocalLoss(double x, std::span<const double> v_remote,
                             const UpdateParams& params) const {
  RequireRank(v_remote.size());
  const double x_hat = linalg::Dot(u(), v_remote);
  return LossValue(params.loss, x, x_hat) +
         params.lambda * linalg::SquaredNorm(u());
}

}  // namespace dmfsgd::core
