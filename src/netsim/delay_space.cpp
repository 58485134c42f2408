#include "netsim/delay_space.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace dmfsgd::netsim {

namespace {

void RequireSpread(double value, const char* name) {
  if (!(value >= 0.0) || !std::isfinite(value)) {
    throw std::invalid_argument(std::string("DelaySpace: ") + name +
                                " must be finite and >= 0");
  }
}

const DelaySpaceConfig& Validate(const DelaySpaceConfig& config) {
  if (config.node_count < 2) {
    throw std::invalid_argument("DelaySpace: need at least 2 nodes");
  }
  if (config.cluster_count == 0 || config.dimensions == 0 ||
      config.continent_count == 0) {
    throw std::invalid_argument(
        "DelaySpace: continent_count, cluster_count and dimensions must be > 0");
  }
  RequireSpread(config.cluster_radius_ms, "cluster_radius_ms");
  RequireSpread(config.continent_radius_ms, "continent_radius_ms");
  RequireSpread(config.world_radius_ms, "world_radius_ms");
  RequireSpread(config.min_access_ms, "min_access_ms");
  RequireSpread(config.access_lognormal_sigma, "access_lognormal_sigma");
  RequireSpread(config.detour_cluster_sigma, "detour_cluster_sigma");
  RequireSpread(config.detour_pair_sigma, "detour_pair_sigma");
  if (!std::isfinite(config.access_lognormal_mu)) {
    throw std::invalid_argument("DelaySpace: access_lognormal_mu must be finite");
  }
  return config;
}

}  // namespace

DelaySpace::DelaySpace(const DelaySpaceConfig& config)
    : dimensions_(Validate(config).dimensions),
      cluster_count_(config.cluster_count),
      detour_pair_sigma_(config.detour_pair_sigma) {
  common::Rng rng(config.seed);
  detour_seed_ = rng();

  // Two-level geography: continents far apart (the source of the multimodal
  // RTT distribution real traces show), metro clusters inside continents.
  std::vector<std::vector<double>> continents(config.continent_count);
  for (auto& center : continents) {
    center.resize(config.dimensions);
    for (double& coordinate : center) {
      coordinate = rng.Normal(0.0, config.world_radius_ms);
    }
  }
  std::vector<std::vector<double>> centers(config.cluster_count);
  for (std::size_t c = 0; c < centers.size(); ++c) {
    const auto& continent = continents[c % config.continent_count];
    centers[c].resize(config.dimensions);
    for (std::size_t d = 0; d < config.dimensions; ++d) {
      centers[c][d] = continent[d] + rng.Normal(0.0, config.continent_radius_ms);
    }
  }

  positions_.resize(config.node_count * dimensions_);
  access_ms_.resize(config.node_count);
  cluster_.resize(config.node_count);
  for (std::size_t i = 0; i < config.node_count; ++i) {
    // Clusters have unequal sizes: pick a cluster with probability
    // proportional to rank^-0.8 to mimic dense vs sparse regions.
    // (Simple trick: square a uniform to skew toward low indices.)
    const double u = rng.Uniform();
    const auto cluster = static_cast<std::size_t>(
        u * u * static_cast<double>(config.cluster_count));
    cluster_[i] = std::min(cluster, config.cluster_count - 1);

    for (std::size_t d = 0; d < dimensions_; ++d) {
      positions_[i * dimensions_ + d] =
          centers[cluster_[i]][d] + rng.Normal(0.0, config.cluster_radius_ms);
    }
    access_ms_[i] =
        config.min_access_ms +
        rng.LogNormal(config.access_lognormal_mu, config.access_lognormal_sigma);
  }

  // The dominant detour component is shared by the whole cluster pair
  // (AS-level routing policy).  Each cell comes from its own generator keyed
  // by the unordered cluster pair, never from `rng`, so the table leaves the
  // geography above untouched.
  cluster_detour_.resize(cluster_count_ * cluster_count_);
  for (std::size_t lo = 0; lo < cluster_count_; ++lo) {
    for (std::size_t hi = lo; hi < cluster_count_; ++hi) {
      std::uint64_t state =
          detour_seed_ ^ (static_cast<std::uint64_t>(lo) * 0x9e3779b97f4a7c15ULL +
                          static_cast<std::uint64_t>(hi) + 0x51ed270b8a4c9b7dULL);
      common::Rng cluster_rng(common::SplitMix64Next(state));
      const double factor = cluster_rng.LogNormal(0.0, config.detour_cluster_sigma);
      cluster_detour_[lo * cluster_count_ + hi] = factor;
      cluster_detour_[hi * cluster_count_ + lo] = factor;
    }
  }
}

double DelaySpace::Propagation(std::size_t i, std::size_t j) const noexcept {
  const double* a = positions_.data() + i * dimensions_;
  const double* b = positions_.data() + j * dimensions_;
  double sum = 0.0;
  for (std::size_t d = 0; d < dimensions_; ++d) {
    const double delta = a[d] - b[d];
    sum += delta * delta;
  }
  return std::sqrt(sum);
}

double DelaySpace::DetourFactor(std::size_t i, std::size_t j) const noexcept {
  // The cluster-pair factor from the table times a small per-pair jitter,
  // derived from a keyed hash so the same (i, j) always sees the same detour
  // without storing n^2 values.  The constructor's checks keep LogNormal
  // from throwing.
  const std::uint64_t lo = static_cast<std::uint64_t>(std::min(i, j));
  const std::uint64_t hi = static_cast<std::uint64_t>(std::max(i, j));
  std::uint64_t pair_state = detour_seed_ ^ (lo * 0x9e3779b97f4a7c15ULL + hi);
  common::Rng pair_rng(common::SplitMix64Next(pair_state));
  return cluster_detour_[cluster_[i] * cluster_count_ + cluster_[j]] *
         pair_rng.LogNormal(0.0, detour_pair_sigma_);
}

double DelaySpace::Rtt(std::size_t i, std::size_t j) const {
  if (i >= NodeCount() || j >= NodeCount()) {
    throw std::out_of_range("DelaySpace::Rtt: node index out of range");
  }
  if (i == j) {
    throw std::invalid_argument("DelaySpace::Rtt: i == j has no path");
  }
  const double propagation = Propagation(i, j);
  const double detour = DetourFactor(i, j);
  return detour * propagation + access_ms_[i] + access_ms_[j];
}

std::size_t DelaySpace::Cluster(std::size_t i) const {
  if (i >= NodeCount()) {
    throw std::out_of_range("DelaySpace::Cluster: node index out of range");
  }
  return cluster_[i];
}

linalg::Matrix DelaySpace::ToMatrix() const {
  const std::size_t n = NodeCount();
  linalg::Matrix m(n, n, linalg::Matrix::kMissing);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double rtt = Rtt(i, j);
      m(i, j) = rtt;
      m(j, i) = rtt;
    }
  }
  return m;
}

}  // namespace dmfsgd::netsim
