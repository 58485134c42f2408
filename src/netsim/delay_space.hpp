// Synthetic Internet delay space.
//
// Substitute for the unavailable Meridian/Harvard RTT traces (see DESIGN.md
// §3).  Nodes live in a low-dimensional geometric space organized in
// clusters (continents / metro areas); an RTT is
//
//   rtt(i, j) = detour_ij * propagation(i, j) + access_i + access_j
//
// where propagation is the Euclidean distance scaled to milliseconds,
// access delays model last-mile links, and the symmetric detour factor
// models routing-policy path inflation (mild triangle-inequality
// violations).  The construction is intentionally close to the models used
// to explain why measured RTT matrices have low effective rank: a
// d-dimensional embedding contributes O(d) rank, access delays rank 2 and
// the cluster structure a handful of block components.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace dmfsgd::netsim {

struct DelaySpaceConfig {
  std::size_t node_count = 200;
  std::size_t continent_count = 4;   ///< top-level regions, far apart
  std::size_t cluster_count = 8;     ///< metro areas, spread over continents
  std::size_t dimensions = 3;        ///< embedding dimension
  double cluster_radius_ms = 15.0;   ///< spread of nodes around their cluster
  double continent_radius_ms = 25.0; ///< spread of clusters inside a continent
  double world_radius_ms = 120.0;    ///< spread of continent centers
  double min_access_ms = 0.5;        ///< last-mile delay lower bound
  double access_lognormal_mu = 1.0;  ///< lognormal access delay (≈ e^1 ≈ 2.7ms)
  double access_lognormal_sigma = 0.75;
  /// Routing-policy path inflation splits into a *cluster-pair* component
  /// (AS-level detours shared by whole regions — correlated, hence learnable
  /// by the factorization, matching the strong low-rankness of real RTT
  /// matrices) and a small per-pair jitter (irreducible idiosyncrasy).
  double detour_cluster_sigma = 0.12;
  double detour_pair_sigma = 0.03;
  std::uint64_t seed = 1;
};

/// Immutable synthetic delay space.  Construction materializes per-node
/// positions and access delays plus a C x C table of cluster-pair detour
/// factors (C = cluster_count: C² doubles, 3.2 KB at C = 20, 30.5 MB at
/// C = 1953).  Each table cell and each per-pair jitter is drawn from a
/// generator keyed by the (unordered) cluster or node pair, so the full
/// n x n matrix never needs to be stored to stay consistent; an RTT query
/// costs one table load, one pair-keyed jitter draw and a distance
/// (DESIGN.md §14).
class DelaySpace {
 public:
  /// Throws std::invalid_argument on fewer than 2 nodes, a zero count, a
  /// negative or non-finite radius, sigma or min_access_ms, or a
  /// non-finite access_lognormal_mu.
  explicit DelaySpace(const DelaySpaceConfig& config);

  [[nodiscard]] std::size_t NodeCount() const noexcept { return access_ms_.size(); }

  /// Ground-truth RTT in milliseconds between distinct nodes i and j
  /// (symmetric, > 0).  Throws std::out_of_range on bad indices and
  /// std::invalid_argument if i == j.
  [[nodiscard]] double Rtt(std::size_t i, std::size_t j) const;

  /// Cluster id of a node (used by tests to check intra < inter RTTs).
  [[nodiscard]] std::size_t Cluster(std::size_t i) const;

  /// Materializes the full RTT matrix (diagonal = NaN).
  [[nodiscard]] linalg::Matrix ToMatrix() const;

 private:
  [[nodiscard]] double Propagation(std::size_t i, std::size_t j) const noexcept;
  [[nodiscard]] double DetourFactor(std::size_t i, std::size_t j) const noexcept;

  std::size_t dimensions_;
  std::size_t cluster_count_;
  std::vector<double> positions_;       // node-major, dimensions_ per node (ms)
  std::vector<double> access_ms_;       // node -> last-mile delay
  std::vector<std::size_t> cluster_;    // node -> cluster id
  std::vector<double> cluster_detour_;  // C x C, symmetric
  double detour_pair_sigma_;
  std::uint64_t detour_seed_;
};

}  // namespace dmfsgd::netsim
