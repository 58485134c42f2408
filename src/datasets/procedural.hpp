// Procedural (matrix-free) datasets for bench-scale node counts.
//
// The round-throughput benches of DESIGN.md §14 need n = 65536 nodes; a
// dense ground-truth matrix at that size would be ~34 GB, so these datasets
// carry a pure quantity function instead (Dataset::quantity_fn).  The RTT
// generator reuses the synthetic Internet delay space of netsim/delay_space
// — O(n) materialized state (positions, access delays) plus a table of
// cluster_count² detour factors (cluster_count = max(20, n / 512): 30.5 MB
// at n = 10⁶), O(1) per-pair evaluation, symmetric and positive by
// construction.
#pragma once

#include <cstddef>
#include <cstdint>

#include "datasets/dataset.hpp"

namespace dmfsgd::datasets {

struct EuclideanRttConfig {
  std::size_t node_count = 65536;
  std::uint64_t seed = 2011;
};

/// Builds a procedural symmetric-RTT dataset over a clustered geometric
/// delay space (same family as MakeMeridian, scaled to `node_count` without
/// materializing the matrix).  Quantity(i, j) is deterministic in
/// (seed, i, j).
[[nodiscard]] Dataset MakeEuclideanRtt(const EuclideanRttConfig& config = {});

/// Approximate median off-diagonal quantity of a procedural dataset,
/// estimated from `samples` deterministic random pairs (the tau source that
/// replaces Dataset::MedianValue, which needs the dense matrix).  Also works
/// on materialized datasets.  Requires samples > 0.
[[nodiscard]] double SampledMedianValue(const Dataset& dataset,
                                        std::size_t samples = 4096,
                                        std::uint64_t seed = 7);

}  // namespace dmfsgd::datasets
