// Coordinate snapshots: persistence of a deployment's learned state.
//
// A real DMFSGD deployment wants warm restarts — a node that reboots should
// resume from its last coordinates instead of re-randomizing, and operators
// want to archive the system state for offline analysis.  A snapshot is a
// copy of the deployment's structure-of-arrays CoordinateStore (every
// node's u_i / v_i rows); predictions can be served directly from it.
#pragma once

#include <cstddef>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/coordinate_store.hpp"
#include "core/engine.hpp"
#include "core/simulation.hpp"

namespace dmfsgd::common {
class ThreadPool;
}

namespace dmfsgd::core {

struct CoordinateSnapshot {
  /// The archived factors, in the same SoA layout deployments use live.
  CoordinateStore store;

  [[nodiscard]] std::size_t NodeCount() const noexcept {
    return store.NodeCount();
  }
  [[nodiscard]] std::size_t rank() const noexcept { return store.rank(); }

  /// x̂_ij from the archived coordinates.  Throws on bad indices.
  [[nodiscard]] double Predict(std::size_t i, std::size_t j) const {
    return store.Predict(i, j);
  }

  /// All-pairs prediction matrix (see the free function below).
  [[nodiscard]] std::vector<double> PredictAll(
      common::ThreadPool* pool = nullptr) const;
};

/// The full prediction matrix x̂ = U Vᵀ as a row-major n×n buffer — the
/// O(n²r) sweep behind offline full-matrix evaluation.  Materializes n²
/// doubles; rows are computed independently (one unchecked dot per pair), so
/// a pool parallelizes the sweep with bit-identical output for any pool
/// size.
[[nodiscard]] std::vector<double> PredictAll(const CoordinateStore& store,
                                             common::ThreadPool* pool = nullptr);

/// Same sweep into a caller-owned buffer (callers that repeat the sweep —
/// periodic evaluation, the bench — allocate once instead of per call).
/// Requires out.size() == NodeCount()².
void PredictAllInto(const CoordinateStore& store, std::span<double> out,
                    common::ThreadPool* pool = nullptr);

/// Captures the current coordinates of every node in a deployment core
/// (works for any driver over the shared engine).
[[nodiscard]] CoordinateSnapshot TakeSnapshot(const DeploymentEngine& engine);

/// Convenience overload for the round-based driver.
[[nodiscard]] CoordinateSnapshot TakeSnapshot(const DmfsgdSimulation& simulation);

/// Appends node i's row as CSV fields, u... then v..., each in
/// common::AppendDouble's round-trip text, with no line break: the row
/// format of the snapshot image and of the service's delta log.
void AppendCoordinateRow(std::string& out, const CoordinateStore& store,
                         std::size_t i);

/// Writes a snapshot as CSV (one row per node: u..., v...) to
/// `<path>.tmp`, then renames it over `path`, so a crash mid-write never
/// leaves a torn image at `path`.  Throws std::invalid_argument on a rank-0
/// snapshot and std::runtime_error (std::filesystem::filesystem_error for
/// the rename) on IO failure.
void SaveSnapshot(const CoordinateSnapshot& snapshot,
                  const std::filesystem::path& path);

/// Reads a snapshot written by SaveSnapshot.  Throws std::runtime_error /
/// std::invalid_argument on malformed input.
[[nodiscard]] CoordinateSnapshot LoadSnapshot(const std::filesystem::path& path);

}  // namespace dmfsgd::core
