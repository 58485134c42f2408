#include "core/snapshot.hpp"

#include <fstream>
#include <stdexcept>
#include <string>

#include "common/csv.hpp"
#include "common/thread_pool.hpp"

namespace dmfsgd::core {

void PredictAllInto(const CoordinateStore& store, std::span<double> out,
                    common::ThreadPool* pool) {
  const std::size_t n = store.NodeCount();
  if (out.size() != n * n) {
    throw std::invalid_argument("PredictAllInto: output buffer size mismatch");
  }
  const auto sweep_rows = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      double* row = out.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        row[j] = store.PredictUnchecked(i, j);
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, n, sweep_rows);
  } else {
    sweep_rows(0, n);
  }
}

std::vector<double> PredictAll(const CoordinateStore& store,
                               common::ThreadPool* pool) {
  const std::size_t n = store.NodeCount();
  std::vector<double> predictions(n * n);
  PredictAllInto(store, predictions, pool);
  return predictions;
}

std::vector<double> CoordinateSnapshot::PredictAll(
    common::ThreadPool* pool) const {
  return core::PredictAll(store, pool);
}

CoordinateSnapshot TakeSnapshot(const DeploymentEngine& engine) {
  // The live factors already sit in one contiguous store; archiving is a
  // plain copy.
  return CoordinateSnapshot{engine.store()};
}

CoordinateSnapshot TakeSnapshot(const DmfsgdSimulation& simulation) {
  return TakeSnapshot(simulation.engine());
}

void AppendCoordinateRow(std::string& out, const CoordinateStore& store,
                         std::size_t i) {
  const char* separator = "";
  for (const std::span<const double> part : {store.U(i), store.V(i)}) {
    for (const double value : part) {
      out += separator;
      common::AppendDouble(out, value);
      separator = ",";
    }
  }
}

void SaveSnapshot(const CoordinateSnapshot& snapshot,
                  const std::filesystem::path& path) {
  if (snapshot.rank() == 0) {
    throw std::invalid_argument("SaveSnapshot: malformed snapshot");
  }
  // One buffer for the whole image, formatted row by row: the CSV dialect
  // ReadCsv parses, written without a string per field.
  std::string text = "dmfsgd-snapshot," + std::to_string(snapshot.rank()) +
                     "," + std::to_string(snapshot.NodeCount()) + "\n";
  for (std::size_t i = 0; i < snapshot.NodeCount(); ++i) {
    AppendCoordinateRow(text, snapshot.store, i);
    text += '\n';
  }
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  // Written beside the target and renamed over it, so a process that dies
  // mid-write leaves the previous image whole: rename replaces atomically.
  std::filesystem::path staged = path;
  staged += ".tmp";
  std::ofstream out(staged);
  if (!out) {
    throw std::runtime_error("SaveSnapshot: cannot open " + staged.string());
  }
  out << text;
  out.close();
  if (!out) {
    throw std::runtime_error("SaveSnapshot: write failed for " + staged.string());
  }
  std::filesystem::rename(staged, path);
}

CoordinateSnapshot LoadSnapshot(const std::filesystem::path& path) {
  const auto doc = common::ReadCsv(path, /*has_header=*/true);
  if (doc.header.size() != 3 || doc.header[0] != "dmfsgd-snapshot") {
    throw std::invalid_argument("LoadSnapshot: not a snapshot file");
  }
  const std::size_t rank = common::ParseUnsigned(doc.header[1]);
  const std::size_t n = common::ParseUnsigned(doc.header[2]);
  if (rank == 0) {
    throw std::invalid_argument("LoadSnapshot: rank must be positive");
  }
  if (doc.rows.size() != n) {
    throw std::invalid_argument("LoadSnapshot: node count mismatch");
  }
  // The header is outside input: check every row's width before sizing the
  // store, without computing 2·rank, which can wrap (and let short rows
  // through into a store sized by a wrapped n·rank).  Once every row holds
  // 2·rank parsed fields, n·rank cannot wrap.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t width = doc.rows[i].size();
    if (width % 2 != 0 || width / 2 != rank) {
      throw std::invalid_argument("LoadSnapshot: malformed row " +
                                  std::to_string(i));
    }
  }
  CoordinateSnapshot snapshot;
  snapshot.store.Reset(n, rank);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& row = doc.rows[i];
    const auto u = snapshot.store.U(i);
    const auto v = snapshot.store.V(i);
    for (std::size_t d = 0; d < rank; ++d) {
      u[d] = common::ParseDouble(row[d]);
      v[d] = common::ParseDouble(row[rank + d]);
    }
  }
  return snapshot;
}

}  // namespace dmfsgd::core
