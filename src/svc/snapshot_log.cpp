#include "svc/snapshot_log.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/csv.hpp"
#include "core/snapshot.hpp"

namespace dmfsgd::svc {

namespace {

constexpr const char* kBaseName = "base.csv";
constexpr const char* kDeltasName = "deltas.log";

/// FNV-1a 64 over the epoch's payload bytes — cheap, dependency-free, and
/// plenty to distinguish "crash tore this epoch" from "epoch is whole".
/// (This is corruption *detection* for recovery truncation, not integrity
/// against an adversary.)
std::uint64_t Fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string HexDigest(std::uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

}  // namespace

SnapshotLogWriter::SnapshotLogWriter(std::filesystem::path dir,
                                     const core::CoordinateStore& store)
    : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
  core::SaveSnapshot(core::CoordinateSnapshot{store}, dir_ / kBaseName);
  deltas_.open(dir_ / kDeltasName, std::ios::out | std::ios::trunc);
  if (!deltas_) {
    throw std::runtime_error("SnapshotLogWriter: cannot open " +
                             (dir_ / kDeltasName).string());
  }
}

void SnapshotLogWriter::AppendDelta(const core::CoordinateStore& store,
                                    std::span<const core::NodeId> rows) {
  const std::uint64_t epoch = epochs_ + 1;
  std::string payload = "epoch," + std::to_string(epoch) + "," +
                        std::to_string(rows.size()) + "\n";
  for (const core::NodeId id : rows) {
    if (id >= store.NodeCount()) {
      throw std::out_of_range("SnapshotLogWriter::AppendDelta: row " +
                              std::to_string(id) + " out of range");
    }
    payload += std::to_string(id);
    payload += ',';
    core::AppendCoordinateRow(payload, store, id);
    payload += '\n';
  }
  deltas_ << payload << "commit," << epoch << "," << HexDigest(Fnv1a64(payload))
          << "\n";
  deltas_.flush();
  if (!deltas_) {
    throw std::runtime_error("SnapshotLogWriter::AppendDelta: write failed");
  }
  epochs_ = epoch;
}

std::optional<SnapshotLogRecovery> RecoverSnapshotLog(
    const std::filesystem::path& dir) {
  if (!std::filesystem::exists(dir / kBaseName)) {
    return std::nullopt;
  }
  SnapshotLogRecovery recovery;
  recovery.store = core::LoadSnapshot(dir / kBaseName).store;
  const std::size_t rank = recovery.store.rank();

  std::ifstream deltas(dir / kDeltasName);
  if (!deltas) {
    // A base with no delta log is a whole generation that never appended.
    return recovery;
  }

  std::string line;
  bool saw_tail_bytes = false;  // anything read past the last valid commit
  // One staged epoch: rows are applied to the store only after its commit
  // line verifies, so a torn epoch can never half-apply.
  std::vector<core::NodeId> staged_ids;
  std::vector<double> staged_values;  // 2r per staged row
  while (std::getline(deltas, line)) {
    saw_tail_bytes = true;
    // -- epoch header ------------------------------------------------------
    std::string payload = line + "\n";
    auto fields = common::SplitCsvLine(line);
    if (fields.size() != 3 || fields[0] != "epoch") {
      break;
    }
    std::uint64_t epoch = 0;
    std::uint64_t row_count = 0;
    try {
      epoch = common::ParseUnsigned(fields[1]);
      row_count = common::ParseUnsigned(fields[2]);
    } catch (const std::invalid_argument&) {
      break;
    }
    if (epoch != recovery.epochs + 1) {
      break;
    }
    // -- staged rows -------------------------------------------------------
    staged_ids.clear();
    staged_values.clear();
    bool whole = true;
    for (std::uint64_t r = 0; r < row_count; ++r) {
      if (!std::getline(deltas, line)) {
        whole = false;
        break;
      }
      payload += line;
      payload += '\n';
      fields = common::SplitCsvLine(line);
      // 1 + 2·rank fields, compared without multiplying: the base image's
      // rank is outside input too.
      const std::size_t values = fields.size() - 1;
      if (values % 2 != 0 || values / 2 != rank) {
        whole = false;
        break;
      }
      try {
        // Range-checked as a 64-bit value before it narrows to a NodeId,
        // so no id can alias a real row.
        const std::uint64_t id = common::ParseUnsigned(fields[0]);
        if (id >= recovery.store.NodeCount()) {
          whole = false;
          break;
        }
        staged_ids.push_back(static_cast<core::NodeId>(id));
        for (std::size_t d = 0; d < values; ++d) {
          staged_values.push_back(common::ParseDouble(fields[1 + d]));
        }
      } catch (const std::exception&) {
        whole = false;
        break;
      }
    }
    if (!whole) {
      break;
    }
    // -- commit ------------------------------------------------------------
    if (!std::getline(deltas, line)) {
      break;
    }
    fields = common::SplitCsvLine(line);
    if (fields.size() != 3 || fields[0] != "commit" ||
        fields[1] != std::to_string(epoch) ||
        fields[2] != HexDigest(Fnv1a64(payload))) {
      break;
    }
    for (std::size_t r = 0; r < staged_ids.size(); ++r) {
      const double* values = staged_values.data() + r * 2 * rank;
      const auto u = recovery.store.U(staged_ids[r]);
      const auto v = recovery.store.V(staged_ids[r]);
      for (std::size_t d = 0; d < rank; ++d) {
        u[d] = values[d];
        v[d] = values[rank + d];
      }
    }
    recovery.epochs = epoch;
    saw_tail_bytes = false;
  }
  recovery.truncated_tail = saw_tail_bytes;
  return recovery;
}

}  // namespace dmfsgd::svc
