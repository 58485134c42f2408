// Delta-encoded snapshot persistence for the resident coordinate service
// (DESIGN.md §17).
//
// A long-lived deployment cannot afford to rewrite all n·2r factors every
// few seconds, but it also cannot afford to lose the learned state on a
// crash.  The snapshot log splits persistence into a full **base image**
// (the core/snapshot CSV format, written once per log generation) plus an
// append-only **delta log**: each epoch carries only the rows training
// dirtied since the previous epoch (the engine's drift-tracking feed —
// the same dirty set the ANN index absorbs), framed as
//
//   epoch,<id>,<row count>
//   <node>,u_0,...,u_{r-1},v_0,...,v_{r-1}     x row count
//   commit,<id>,<fnv1a64 of the epoch's bytes>
//
// The commit line makes every epoch atomic-by-construction on any
// filesystem that appends in order: a crash mid-epoch leaves a tail with no
// valid commit, and recovery simply discards everything after the last
// epoch whose checksum verifies — the *last-good-epoch* state, which is
// bit-identical to the live store at the moment that epoch was appended
// (doubles round-trip exactly through common::FormatDouble's %.17g).
//
// One directory holds one log generation: base.csv + deltas.log.  Starting
// a writer begins a fresh generation (new base from the current store,
// truncated delta log); a service that restarts therefore recovers first,
// then starts a new generation from the recovered state.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>

#include "core/coordinate_store.hpp"
#include "core/messages.hpp"

namespace dmfsgd::svc {

/// Appends delta epochs on top of a freshly written base image.
class SnapshotLogWriter {
 public:
  /// Starts a new log generation rooted at `dir` (created if missing):
  /// writes `store` as the base image and truncates any previous delta
  /// tail.  Throws std::runtime_error if the directory or files cannot be
  /// written.
  SnapshotLogWriter(std::filesystem::path dir, const core::CoordinateStore& store);

  /// Appends one delta epoch holding `rows`' current u/v values (callers
  /// pass the dirty set drained since the last epoch, ascending — the
  /// TakeDirtyNodes order).  An empty row set still writes an (empty)
  /// epoch, so "nothing changed" is distinguishable from "crashed before
  /// the epoch".  Flushes before returning: once AppendDelta returns, the
  /// epoch survives a process crash.  Throws std::out_of_range on a bad
  /// row id.
  void AppendDelta(const core::CoordinateStore& store,
                   std::span<const core::NodeId> rows);

  /// Committed epochs appended by this writer (the base image is epoch 0).
  [[nodiscard]] std::uint64_t Epochs() const noexcept { return epochs_; }

  [[nodiscard]] const std::filesystem::path& dir() const noexcept {
    return dir_;
  }

 private:
  std::filesystem::path dir_;
  std::ofstream deltas_;
  std::uint64_t epochs_ = 0;
};

struct SnapshotLogRecovery {
  /// Base image with every committed delta epoch applied, in order.
  core::CoordinateStore store;
  /// Committed epochs applied.
  std::uint64_t epochs = 0;
  /// True if the delta log held bytes past the last valid commit (a crash
  /// mid-epoch); they were discarded — `store` is the last-good-epoch state.
  bool truncated_tail = false;
};

/// Recovers the store a log generation describes, tolerating a torn tail.
/// Returns std::nullopt if `dir` holds no base image (nothing to recover —
/// a fresh start, not an error).  Throws only if the base image itself is
/// unreadable (std::runtime_error) or malformed (std::invalid_argument, as
/// core::LoadSnapshot): without it no consistent state exists.  A delta
/// epoch that is torn, fails its checksum or names a row outside the base
/// image is discarded with everything after it.
[[nodiscard]] std::optional<SnapshotLogRecovery> RecoverSnapshotLog(
    const std::filesystem::path& dir);

}  // namespace dmfsgd::svc
