// Dataset persistence.
//
// Datasets round-trip through two CSV files: `<stem>.matrix.csv` (the
// ground-truth matrix, "nan" for missing entries) and, when a trace exists,
// `<stem>.trace.csv` (src,dst,value,timestamp rows).  This lets experiments
// pin a generated dataset to disk and reload it exactly.
#pragma once

#include <filesystem>

#include "datasets/dataset.hpp"

namespace dmfsgd::datasets {

/// Writes `<stem>.matrix.csv` (+ `<stem>.trace.csv` if the trace is
/// non-empty).  Throws std::invalid_argument, before writing anything, for
/// a procedural dataset (no matrix to write), and std::runtime_error on IO
/// failure.
void SaveDataset(const Dataset& dataset, const std::filesystem::path& stem);

/// Reads a dataset previously written by SaveDataset.  `metric` and `name`
/// are restored from the matrix file header.  The files are outside input:
/// counts and ids must be plain unsigned decimals in range, and the result
/// must pass ValidateDataset.  Throws std::runtime_error /
/// std::invalid_argument on malformed input.
[[nodiscard]] Dataset LoadDataset(const std::filesystem::path& stem);

}  // namespace dmfsgd::datasets
