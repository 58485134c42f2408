#include "datasets/io.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/csv.hpp"

namespace dmfsgd::datasets {

namespace {

constexpr const char* kMissingToken = "nan";

std::filesystem::path MatrixPath(const std::filesystem::path& stem) {
  auto p = stem;
  p += ".matrix.csv";
  return p;
}

std::filesystem::path TracePath(const std::filesystem::path& stem) {
  auto p = stem;
  p += ".trace.csv";
  return p;
}

/// A trace node id: an unsigned decimal below `node_count`, range-checked
/// before it narrows to TraceRecord's 32-bit field.
std::uint32_t ParseNodeId(const std::string& field, std::size_t node_count) {
  const std::uint64_t id = common::ParseUnsigned(field);
  if (id >= node_count) {
    throw std::invalid_argument("LoadDataset: trace node id out of range: '" +
                                field + "'");
  }
  return static_cast<std::uint32_t>(id);
}

}  // namespace

void SaveDataset(const Dataset& dataset, const std::filesystem::path& stem) {
  if (dataset.Procedural()) {
    // Its ground truth is a function, not a matrix: the file would read
    // back as a 0-node dataset.
    throw std::invalid_argument(
        "SaveDataset: procedural datasets have no matrix to save");
  }
  const auto& m = dataset.ground_truth;
  // Header row doubles as metadata: name, metric, node count.
  const std::vector<std::string> header = {
      dataset.name, MetricName(dataset.metric), std::to_string(m.Rows())};
  std::vector<std::vector<std::string>> rows;
  rows.reserve(m.Rows());
  for (std::size_t r = 0; r < m.Rows(); ++r) {
    std::vector<std::string> row;
    row.reserve(m.Cols());
    for (std::size_t c = 0; c < m.Cols(); ++c) {
      const double v = m(r, c);
      row.push_back(linalg::Matrix::IsMissing(v) ? kMissingToken
                                                 : common::FormatDouble(v));
    }
    rows.push_back(std::move(row));
  }
  common::WriteCsv(MatrixPath(stem), header, rows);

  if (!dataset.trace.empty()) {
    std::vector<std::vector<std::string>> trace_rows;
    trace_rows.reserve(dataset.trace.size());
    for (const TraceRecord& record : dataset.trace) {
      trace_rows.push_back({std::to_string(record.src), std::to_string(record.dst),
                            common::FormatDouble(record.value),
                            common::FormatDouble(record.timestamp_s)});
    }
    common::WriteCsv(TracePath(stem), {"src", "dst", "value", "timestamp_s"},
                     trace_rows);
  }
}

Dataset LoadDataset(const std::filesystem::path& stem) {
  const auto doc = common::ReadCsv(MatrixPath(stem), /*has_header=*/true);
  if (doc.header.size() != 3) {
    throw std::invalid_argument("LoadDataset: malformed matrix header");
  }
  Dataset dataset;
  dataset.name = doc.header[0];
  const std::string& metric_name = doc.header[1];
  if (metric_name == "RTT") {
    dataset.metric = Metric::kRtt;
  } else if (metric_name == "ABW") {
    dataset.metric = Metric::kAbw;
  } else {
    throw std::invalid_argument("LoadDataset: unknown metric '" + metric_name + "'");
  }
  const std::uint64_t n = common::ParseUnsigned(doc.header[2]);
  if (doc.rows.size() != n) {
    throw std::invalid_argument("LoadDataset: row count mismatch");
  }
  dataset.ground_truth = linalg::Matrix(n, n, linalg::Matrix::kMissing);
  for (std::size_t r = 0; r < n; ++r) {
    if (doc.rows[r].size() != n) {
      throw std::invalid_argument("LoadDataset: column count mismatch in row " +
                                  std::to_string(r));
    }
    for (std::size_t c = 0; c < n; ++c) {
      const std::string& field = doc.rows[r][c];
      if (field != kMissingToken) {
        dataset.ground_truth(r, c) = common::ParseDouble(field);
      }
    }
  }

  if (std::filesystem::exists(TracePath(stem))) {
    const auto trace_doc = common::ReadCsv(TracePath(stem), /*has_header=*/true);
    dataset.trace.reserve(trace_doc.rows.size());
    for (const auto& row : trace_doc.rows) {
      if (row.size() != 4) {
        throw std::invalid_argument("LoadDataset: malformed trace row");
      }
      TraceRecord record;
      record.src = ParseNodeId(row[0], n);
      record.dst = ParseNodeId(row[1], n);
      record.value = common::ParseDouble(row[2]);
      record.timestamp_s = common::ParseDouble(row[3]);
      dataset.trace.push_back(record);
    }
  }
  ValidateDataset(dataset);
  return dataset;
}

}  // namespace dmfsgd::datasets
