// Minimal CSV reader/writer used to persist datasets and experiment results.
//
// The dialect is deliberately simple (no quoting; fields must not contain the
// separator or newlines), which is sufficient for the numeric tables this
// library produces and keeps parsing unambiguous.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace dmfsgd::common {

/// A parsed CSV document: rows of string fields.
struct CsvDocument {
  std::vector<std::string> header;            ///< empty if has_header was false
  std::vector<std::vector<std::string>> rows;  ///< data rows, field-split
};

/// Writes rows (with optional header) to `path`, creating parent directories.
/// Throws std::runtime_error on IO failure and std::invalid_argument if any
/// field contains the separator or a newline.
void WriteCsv(const std::filesystem::path& path,
              const std::vector<std::string>& header,
              const std::vector<std::vector<std::string>>& rows,
              char separator = ',');

/// Reads a CSV file written by WriteCsv (or any unquoted CSV).
/// Throws std::runtime_error if the file cannot be opened.
[[nodiscard]] CsvDocument ReadCsv(const std::filesystem::path& path,
                                  bool has_header = true,
                                  char separator = ',');

/// Splits a single line on `separator` (no quoting).
[[nodiscard]] std::vector<std::string> SplitCsvLine(const std::string& line,
                                                    char separator = ',');

/// Formats a double with enough digits (%.17g) that parsing the field back
/// recovers the exact bits.  The snapshot log (svc/snapshot_log.hpp) pins
/// restart-from-snapshot bit-identical to the live store, so lossy
/// formatting here would silently break recovery.  The text is printf's
/// "%.17g" byte for byte, produced by std::to_chars without printf's
/// format parsing and locale.
[[nodiscard]] std::string FormatDouble(double value);

/// Appends FormatDouble(value) to `out` without building a temporary.
void AppendDouble(std::string& out, double value);

/// Parses a whole field as an unsigned decimal that fits in 64 bits;
/// throws std::invalid_argument on anything else — a sign, whitespace,
/// trailing bytes or an overflow, all of which std::stoull lets through or
/// wraps.
[[nodiscard]] std::uint64_t ParseUnsigned(std::string_view field);

/// Parses a double; throws std::invalid_argument on garbage, trailing junk
/// or a magnitude past DBL_MAX.  Subnormals parse (to the nearest value), so
/// every finite FormatDouble text reads back to the same bits.
[[nodiscard]] double ParseDouble(const std::string& field);

}  // namespace dmfsgd::common
