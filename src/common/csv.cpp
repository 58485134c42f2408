#include "common/csv.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dmfsgd::common {

namespace {

void RequireCleanField(const std::string& field, char separator) {
  if (field.find(separator) != std::string::npos ||
      field.find('\n') != std::string::npos ||
      field.find('\r') != std::string::npos) {
    throw std::invalid_argument("WriteCsv: field contains separator or newline: " +
                                field);
  }
}

void WriteRow(std::ofstream& out, const std::vector<std::string>& row, char separator) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    RequireCleanField(row[i], separator);
    if (i > 0) {
      out << separator;
    }
    out << row[i];
  }
  out << '\n';
}

}  // namespace

void WriteCsv(const std::filesystem::path& path,
              const std::vector<std::string>& header,
              const std::vector<std::vector<std::string>>& rows,
              char separator) {
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("WriteCsv: cannot open " + path.string());
  }
  if (!header.empty()) {
    WriteRow(out, header, separator);
  }
  for (const auto& row : rows) {
    WriteRow(out, row, separator);
  }
  if (!out) {
    throw std::runtime_error("WriteCsv: write failed for " + path.string());
  }
}

CsvDocument ReadCsv(const std::filesystem::path& path, bool has_header, char separator) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("ReadCsv: cannot open " + path.string());
  }
  CsvDocument doc;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    auto fields = SplitCsvLine(line, separator);
    if (first && has_header) {
      doc.header = std::move(fields);
    } else {
      doc.rows.push_back(std::move(fields));
    }
    first = false;
  }
  return doc;
}

std::vector<std::string> SplitCsvLine(const std::string& line, char separator) {
  std::vector<std::string> fields;
  std::string current;
  for (const char c : line) {
    if (c == separator) {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

std::string FormatDouble(double value) {
  std::string out;
  AppendDouble(out, value);
  return out;
}

void AppendDouble(std::string& out, double value) {
  // general + precision 17 is defined as printf's %.17g; its longest text,
  // e.g. "-2.2250738585072014e-308", is 24 chars, so the buffer always fits.
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general, 17);
  out.append(buffer, result.ptr);
}

std::uint64_t ParseUnsigned(std::string_view field) {
  std::uint64_t value = 0;
  const char* end = field.data() + field.size();
  const std::from_chars_result result = std::from_chars(field.data(), end, value);
  if (result.ec != std::errc() || result.ptr != end) {
    throw std::invalid_argument("ParseUnsigned: not an unsigned count: '" +
                                std::string(field) + "'");
  }
  return value;
}

double ParseDouble(const std::string& field) {
  // strtod rather than std::stod: stod throws on every ERANGE, and glibc
  // raises ERANGE for a subnormal result too, so a stored subnormal could
  // not be read back.  Only an overflow is rejected.
  const char* begin = field.c_str();
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(begin, &end);
  if (end == begin || (errno == ERANGE && std::isinf(value))) {
    throw std::invalid_argument("ParseDouble: not a number: '" + field + "'");
  }
  if (end != begin + field.size()) {
    throw std::invalid_argument("ParseDouble: trailing characters in '" + field + "'");
  }
  return value;
}

}  // namespace dmfsgd::common
