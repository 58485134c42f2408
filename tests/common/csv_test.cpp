#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace dmfsgd::common {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("dmfsgd_csv_test_") + info->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(CsvTest, RoundTripsHeaderAndRows) {
  const auto path = dir_ / "basic.csv";
  WriteCsv(path, {"a", "b"}, {{"1", "2"}, {"3", "4"}});
  const CsvDocument doc = ReadCsv(path);
  EXPECT_EQ(doc.header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(doc.rows[1], (std::vector<std::string>{"3", "4"}));
}

TEST_F(CsvTest, HeaderlessMode) {
  const auto path = dir_ / "noheader.csv";
  WriteCsv(path, {}, {{"x", "y"}});
  const CsvDocument doc = ReadCsv(path, /*has_header=*/false);
  EXPECT_TRUE(doc.header.empty());
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], "x");
}

TEST_F(CsvTest, CustomSeparator) {
  const auto path = dir_ / "tsv.tsv";
  WriteCsv(path, {"a", "b"}, {{"1,5", "2"}}, '\t');
  const CsvDocument doc = ReadCsv(path, true, '\t');
  EXPECT_EQ(doc.rows[0][0], "1,5");
}

TEST_F(CsvTest, RejectsFieldContainingSeparator) {
  const auto path = dir_ / "bad.csv";
  EXPECT_THROW(WriteCsv(path, {"a"}, {{"1,2"}}), std::invalid_argument);
  EXPECT_THROW(WriteCsv(path, {"a"}, {{"line\nbreak"}}), std::invalid_argument);
}

TEST_F(CsvTest, CreatesParentDirectories) {
  const auto path = dir_ / "deep" / "nested" / "file.csv";
  WriteCsv(path, {"h"}, {{"v"}});
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST_F(CsvTest, ReadMissingFileThrows) {
  EXPECT_THROW((void)ReadCsv(dir_ / "nope.csv"), std::runtime_error);
}

TEST(SplitCsvLine, HandlesEmptyFields) {
  const auto fields = SplitCsvLine("a,,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");
}

TEST(SplitCsvLine, SingleField) {
  const auto fields = SplitCsvLine("hello");
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "hello");
}

TEST(SplitCsvLine, TrailingSeparatorYieldsEmptyField) {
  const auto fields = SplitCsvLine("a,b,");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[2], "");
}

TEST(FormatDouble, RoundTripsThroughParse) {
  for (const double value : {0.0, 1.5, -3.25, 1e-9, 123456.789, 42.1}) {
    EXPECT_DOUBLE_EQ(ParseDouble(FormatDouble(value)), value);
  }
}

std::string PrintfG17(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Requires FormatDouble and AppendDouble to print printf's %.17g bytes,
/// and a finite value to parse back to the same bits.
void ExpectPrintfBytes(double value) {
  const std::string expected = PrintfG17(value);
  ASSERT_EQ(FormatDouble(value), expected)
      << "bits " << std::bit_cast<std::uint64_t>(value);
  std::string appended = "x,";
  AppendDouble(appended, value);
  ASSERT_EQ(appended, "x," + expected);
  if (std::isfinite(value)) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ParseDouble(expected)),
              std::bit_cast<std::uint64_t>(value))
        << expected;
  }
}

// Snapshot files and their checksums are pinned byte for byte, so the
// formatter must reproduce printf's %.17g text exactly, at the edges
// (signed zeros, infinities, NaNs, the extremes, subnormals) and anywhere
// in between.
TEST(FormatDouble, PrintsPrintfG17ForSpecialAndExtremeValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double value :
       {0.0, -0.0, kInf, -kInf, kNaN, -kNaN, DBL_MAX, -DBL_MAX, DBL_MIN,
        -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN, std::nextafter(DBL_MIN, 0.0),
        DBL_EPSILON, 1.0 / 3.0, 0.1, 42.1}) {
    ExpectPrintfBytes(value);
  }
  // Powers of ten, their neighbours and the fixed/scientific switch
  // (%g goes scientific below 1e-4 and from 1e17 on).
  for (int exponent = -323; exponent <= 308; ++exponent) {
    const double power = std::pow(10.0, exponent);
    for (const double value :
         {power, -power, std::nextafter(power, 0.0), std::nextafter(power, kInf),
          9.5 * power, 0.99999999999999989 * power}) {
      ExpectPrintfBytes(value);
    }
  }
}

TEST(FormatDouble, PrintsPrintfG17ForRandomBitPatterns) {
  Rng rng(20261018);
  for (std::size_t draw = 0; draw < 100000; ++draw) {
    ExpectPrintfBytes(std::bit_cast<double>(rng()));
  }
}

TEST(ParseDouble, ReadsSubnormalsBackExactly) {
  for (const double value : {DBL_TRUE_MIN, -DBL_TRUE_MIN, 1e-310, -2.5e-315,
                             std::nextafter(DBL_MIN, 0.0)}) {
    EXPECT_EQ(ParseDouble(FormatDouble(value)), value);
  }
  EXPECT_THROW((void)ParseDouble("1e999"), std::invalid_argument);
  EXPECT_THROW((void)ParseDouble("-1e999"), std::invalid_argument);
}

TEST(ParseUnsigned, TakesOnlyWholeUnsignedDecimals) {
  EXPECT_EQ(ParseUnsigned("0"), 0u);
  EXPECT_EQ(ParseUnsigned("4294967296"), 4294967296u);
  EXPECT_EQ(ParseUnsigned("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  for (const char* field : {"", "-1", "+1", " 1", "1 ", "1x", "0x1", "1.0",
                            "18446744073709551616"}) {
    EXPECT_THROW((void)ParseUnsigned(field), std::invalid_argument) << field;
  }
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_THROW((void)ParseDouble("abc"), std::invalid_argument);
  EXPECT_THROW((void)ParseDouble("1.5x"), std::invalid_argument);
  EXPECT_THROW((void)ParseDouble(""), std::invalid_argument);
}

TEST(ParseDouble, AcceptsScientificNotation) {
  EXPECT_DOUBLE_EQ(ParseDouble("1e3"), 1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("-2.5e-2"), -0.025);
}

}  // namespace
}  // namespace dmfsgd::common
