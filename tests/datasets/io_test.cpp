#include "datasets/io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "datasets/harvard.hpp"
#include "datasets/hps3.hpp"
#include "datasets/procedural.hpp"

namespace dmfsgd::datasets {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("dmfsgd_io_test_") + info->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes a well-formed 4-node RTT dataset, `tiny.matrix.csv` and
  /// `tiny.trace.csv`, with one piece swapped for the text a test passes:
  /// the header's node count, cell (0, 1) = (1, 0), or the trace's second
  /// row.  Returns the stem to load.
  std::filesystem::path WriteTiny(const std::string& count = "4",
                                  const std::string& cell01 = "10",
                                  const std::string& trace_row = "2,3,12,1.5") {
    {
      std::ofstream out(dir_ / "tiny.matrix.csv");
      out << "tiny,RTT," << count << "\n"
          << "nan," << cell01 << ",20,30\n"
          << cell01 << ",nan,40,50\n"
          << "20,40,nan,60\n"
          << "30,50,60,nan\n";
    }
    {
      std::ofstream out(dir_ / "tiny.trace.csv");
      out << "src,dst,value,timestamp_s\n0,1,11,0.5\n" << trace_row << "\n";
    }
    return dir_ / "tiny";
  }

  std::filesystem::path dir_;
};

TEST_F(DatasetIoTest, RoundTripsStaticDatasetWithMissingEntries) {
  HpS3Config config;
  config.host_count = 20;
  config.seed = 5;
  const Dataset original = MakeHpS3(config);
  SaveDataset(original, dir_ / "hps3");
  const Dataset loaded = LoadDataset(dir_ / "hps3");

  EXPECT_EQ(loaded.name, original.name);
  EXPECT_EQ(loaded.metric, original.metric);
  EXPECT_TRUE(loaded.ground_truth.AlmostEqual(original.ground_truth, 1e-9));
  EXPECT_TRUE(loaded.trace.empty());
}

TEST_F(DatasetIoTest, RoundTripsDynamicTrace) {
  HarvardConfig config;
  config.node_count = 12;
  config.trace_records = 300;
  config.seed = 7;
  const Dataset original = MakeHarvard(config);
  SaveDataset(original, dir_ / "harvard");
  const Dataset loaded = LoadDataset(dir_ / "harvard");

  ASSERT_EQ(loaded.trace.size(), original.trace.size());
  for (std::size_t r = 0; r < loaded.trace.size(); ++r) {
    EXPECT_EQ(loaded.trace[r].src, original.trace[r].src);
    EXPECT_EQ(loaded.trace[r].dst, original.trace[r].dst);
    EXPECT_NEAR(loaded.trace[r].value, original.trace[r].value,
                1e-9 * original.trace[r].value);
    EXPECT_NEAR(loaded.trace[r].timestamp_s, original.trace[r].timestamp_s, 1e-6);
  }
  EXPECT_NO_THROW(ValidateDataset(loaded));
}

// A procedural dataset's ground truth is a function, not a matrix: saving
// it would write a 0-node file that LoadDataset then rejects.
TEST_F(DatasetIoTest, SaveRefusesProceduralDatasetsBeforeWriting) {
  EuclideanRttConfig config;
  config.node_count = 64;
  const Dataset procedural = MakeEuclideanRtt(config);
  ASSERT_TRUE(procedural.Procedural());
  EXPECT_THROW(SaveDataset(procedural, dir_ / "procedural"),
               std::invalid_argument);
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(DatasetIoTest, LoadMissingFileThrows) {
  EXPECT_THROW((void)LoadDataset(dir_ / "nothing"), std::runtime_error);
}

TEST_F(DatasetIoTest, LoadRejectsCorruptedHeader) {
  const auto path = dir_ / "corrupt.matrix.csv";
  {
    std::ofstream out(path);
    out << "name,NOT_A_METRIC,2\n1,2\n3,4\n";
  }
  EXPECT_THROW((void)LoadDataset(dir_ / "corrupt"), std::invalid_argument);
}

TEST_F(DatasetIoTest, LoadRejectsRowCountMismatch) {
  const auto path = dir_ / "short.matrix.csv";
  {
    std::ofstream out(path);
    out << "name,RTT,3\nnan,1,2\n1,nan,3\n";  // only 2 of 3 rows
  }
  EXPECT_THROW((void)LoadDataset(dir_ / "short"), std::invalid_argument);
}

// The files are outside input: each case below used to load, and the loader
// now rejects it.

TEST_F(DatasetIoTest, LoadAcceptsTheWellFormedTinyDataset) {
  const Dataset loaded = LoadDataset(WriteTiny());
  EXPECT_EQ(loaded.NodeCount(), 4u);
  ASSERT_EQ(loaded.trace.size(), 2u);
  EXPECT_EQ(loaded.trace[1].src, 2u);
  EXPECT_EQ(loaded.trace[1].dst, 3u);
}

TEST_F(DatasetIoTest, LoadRejectsNonFiniteOrNonPositiveTraceValues) {
  for (const std::string value : {"nan", "inf", "0", "-5"}) {
    SCOPED_TRACE(value);
    EXPECT_THROW((void)LoadDataset(WriteTiny("4", "10", "2,3," + value + ",1.5")),
                 std::invalid_argument);
  }
}

TEST_F(DatasetIoTest, LoadRejectsTraceIdsThatDoNotFitTheNodeCount) {
  // 4294967297 = 2^32 + 1 used to narrow to node 1; -1 used to wrap.
  for (const std::string id : {"4294967297", "-1", "4"}) {
    SCOPED_TRACE(id);
    EXPECT_THROW((void)LoadDataset(WriteTiny("4", "10", id + ",2,12,1.5")),
                 std::invalid_argument);
    EXPECT_THROW((void)LoadDataset(WriteTiny("4", "10", "2," + id + ",12,1.5")),
                 std::invalid_argument);
  }
}

TEST_F(DatasetIoTest, LoadRejectsAnInfiniteMatrixCell) {
  EXPECT_THROW((void)LoadDataset(WriteTiny("4", "inf")), std::invalid_argument);
}

TEST_F(DatasetIoTest, LoadRejectsANodeCountWithTrailingBytes) {
  // std::stoull read "4x" as 4.
  EXPECT_THROW((void)LoadDataset(WriteTiny("4x")), std::invalid_argument);
}

}  // namespace
}  // namespace dmfsgd::datasets
