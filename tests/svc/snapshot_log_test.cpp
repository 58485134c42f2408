#include "svc/snapshot_log.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/coordinate_store.hpp"

namespace dmfsgd::svc {
namespace {

class SnapshotLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("dmfsgd_snapshot_log_test_") + info->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

/// A store filled with awkward doubles (nothing decimal-round) so the tests
/// actually exercise the %.17g exact round-trip.
core::CoordinateStore MakeStore(std::size_t n, std::size_t rank,
                                double phase = 0.0) {
  core::CoordinateStore store(n, rank);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < rank; ++d) {
      store.U(i)[d] = std::sin(static_cast<double>(i * rank + d) + phase) / 3.0;
      store.V(i)[d] = std::cos(static_cast<double>(i * rank + d) - phase) / 7.0;
    }
  }
  return store;
}

void ExpectStoresIdentical(const core::CoordinateStore& actual,
                           const core::CoordinateStore& expected) {
  ASSERT_EQ(actual.NodeCount(), expected.NodeCount());
  ASSERT_EQ(actual.rank(), expected.rank());
  const auto au = actual.UData(), eu = expected.UData();
  const auto av = actual.VData(), ev = expected.VData();
  for (std::size_t x = 0; x < au.size(); ++x) {
    ASSERT_EQ(au[x], eu[x]) << "U mismatch at flat index " << x;
    ASSERT_EQ(av[x], ev[x]) << "V mismatch at flat index " << x;
  }
}

TEST_F(SnapshotLogTest, BaseOnlyGenerationRoundTripsBitIdentically) {
  const core::CoordinateStore store = MakeStore(9, 4);
  { SnapshotLogWriter writer(dir_, store); }

  const auto recovery = RecoverSnapshotLog(dir_);
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->epochs, 0u);
  EXPECT_FALSE(recovery->truncated_tail);
  ExpectStoresIdentical(recovery->store, store);
}

TEST_F(SnapshotLogTest, MissingGenerationIsNullopt) {
  EXPECT_FALSE(RecoverSnapshotLog(dir_ / "never_written").has_value());
  EXPECT_FALSE(RecoverSnapshotLog(dir_).has_value());  // dir exists, no base
}

TEST_F(SnapshotLogTest, DeltaEpochsApplyInOrderOnTopOfTheBase) {
  core::CoordinateStore store = MakeStore(10, 3);
  SnapshotLogWriter writer(dir_, store);

  // Epoch 1 dirties rows 2 and 7; epoch 2 re-dirties 2 and adds 9 — the
  // final row 2 must be epoch 2's version.
  store.U(2)[0] = 0.25 + 1.0 / 3.0;
  store.V(7)[2] = -1.0 / 9.0;
  writer.AppendDelta(store, std::vector<core::NodeId>{2, 7});
  store.U(2)[0] = 1.0 / 11.0;
  store.V(9)[1] = 2.0 / 13.0;
  writer.AppendDelta(store, std::vector<core::NodeId>{2, 9});
  EXPECT_EQ(writer.Epochs(), 2u);

  const auto recovery = RecoverSnapshotLog(dir_);
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->epochs, 2u);
  EXPECT_FALSE(recovery->truncated_tail);
  ExpectStoresIdentical(recovery->store, store);
}

TEST_F(SnapshotLogTest, OnlyListedRowsAreEncoded) {
  core::CoordinateStore store = MakeStore(6, 2);
  const core::CoordinateStore base = store;
  SnapshotLogWriter writer(dir_, store);

  // Rows 1 and 4 change, but the epoch only lists row 1 — recovery must
  // keep row 4's base value (the delta is exactly what the caller listed).
  store.U(1)[0] = 5.0 / 3.0;
  store.U(4)[0] = 7.0 / 3.0;
  writer.AppendDelta(store, std::vector<core::NodeId>{1});

  const auto recovery = RecoverSnapshotLog(dir_);
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->store.U(1)[0], store.U(1)[0]);
  EXPECT_EQ(recovery->store.U(4)[0], base.U(4)[0]);
}

TEST_F(SnapshotLogTest, EmptyEpochsCommitAndCount) {
  const core::CoordinateStore store = MakeStore(4, 2);
  SnapshotLogWriter writer(dir_, store);
  writer.AppendDelta(store, std::vector<core::NodeId>{});
  writer.AppendDelta(store, std::vector<core::NodeId>{});

  const auto recovery = RecoverSnapshotLog(dir_);
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->epochs, 2u);
  EXPECT_FALSE(recovery->truncated_tail);
  ExpectStoresIdentical(recovery->store, store);
}

TEST_F(SnapshotLogTest, OutOfRangeRowThrows) {
  const core::CoordinateStore store = MakeStore(4, 2);
  SnapshotLogWriter writer(dir_, store);
  EXPECT_THROW(writer.AppendDelta(store, std::vector<core::NodeId>{4}),
               std::out_of_range);
}

// The crash test: truncate the delta log at EVERY byte offset and require
// recovery to land exactly on the last epoch whose commit survived — never
// a half-applied epoch, never a failure.
TEST_F(SnapshotLogTest, EveryTruncationPointRecoversTheLastGoodEpoch) {
  core::CoordinateStore store = MakeStore(7, 3);
  std::vector<core::CoordinateStore> state_after;  // [e] = store after epoch e
  std::vector<std::uintmax_t> boundary;            // [e] = log size after epoch e
  state_after.push_back(store);
  boundary.push_back(0);
  {
    SnapshotLogWriter writer(dir_, store);
    for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
      const auto row = static_cast<core::NodeId>(epoch + 1);
      store.U(row)[0] = static_cast<double>(epoch) / 3.0;
      store.V(row)[1] = -static_cast<double>(epoch) / 7.0;
      writer.AppendDelta(store,
                         std::vector<core::NodeId>{row,
                                                   static_cast<core::NodeId>(0)});
      state_after.push_back(store);
      boundary.push_back(std::filesystem::file_size(dir_ / "deltas.log"));
    }
  }
  std::string full;
  {
    std::ifstream in(dir_ / "deltas.log", std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(full.size(), boundary.back());

  const std::filesystem::path crash_dir = dir_ / "crashed";
  std::filesystem::create_directories(crash_dir);
  std::filesystem::copy_file(dir_ / "base.csv", crash_dir / "base.csv");
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    {
      std::ofstream out(crash_dir / "deltas.log",
                        std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(cut));
    }
    const auto recovery = RecoverSnapshotLog(crash_dir);
    ASSERT_TRUE(recovery.has_value()) << "cut at byte " << cut;
    // The recovered epoch is the last one wholly inside the cut.  A cut
    // that shaves only a commit line's trailing newline still recovers the
    // epoch — getline hands back the final unterminated line, and every
    // byte the checksum covers is present.
    std::uint64_t expected_epoch = 0;
    while (expected_epoch + 1 < boundary.size() &&
           boundary[expected_epoch + 1] <= cut + 1) {
      ++expected_epoch;
    }
    ASSERT_EQ(recovery->epochs, expected_epoch) << "cut at byte " << cut;
    const bool at_boundary =
        cut == boundary[expected_epoch] ||
        (expected_epoch > 0 && cut + 1 == boundary[expected_epoch]);
    ASSERT_EQ(recovery->truncated_tail, !at_boundary) << "cut at byte " << cut;
    ExpectStoresIdentical(recovery->store, state_after[expected_epoch]);
  }
}

/// An epoch frame with a valid commit line (the writer's FNV-1a 64 over the
/// header and row lines), holding the one row line `row`.
std::string CommittedEpoch(std::uint64_t epoch, std::string_view row) {
  const std::string payload =
      "epoch," + std::to_string(epoch) + ",1\n" + std::string(row) + "\n";
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : payload) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(hash));
  return payload + "commit," + std::to_string(epoch) + "," + digest + "\n";
}

// Row ids are outside input.  An id past the 32-bit NodeId range, or one
// that a lenient parse would wrap (a leading minus), must not narrow onto a
// real row: every malformed id discards its epoch like a torn frame.
TEST_F(SnapshotLogTest, OutOfRangeRowIdsDiscardTheirEpoch) {
  const core::CoordinateStore store = MakeStore(2, 1);
  for (const char* id :
       {"4294967296", "4294967297", "-18446744073709551615", "-1", "+1", " 1",
        "1 ", "2", "18446744073709551617", "0x1", ""}) {
    SCOPED_TRACE(id);
    { SnapshotLogWriter writer(dir_, store); }
    {
      std::ofstream out(dir_ / "deltas.log", std::ios::binary | std::ios::trunc);
      out << CommittedEpoch(1, std::string(id) + ",0.5,0.25");
    }
    const auto recovery = RecoverSnapshotLog(dir_);
    ASSERT_TRUE(recovery.has_value());
    EXPECT_EQ(recovery->epochs, 0u);
    EXPECT_TRUE(recovery->truncated_tail);
    ExpectStoresIdentical(recovery->store, store);
  }
  // The same frame with a real id applies: the frame itself is well formed.
  { SnapshotLogWriter writer(dir_, store); }
  {
    std::ofstream out(dir_ / "deltas.log", std::ios::binary | std::ios::trunc);
    out << CommittedEpoch(1, "1,0.5,0.25");
  }
  const auto recovery = RecoverSnapshotLog(dir_);
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->epochs, 1u);
  EXPECT_FALSE(recovery->truncated_tail);
  EXPECT_EQ(recovery->store.U(1)[0], 0.5);
  EXPECT_EQ(recovery->store.V(1)[0], 0.25);
  EXPECT_EQ(recovery->store.U(0)[0], store.U(0)[0]);
}

// A base image whose rank doubles past SIZE_MAX must not let short delta
// rows through (1 + 2·rank wraps to 3).
TEST_F(SnapshotLogTest, OverflowingBaseRankIsRejected) {
  {
    std::ofstream out(dir_ / "base.csv", std::ios::trunc);
    out << "dmfsgd-snapshot,9223372036854775809,1\n1,2\n";
  }
  EXPECT_THROW((void)RecoverSnapshotLog(dir_), std::invalid_argument);
}

TEST_F(SnapshotLogTest, CorruptedEpochIsDiscardedWithEverythingAfterIt) {
  core::CoordinateStore store = MakeStore(5, 2);
  std::uintmax_t first_epoch_end = 0;
  {
    SnapshotLogWriter writer(dir_, store);
    store.U(1)[0] = 1.0 / 3.0;
    writer.AppendDelta(store, std::vector<core::NodeId>{1});
    first_epoch_end = std::filesystem::file_size(dir_ / "deltas.log");
    store.U(2)[0] = 2.0 / 3.0;
    writer.AppendDelta(store, std::vector<core::NodeId>{2});
    store.U(3)[0] = 4.0 / 3.0;
    writer.AppendDelta(store, std::vector<core::NodeId>{3});
  }
  // Flip one digit inside epoch 2's row payload (the first mantissa digit
  // after epoch 1's commit).  The frame still parses — field counts and the
  // commit line are intact — but the checksum no longer verifies, so
  // recovery must stop at epoch 1 even though epoch 3's frame is whole.
  std::string bytes;
  {
    std::ifstream in(dir_ / "deltas.log", std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const std::size_t victim = bytes.find('.', first_epoch_end) + 1;
  ASSERT_LT(victim, bytes.size());
  bytes[victim] = (bytes[victim] == '1') ? '2' : '1';
  {
    std::ofstream out(dir_ / "deltas.log", std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  const auto recovery = RecoverSnapshotLog(dir_);
  ASSERT_TRUE(recovery.has_value());
  EXPECT_EQ(recovery->epochs, 1u);
  EXPECT_TRUE(recovery->truncated_tail);
  EXPECT_EQ(recovery->store.U(1)[0], 1.0 / 3.0);
  EXPECT_NE(recovery->store.U(2)[0], 2.0 / 3.0);
}

}  // namespace
}  // namespace dmfsgd::svc
