// Hostile-bytes sweep over the snapshot log's recovery (DESIGN.md §17).
//
// The seed is a generation SnapshotLogWriter wrote itself: a rank-3 base
// image and four committed epochs, the third of them empty.  Every mutant
// replaces deltas.log alone — the shared mutator's byte flips, truncations,
// splices, boundary values and inserted bytes, plus splices at line
// boundaries and epoch headers whose row count is inflated as text — and
// RecoverSnapshotLog must
//  * throw nothing: the base image is whole, so every defect in the delta
//    log is a torn tail to discard;
//  * never report more epochs than the seed committed;
//  * recover the seed's own state after that many epochs, bit for bit.  A
//    frame applies only if its bytes hash to its commit line, and with one
//    seed log the only such frames are the seed's own; for a pure
//    truncation this is the last-good-epoch rule.
// Deterministic (fixed seeds and budget), labeled `quick` and `fuzz`, so the
// ASan/UBSan and TSan legs walk every path it reaches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/coordinate_store.hpp"
#include "mutator.hpp"
#include "svc/snapshot_log.hpp"

namespace dmfsgd {
namespace {

using fuzz::Bytes;

constexpr std::size_t kMutants = 10000;
constexpr std::uint64_t kSweepSeed = 0x5106u;

core::CoordinateStore MakeStore(std::size_t n, std::size_t rank) {
  core::CoordinateStore store(n, rank);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < rank; ++d) {
      store.U(i)[d] = std::sin(static_cast<double>(i * rank + d)) / 3.0;
      store.V(i)[d] = std::cos(static_cast<double>(i * rank + d)) / 7.0;
    }
  }
  return store;
}

bool StoresIdentical(const core::CoordinateStore& a,
                     const core::CoordinateStore& b) {
  const auto au = a.UData(), bu = b.UData();
  const auto av = a.VData(), bv = b.VData();
  return a.NodeCount() == b.NodeCount() && a.rank() == b.rank() &&
         std::equal(au.begin(), au.end(), bu.begin()) &&
         std::equal(av.begin(), av.end(), bv.begin());
}

void WriteBytes(const std::filesystem::path& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::string TextOf(const Bytes& bytes) {
  std::string text(bytes.size(), '\0');
  std::transform(bytes.begin(), bytes.end(), text.begin(),
                 [](std::byte b) { return static_cast<char>(b); });
  return text;
}

Bytes BytesOf(const std::string& text) {
  Bytes bytes(text.size());
  std::transform(text.begin(), text.end(), bytes.begin(),
                 [](char c) { return static_cast<std::byte>(c); });
  return bytes;
}

/// Rewrites the row count of one `epoch,<id>,<count>` header line as a
/// larger decimal: one or two more rows, or a count no log could hold.
Bytes InflateRowCount(const Bytes& bytes, common::Rng& rng) {
  std::string text = TextOf(bytes);
  std::vector<std::size_t> headers;
  for (std::size_t at = text.find("epoch,"); at != std::string::npos;
       at = text.find("epoch,", at + 1)) {
    headers.push_back(at);
  }
  const std::size_t header = headers[rng.UniformInt(headers.size())];
  const std::size_t begin = text.find(',', header + 6) + 1;
  const std::size_t end = text.find('\n', begin);
  const std::uint64_t count = std::stoull(text.substr(begin, end - begin));
  const std::string inflated[] = {
      std::to_string(count + 1), std::to_string(count + 2), "4294967296",
      "18446744073709551615", "18446744073709551616", "99999999999999999999999"};
  text.replace(begin, end - begin, inflated[rng.UniformInt(std::size(inflated))]);
  return BytesOf(text);
}

/// The log's first lines up to one line boundary, then its lines from
/// another: whole frames dropped, repeated or out of order, and frames cut
/// between their lines.
Bytes SpliceLines(const Bytes& bytes, common::Rng& rng) {
  const std::string text = TextOf(bytes);
  std::vector<std::size_t> starts = {0};
  for (std::size_t at = text.find('\n'); at != std::string::npos;
       at = text.find('\n', at + 1)) {
    starts.push_back(at + 1);
  }
  const std::size_t head = starts[rng.UniformInt(starts.size())];
  const std::size_t tail = starts[rng.UniformInt(starts.size())];
  return BytesOf(text.substr(0, head) + text.substr(tail));
}

TEST(SnapshotLogRecovery, SurvivesHostileDeltaLogs) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    "dmfsgd_fuzz_snapshot_log_recovery";
  std::filesystem::remove_all(dir);

  // The seed generation and the store after each of its epochs.
  core::CoordinateStore store = MakeStore(6, 3);
  std::vector<core::CoordinateStore> state_after = {store};
  {
    svc::SnapshotLogWriter writer(dir, store);
    const std::vector<std::vector<core::NodeId>> epochs = {
        {1, 4}, {0, 2, 5}, {}, {3, 4}};
    for (std::size_t e = 0; e < epochs.size(); ++e) {
      for (const core::NodeId row : epochs[e]) {
        store.U(row)[e % 3] = static_cast<double>(e + 1) / 11.0;
        store.V(row)[(e + 1) % 3] = -static_cast<double>(row + 1) / 13.0;
      }
      writer.AppendDelta(store, epochs[e]);
      state_after.push_back(store);
    }
  }
  const std::uint64_t committed = state_after.size() - 1;
  Bytes seed;
  {
    std::ifstream log(dir / "deltas.log", std::ios::binary);
    seed = BytesOf({std::istreambuf_iterator<char>(log),
                    std::istreambuf_iterator<char>()});
  }

  fuzz::Mutator mutator({seed}, kSweepSeed);
  common::Rng& rng = mutator.rng();
  std::size_t truncations = 0;
  std::size_t whole = 0;
  std::size_t torn = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    Bytes mutant;
    switch (rng.UniformInt(4)) {
      case 0:
        mutant = InflateRowCount(seed, rng);
        break;
      case 1:
        mutant = SpliceLines(seed, rng);
        break;
      default:
        mutant = mutator.Next();
        break;
    }
    WriteBytes(dir / "deltas.log", mutant);
    try {
      const auto recovery = svc::RecoverSnapshotLog(dir);
      ASSERT_TRUE(recovery.has_value()) << "mutant " << m;
      ASSERT_LE(recovery->epochs, committed) << "mutant " << m;
      ASSERT_TRUE(StoresIdentical(recovery->store, state_after[recovery->epochs]))
          << "mutant " << m << " recovered " << recovery->epochs
          << " epochs into a store the seed never held";
      (recovery->epochs == committed ? whole : torn) += 1;
    } catch (const std::exception& error) {
      FAIL() << "mutant " << m << " threw: " << error.what();
    }
    truncations += mutant.size() < seed.size() &&
                   std::equal(mutant.begin(), mutant.end(), seed.begin());
  }
  // Every outcome must occur, or the sweep is not testing recovery.
  EXPECT_GT(truncations, 0u);
  EXPECT_GT(whole, 0u);
  EXPECT_GT(torn, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dmfsgd
