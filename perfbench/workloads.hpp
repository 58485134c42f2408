// The three workloads (README.md) and the outcome each hands to main.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;    ///< scratch space inside the checkout
  std::filesystem::path trace_file;  ///< where a traced run writes its spans
  std::string run_id;                ///< tags this run's spans and scratch
};

/// Operations one thread attempted and failed, merged after it joins.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  void Check(bool ok, const char* what) {
    ++attempted;
    if (!ok && failed++ == 0) {
      first_failure = what;
    }
  }
};

/// What one run measured.  `metrics` is keyed by the catalogue names of
/// main.cpp; `details` and `notes` go on the line printed before the
/// result (sample counts, digests, diagnostics).
struct Outcome {
  std::map<std::string, double> metrics;
  std::map<std::string, double> details;
  std::map<std::string, std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first failure of each kind

  void Merge(const Tally& tally) {
    attempted += tally.attempted;
    failed += tally.failed;
    if (tally.failed > 0) {
      failures.push_back(tally.first_failure);
    }
  }
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

Outcome RunServe(const RunOptions& options);
Outcome RunTrain(const RunOptions& options);
Outcome RunDrain(const RunOptions& options);

}  // namespace perfbench
