// Plumbing shared by the benchmark's workloads and its self-test:
// percentiles that carry their sample counts and fast-window figures,
// open-loop request timing, the traced run's in-memory span log, held-out
// AUC and factor digests, the provenance guard, and the host-speed
// calibration.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "datasets/dataset.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double SecondsBetween(Clock::time_point from,
                                           Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[nodiscard]] inline Clock::time_point AtOffset(Clock::time_point origin,
                                                double seconds) {
  return origin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
}

/// The seed of one input stream of a run, derived from the run's --seed
/// alone, so the same seed always generates the same inputs.
[[nodiscard]] std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream);

// ---------------------------------------------------------- percentiles ----

/// A sample reduced to the percentiles the benchmark reports, with the
/// counts each rests on: `count` samples in all, `beyond_p99` of them
/// strictly above the p99.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  std::size_t beyond_p99 = 0;
};

/// Percentiles by linear interpolation between closest ranks
/// (common::Percentile).  An empty sample summarizes to all zeros.
[[nodiscard]] LatencySummary SummarizeLatency(std::span<const double> values);

/// Operations timed in windows of `window` consecutive operations, each
/// doing work[i] units: the figures of a fast window, i.e. the 25th
/// percentile over windows of each window's p50 and p99 and the 75th of its
/// work per second.  A shared host slows for spells of seconds to a
/// minute, and a run's share of slow windows varies from run to run; its
/// fast windows vary less.  A pass shorter than one window is one window.
struct FastWindow {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double work_per_s = 0.0;
  std::size_t windows = 0;
};
[[nodiscard]] FastWindow SummarizeFastWindows(std::span<const double> op_ms,
                                              std::span<const std::uint64_t> work,
                                              std::size_t window);

/// The p99 over consecutive operations of each one's time over the median
/// of the 21 operations around it.  The host's slow spells last tens of
/// operations or more and cancel in the ratio, where they set a plain p99;
/// what is left is the program's own operation-to-operation tail.  Train's
/// p99, its fast window's p50 times this ratio, spread 0.05 (IQR/median
/// over five seeds; 0.07-0.12 in three sets of ten) where the plain p99
/// spread 0.13-0.17 over five seeds.  Drain steps,
/// which hand off between two threads, gave a ratio that jumped in some
/// runs; drain keeps its fast window's p99.
[[nodiscard]] double LocalTailRatio(std::span<const double> op_ms);

// ------------------------------------------------------------ open loop ----

/// Arrival offsets, in seconds, of a Poisson process of `rate_per_s` over
/// [0, seconds), drawn from `seed` alone.
[[nodiscard]] std::vector<double> PoissonArrivals(double rate_per_s,
                                                  double seconds,
                                                  std::uint64_t seed);

/// One open-loop request, in seconds from the run's origin.
struct RequestTiming {
  double due = 0.0;
  double start = 0.0;
  double end = 0.0;

  /// From the due time: a request held up behind a slow predecessor
  /// carries that wait.
  [[nodiscard]] double LatencyMs() const { return (end - due) * 1e3; }
  /// How late the generator issued the request.
  [[nodiscard]] double LagMs() const { return (start - due) * 1e3; }
  /// The call alone.
  [[nodiscard]] double CallMs() const { return (end - start) * 1e3; }
};

/// Issues request r at origin + due[r] on the calling thread: sleeps until
/// it is due, runs and times op(r), then runs then(r) untimed.  A request
/// whose due time has passed starts at once and none is skipped, so a
/// stalled call delays every request due behind it and, counted from the
/// due time, adds to their latency.
template <typename Op, typename Then>
std::vector<RequestTiming> RunOpenLoop(std::span<const double> due,
                                       Clock::time_point origin, Op&& op,
                                       Then&& then) {
  std::vector<RequestTiming> timings(due.size());
  for (std::size_t r = 0; r < due.size(); ++r) {
    std::this_thread::sleep_until(AtOffset(origin, due[r]));
    const Clock::time_point start = Clock::now();
    op(r);
    const Clock::time_point end = Clock::now();
    timings[r] = {due[r], SecondsBetween(origin, start),
                  SecondsBetween(origin, end)};
    then(r);
  }
  return timings;
}

template <typename Op>
std::vector<RequestTiming> RunOpenLoop(std::span<const double> due,
                                       Clock::time_point origin, Op&& op) {
  return RunOpenLoop(due, origin, std::forward<Op>(op), [](std::size_t) {});
}

// -------------------------------------------------------------- tracing ----

/// One timed call at a layer boundary.  Times are nanoseconds from the
/// log's origin; `parent` indexes the enclosing span of the same log (-1
/// for a root).
struct Span {
  std::string_view name;  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
};

/// The spans one thread records, kept in memory until the run ends.  Spans
/// nest: Open makes a span the parent of everything recorded until its
/// Close.  Not thread-safe; every recording thread owns its log.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  std::int64_t Open(std::string_view name, Clock::time_point start);
  void Close(std::int64_t span, Clock::time_point end);
  /// A finished span under the currently open one.
  void Add(std::string_view name, Clock::time_point start,
           Clock::time_point end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] std::int64_t Ns(Clock::time_point t) const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::int64_t open_ = -1;
};

/// Per span name: calls, total time, and self time (each span minus the
/// time its direct children cover), in seconds.
struct SpanTotals {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
[[nodiscard]] std::map<std::string, SpanTotals> AggregateSpans(
    std::span<const SpanLog* const> logs);

/// Writes every span as CSV: run, thread, id, parent, name, start_ns,
/// end_ns, self_ns.
void WriteSpans(const std::filesystem::path& path, std::string_view run_id,
                std::span<const SpanLog* const> logs);

// ------------------------------------------------------------- accuracy ----

/// The paper's classification AUC over `pairs` held-out pairs drawn from
/// `seed`: ordered pairs i != j that are not training pairs, scored by
/// score(i, j) against their true class under `tau`.
[[nodiscard]] double HeldOutAuc(
    const dmfsgd::datasets::Dataset& dataset, double tau, std::size_t pairs,
    std::uint64_t seed,
    const std::function<bool(std::size_t, std::size_t)>& is_training_pair,
    const std::function<double(std::size_t, std::size_t)>& score);

/// FNV-1a over the bytes of the factor arrays: equal digests mean
/// bit-identical factors.
[[nodiscard]] std::uint64_t FactorDigest(std::span<const double> u,
                                         std::span<const double> v);

[[nodiscard]] bool AllFinite(std::span<const double> values);

// ----------------------------------------------------------- provenance ----

/// Throws std::runtime_error unless this is an uninstrumented Release
/// build: the sanitizer detection of bench/harness.cpp's guard, plus the
/// CMake build type and NDEBUG.
void RequireRecordableBuild();
[[nodiscard]] const char* BuildType();
[[nodiscard]] double PeakRssMb();
/// CPU time the calling thread has used.  Time the host steals from the
/// virtual CPU is not in it.
[[nodiscard]] double ThreadCpuSeconds();
/// Restricts the calling thread, and every thread it starts afterwards, to
/// the CPU it is running on.
void PinToCurrentCpu();
/// Bytes of the regular files under `dir` (0 if it does not exist).
[[nodiscard]] std::uint64_t DirectoryBytes(const std::filesystem::path& dir);

// ----------------------------------------------------------- host speed ----

/// A fixed block of benchmark-owned work shaped like the library's: rank-10
/// dot products and SGD row updates over random rows of two 4096 x 10
/// factor matrices (~0.7 MB, inside one core's L2).  The block never
/// changes, so its time measures how fast the host runs this process at
/// the moment.  On a shared host that speed moved by up to 3x within a
/// minute, in CPU time as much as in wall time (frequency and cache
/// contention, not steal), and every timed metric moved with it; the
/// ratio of a round's time to the block's stayed within ~10%.
class Calibration {
 public:
  Calibration();
  /// Runs `blocks` blocks on the calling thread; returns their median CPU
  /// time / kReferenceBlockS.
  double Slowdown(std::size_t blocks = 5);

 private:
  /// Runs the block once; returns its CPU seconds.
  double RunBlock();

  std::vector<double> u_;
  std::vector<double> v_;
  std::vector<double> u0_;
  std::vector<double> v0_;
  std::vector<std::uint32_t> rows_;
  double sink_ = 0.0;
};

/// A nominal time of one calibration block, about its time on the host the
/// benchmark was defined on (a 4-vCPU Xeon VM) when that host ran fast.  A
/// time reported "at reference speed" is the measured time divided by the
/// slowdown (measured block / kReferenceBlockS) of the same moment; a rate
/// is multiplied by it.
inline constexpr double kReferenceBlockS = 1.0e-3;

/// One set-up's wall time, as measured and at reference speed: divided by
/// the mean of the slowdowns measured just before and just after it.
struct SetUpTime {
  double raw_s = 0.0;
  double reference_s = 0.0;
};
template <typename SetUp>
SetUpTime TimeSetUp(Calibration& calibration, SetUp&& set_up) {
  const double before = calibration.Slowdown();
  const Clock::time_point start = Clock::now();
  set_up();
  const double raw_s = SecondsBetween(start, Clock::now());
  return {raw_s, raw_s / ((before + calibration.Slowdown()) / 2.0)};
}

}  // namespace perfbench
