#include "support.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <string_view>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "eval/roc.hpp"

namespace perfbench {

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  (void)dmfsgd::common::SplitMix64Next(state);
  return dmfsgd::common::SplitMix64Next(state);
}

LatencySummary SummarizeLatency(std::span<const double> values) {
  LatencySummary summary;
  if (values.empty()) {
    return summary;
  }
  summary.count = values.size();
  summary.p50 = dmfsgd::common::Percentile(values, 50.0);
  summary.p99 = dmfsgd::common::Percentile(values, 99.0);
  summary.max = dmfsgd::common::Max(values);
  summary.beyond_p99 = static_cast<std::size_t>(std::count_if(
      values.begin(), values.end(),
      [&](double value) { return value > summary.p99; }));
  return summary;
}

FastWindow SummarizeFastWindows(std::span<const double> op_ms,
                                std::span<const std::uint64_t> work,
                                std::size_t window) {
  FastWindow fast;
  if (op_ms.empty()) {
    return fast;
  }
  fast.windows = std::max<std::size_t>(1, op_ms.size() / window);
  const std::size_t size = std::min(op_ms.size(), window);
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> rate;
  for (std::size_t w = 0; w < fast.windows; ++w) {
    const LatencySummary summary = SummarizeLatency(op_ms.subspan(w * size, size));
    double busy_ms = 0.0;
    std::uint64_t done = 0;
    for (std::size_t op = w * size; op < (w + 1) * size; ++op) {
      busy_ms += op_ms[op];
      done += work[op];
    }
    p50.push_back(summary.p50);
    p99.push_back(summary.p99);
    rate.push_back(static_cast<double>(done) / (busy_ms * 1e-3));
  }
  fast.p50_ms = dmfsgd::common::Percentile(p50, 25.0);
  fast.p99_ms = dmfsgd::common::Percentile(p99, 25.0);
  fast.work_per_s = dmfsgd::common::Percentile(rate, 75.0);
  return fast;
}

double LocalTailRatio(std::span<const double> op_ms) {
  constexpr std::size_t kLocal = 21;
  std::vector<double> ratio;
  for (std::size_t op = 0; op < op_ms.size(); ++op) {
    const std::size_t first = op >= kLocal / 2 ? op - kLocal / 2 : 0;
    const std::size_t last = std::min(op_ms.size(), first + kLocal);
    ratio.push_back(op_ms[op] /
                    dmfsgd::common::Median(op_ms.subspan(first, last - first)));
  }
  return ratio.empty() ? 0.0 : dmfsgd::common::Percentile(ratio, 99.0);
}

std::vector<double> PoissonArrivals(double rate_per_s, double seconds,
                                    std::uint64_t seed) {
  dmfsgd::common::Rng rng(seed);
  std::vector<double> due;
  for (double t = rng.Exponential(rate_per_s); t < seconds;
       t += rng.Exponential(rate_per_s)) {
    due.push_back(t);
  }
  return due;
}

// -------------------------------------------------------------- tracing ----

std::int64_t SpanLog::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

std::int64_t SpanLog::Open(std::string_view name, Clock::time_point start) {
  spans_.push_back({name, Ns(start), Ns(start), open_});
  open_ = static_cast<std::int64_t>(spans_.size()) - 1;
  return open_;
}

void SpanLog::Close(std::int64_t span, Clock::time_point end) {
  Span& closed = spans_.at(static_cast<std::size_t>(span));
  closed.end_ns = Ns(end);
  open_ = closed.parent;
}

void SpanLog::Add(std::string_view name, Clock::time_point start,
                  Clock::time_point end) {
  spans_.push_back({name, Ns(start), Ns(end), open_});
}

namespace {

/// Each span's duration minus its direct children's (children of one
/// thread's span never overlap each other).
std::vector<std::int64_t> SelfNs(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t s = 0; s < spans.size(); ++s) {
    self[s] = spans[s].end_ns - spans[s].start_ns;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  return self;
}

}  // namespace

std::map<std::string, SpanTotals> AggregateSpans(
    std::span<const SpanLog* const> logs) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    const std::vector<std::int64_t> self = SelfNs(spans);
    for (std::size_t s = 0; s < spans.size(); ++s) {
      SpanTotals& total = totals[std::string(spans[s].name)];
      ++total.calls;
      total.total_s += static_cast<double>(spans[s].end_ns - spans[s].start_ns) * 1e-9;
      total.self_s += static_cast<double>(self[s]) * 1e-9;
    }
  }
  return totals;
}

void WriteSpans(const std::filesystem::path& path, std::string_view run_id,
                std::span<const SpanLog* const> logs) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  out << "run,thread,id,parent,name,start_ns,end_ns,self_ns\n";
  for (std::size_t thread = 0; thread < logs.size(); ++thread) {
    const std::vector<Span>& spans = logs[thread]->spans();
    const std::vector<std::int64_t> self = SelfNs(spans);
    for (std::size_t s = 0; s < spans.size(); ++s) {
      out << run_id << ',' << thread << ',' << s << ',' << spans[s].parent
          << ',' << spans[s].name << ',' << spans[s].start_ns << ','
          << spans[s].end_ns << ',' << self[s] << '\n';
    }
  }
  if (!out) {
    throw std::runtime_error("WriteSpans: cannot write " + path.string());
  }
}

// ------------------------------------------------------------- accuracy ----

double HeldOutAuc(
    const dmfsgd::datasets::Dataset& dataset, double tau, std::size_t pairs,
    std::uint64_t seed,
    const std::function<bool(std::size_t, std::size_t)>& is_training_pair,
    const std::function<double(std::size_t, std::size_t)>& score) {
  dmfsgd::common::Rng rng(seed);
  const std::size_t n = dataset.NodeCount();
  std::vector<double> scores;
  std::vector<int> labels;
  scores.reserve(pairs);
  labels.reserve(pairs);
  while (scores.size() < pairs) {
    const auto i = static_cast<std::size_t>(rng.UniformInt(n));
    const auto j = static_cast<std::size_t>(rng.UniformInt(n));
    if (i == j || !dataset.IsKnown(i, j) || is_training_pair(i, j)) {
      continue;
    }
    scores.push_back(score(i, j));
    labels.push_back(
        dmfsgd::datasets::ClassOf(dataset.metric, dataset.Quantity(i, j), tau));
  }
  return dmfsgd::eval::Auc(scores, labels);
}

std::uint64_t FactorDigest(std::span<const double> u,
                           std::span<const double> v) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::span<const double> part : {u, v}) {
    for (const double value : part) {
      unsigned char bytes[sizeof(double)];
      std::memcpy(bytes, &value, sizeof bytes);
      for (const unsigned char byte : bytes) {
        hash = (hash ^ byte) * 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

bool AllFinite(std::span<const double> values) {
  return std::all_of(values.begin(), values.end(),
                     [](double value) { return std::isfinite(value); });
}

// ----------------------------------------------------------- provenance ----

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(DMFSGD_BENCH_TAINTED_BUILD)
#define PERFBENCH_TAINTED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_TAINTED 1
#endif
#endif

const char* BuildType() { return PERFBENCH_BUILD_TYPE; }

void RequireRecordableBuild() {
#ifdef PERFBENCH_TAINTED
  throw std::runtime_error(
      "refusing to record from a sanitizer-instrumented build");
#endif
  if (std::string_view(BuildType()) != "Release") {
    throw std::runtime_error(std::string("refusing to record from a ") +
                             BuildType() + " build; configure with "
                             "-DCMAKE_BUILD_TYPE=Release");
  }
#ifndef NDEBUG
  throw std::runtime_error("refusing to record with assertions enabled");
#endif
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

void PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) {
    throw std::runtime_error("PinToCurrentCpu: sched_getcpu failed");
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("PinToCurrentCpu: sched_setaffinity failed");
  }
}

std::uint64_t DirectoryBytes(const std::filesystem::path& dir) {
  std::uint64_t bytes = 0;
  std::error_code error;
  if (!std::filesystem::exists(dir, error)) {
    return 0;
  }
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, error)) {
    if (entry.is_regular_file(error)) {
      bytes += entry.file_size(error);
    }
  }
  return bytes;
}

// ----------------------------------------------------------- host speed ----

namespace {
constexpr std::size_t kCalibrationRows = 4096;
constexpr std::size_t kCalibrationRank = 10;
constexpr std::size_t kCalibrationUpdates = 1 << 15;
}  // namespace

Calibration::Calibration()
    : u0_(kCalibrationRows * kCalibrationRank),
      v0_(kCalibrationRows * kCalibrationRank),
      rows_(2 * kCalibrationUpdates) {
  dmfsgd::common::Rng rng(0xca11b7a7e);
  for (double& x : u0_) {
    x = rng.Uniform();
  }
  for (double& x : v0_) {
    x = rng.Uniform();
  }
  for (std::uint32_t& row : rows_) {
    row = static_cast<std::uint32_t>(rng.UniformInt(kCalibrationRows));
  }
}

double Calibration::RunBlock() {
  const double start = ThreadCpuSeconds();
  u_ = u0_;  // every block starts from the same factors
  v_ = v0_;
  constexpr double kRate = 0.05;
  constexpr double kDecay = 0.1;
  double sum = 0.0;
  for (std::size_t k = 0; k < kCalibrationUpdates; ++k) {
    double* u = &u_[rows_[2 * k] * kCalibrationRank];
    double* v = &v_[rows_[2 * k + 1] * kCalibrationRank];
    double dot = 0.0;
    for (std::size_t c = 0; c < kCalibrationRank; ++c) {
      dot += u[c] * v[c];
    }
    const double error = ((rows_[2 * k] ^ rows_[2 * k + 1]) & 1 ? 1.0 : -1.0) - dot;
    for (std::size_t c = 0; c < kCalibrationRank; ++c) {
      const double uc = u[c];
      u[c] += kRate * (error * v[c] - kDecay * uc);
      v[c] += kRate * (error * uc - kDecay * v[c]);
    }
    sum += dot;
  }
  sink_ += sum;
  return ThreadCpuSeconds() - start;
}

double Calibration::Slowdown(std::size_t blocks) {
  std::vector<double> block_s;
  for (std::size_t b = 0; b < blocks; ++b) {
    block_s.push_back(RunBlock());
  }
  return dmfsgd::common::Median(block_s) / kReferenceBlockS;
}

}  // namespace perfbench
