// The `serve` workload: a resident svc::CoordinateService answering
// open-loop query traffic while one thread keeps ingesting probes, the
// contended read/write case of a running deployment.  The only workload
// that loads the service (svc) and the peer index (ann).
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ann/peer_index.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "datasets/procedural.hpp"
#include "eval/brute_force_knn.hpp"
#include "svc/coordinate_service.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using dmfsgd::core::NodeId;
using dmfsgd::svc::CoordinateService;

// The deployment (delay space and protocol seed) is the library default
// and the same for every run; --seed draws the traffic.  n overrides the
// library's 65536-node tier: there one set-up takes ~21 s
// (construction plus two warm-up rounds that each rebuild the index), and
// a run sets up five times.
constexpr std::size_t kNodes = 4096;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kWarmupRounds = 2;
// Offered load, open loop: one Poisson ingest stream and three Poisson
// query streams; each query stream alternates k-NN peer queries (even
// requests) and class lookups (odd requests).
constexpr double kIngestPerS = 1024.0;
constexpr std::size_t kQueryThreads = 3;
constexpr double kQueriesPerS = 2000.0;  // per query thread
constexpr std::size_t kPeers = 10;
constexpr std::size_t kStalenessEvery = 16;  // requests per staleness sample
constexpr std::size_t kRecallQueries = 256;
constexpr std::size_t kExactQueries = 32;
constexpr std::size_t kAucPairs = 20000;
constexpr std::size_t kAnnQueries = 4000;
// A pass whose median generator lag grows by more than this from its first
// tenth to its last was offered more than it can serve.
constexpr double kOverloadLagGrowthMs = 10.0;
// A second with fewer k-NN queries (3 streams x 1000/s offered) is partial.
constexpr std::size_t kMinSecondSamples = 2000;
// The percentile over a pass's seconds that stands for a fast second (Figures).
constexpr double kFastSecond = 25.0;
// An IngestProbe call that used this much CPU refreshed the index.
constexpr double kRefreshCpuS = 1e-3;

struct Deployment {
  std::unique_ptr<dmfsgd::datasets::Dataset> dataset;
  std::unique_ptr<CoordinateService> service;
  double construct_s = 0.0;
  double warmup_s = 0.0;
};

void TearDown(Deployment& deployment) {
  deployment.service.reset();  // before the dataset it reads
  deployment.dataset.reset();
}

Deployment SetUp(const std::filesystem::path& snapshot_dir) {
  Deployment deployment;
  const Clock::time_point start = Clock::now();
  dmfsgd::datasets::EuclideanRttConfig space;
  space.node_count = kNodes;
  deployment.dataset = std::make_unique<dmfsgd::datasets::Dataset>(
      dmfsgd::datasets::MakeEuclideanRtt(space));
  dmfsgd::svc::ServiceConfig config;
  config.tau = dmfsgd::datasets::SampledMedianValue(*deployment.dataset);
  config.snapshot_dir = snapshot_dir;
  deployment.service =
      std::make_unique<CoordinateService>(*deployment.dataset, config);
  const Clock::time_point built = Clock::now();
  deployment.service->IngestRounds(kWarmupRounds);
  deployment.construct_s = SecondsBetween(start, built);
  deployment.warmup_s = SecondsBetween(built, Clock::now());
  return deployment;
}

/// One pass's calls, all drawn from the seed before timing starts.
struct Inputs {
  std::vector<double> ingest_due;
  std::vector<NodeId> probers;
  std::vector<std::vector<double>> query_due;  // per query thread
  std::vector<std::vector<std::pair<NodeId, NodeId>>> query_pairs;  // k-NN uses .first
};

Inputs MakeInputs(std::uint64_t seed, double seconds) {
  Inputs inputs;
  dmfsgd::common::Rng nodes(StreamSeed(seed, 1));
  inputs.ingest_due = PoissonArrivals(kIngestPerS, seconds, StreamSeed(seed, 2));
  for (std::size_t r = 0; r < inputs.ingest_due.size(); ++r) {
    inputs.probers.push_back(static_cast<NodeId>(nodes.UniformInt(kNodes)));
  }
  for (std::size_t t = 0; t < kQueryThreads; ++t) {
    inputs.query_due.push_back(
        PoissonArrivals(kQueriesPerS, seconds, StreamSeed(seed, 10 + t)));
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (std::size_t r = 0; r < inputs.query_due.back().size(); ++r) {
      const auto i = static_cast<NodeId>(nodes.UniformInt(kNodes));
      auto j = static_cast<NodeId>(nodes.UniformInt(kNodes - 1));
      j += j >= i ? 1 : 0;
      pairs.emplace_back(i, j);
    }
    inputs.query_pairs.push_back(std::move(pairs));
  }
  return inputs;
}

bool ValidPeers(const dmfsgd::eval::KnnResult& result, std::size_t query) {
  if (result.ids.size() != kPeers || result.scores.size() != kPeers) {
    return false;
  }
  for (std::size_t p = 0; p < kPeers; ++p) {
    if (result.ids[p] >= kNodes || result.ids[p] == query ||
        !std::isfinite(result.scores[p])) {
      return false;
    }
  }
  return true;
}

/// Load-generator threads wake at their due times to the microsecond
/// instead of within the default 50 us timer slack.
void TightenTimerSlack() { (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

/// What one pass recorded.
struct Pass {
  std::vector<RequestTiming> ingests;
  std::vector<std::uint8_t> ingest_refreshed;  // traced: the call refreshed the index
  std::vector<std::uint8_t> ingest_epoch;      // traced: the call appended an epoch
  std::vector<std::vector<RequestTiming>> queries;  // per query thread
  std::size_t staleness_max = 0;
  double wall_s = 0.0;
  std::vector<double> ingest_cpu_s;  // of each IngestProbe call, on its thread
  /// Host slowdowns (support.hpp) measured right after the index refreshes,
  /// with the second (from the origin) each was due in.
  std::vector<std::pair<std::size_t, double>> slowdown;
  CoordinateService::Stats before;
  CoordinateService::Stats after;
};

Pass RunPass(CoordinateService& service, const Inputs& inputs, bool traced,
             Outcome& outcome) {
  Pass pass;
  pass.queries.resize(kQueryThreads);
  pass.before = service.stats();
  std::vector<Tally> tallies(kQueryThreads + 1);
  std::vector<std::size_t> staleness(kQueryThreads, 0);
  std::vector<std::exception_ptr> errors(kQueryThreads + 1);
  const std::size_t budget = service.config().staleness_budget;
  const std::size_t levels = service.config().class_thresholds.size();
  // Every stream starts from one origin, a little after the threads spawn.
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    TightenTimerSlack();
    try {
      Tally& tally = tallies[kQueryThreads];
      if (traced) {
        pass.ingest_refreshed.assign(inputs.ingest_due.size(), 0);
        pass.ingest_epoch.assign(inputs.ingest_due.size(), 0);
      }
      CoordinateService::Stats last = pass.before;
      Calibration calibration;
      pass.ingest_cpu_s.assign(inputs.ingest_due.size(), 0.0);
      pass.ingests = RunOpenLoop(
          inputs.ingest_due, origin,
          [&](std::size_t r) {
            const double cpu_start = ThreadCpuSeconds();
            const NodeId target = service.IngestProbe(inputs.probers[r]);
            pass.ingest_cpu_s[r] = ThreadCpuSeconds() - cpu_start;
            tally.Check(target < kNodes && target != inputs.probers[r],
                        "serve: IngestProbe chose an invalid target");
          },
          [&](std::size_t r) {
            // A refresh is 15-25 ms of compute on this thread: the host's
            // speed is measured right after it, in the same state.  The
            // block (~1 ms, four times a second) holds no lock; ingests due
            // meanwhile wait for it, and query threads preempt it.
            if (pass.ingest_cpu_s[r] >= kRefreshCpuS) {
              pass.slowdown.emplace_back(static_cast<std::size_t>(inputs.ingest_due[r]),
                                         calibration.Slowdown(1));
            }
            if (!traced) {
              return;
            }
            // This thread is the only writer, so the counters read here
            // moved during call r alone.
            const CoordinateService::Stats now = service.stats();
            pass.ingest_refreshed[r] = now.index_refreshes != last.index_refreshes;
            pass.ingest_epoch[r] = now.epochs != last.epochs;
            last = now;
          });
    } catch (...) {
      errors[kQueryThreads] = std::current_exception();
    }
  });
  for (std::size_t t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      TightenTimerSlack();
      try {
        Tally& tally = tallies[t];
        const auto& pairs = inputs.query_pairs[t];
        pass.queries[t] = RunOpenLoop(
            inputs.query_due[t], origin,
            [&](std::size_t r) {
              const auto [i, j] = pairs[r];
              if (r % 2 == 0) {
                tally.Check(ValidPeers(service.QueryNearestPeers(i, kPeers), i),
                            "serve: QueryNearestPeers answer is malformed");
              } else {
                tally.Check(service.QueryLevel(i, j) <= levels,
                            "serve: QueryLevel answer is out of range");
              }
            },
            [&](std::size_t r) {
              if (r % kStalenessEvery != 0) {
                return;
              }
              const std::size_t now = service.CurrentStaleness();
              staleness[t] = std::max(staleness[t], now);
              tally.Check(now <= budget,
                          "serve: CurrentStaleness exceeded the staleness budget");
            });
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  if (pass.slowdown.empty()) {  // a pass too short to refresh the index
    pass.slowdown.emplace_back(0, Calibration().Slowdown());
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        outcome.Check(false, std::string("serve: ") + e.what());
      }
    }
  }
  for (const Tally& tally : tallies) {
    outcome.Merge(tally);
  }
  pass.after = service.stats();
  pass.staleness_max = *std::max_element(staleness.begin(), staleness.end());
  for (const RequestTiming& t : pass.ingests) {
    pass.wall_s = std::max(pass.wall_s, t.end);
  }
  for (const auto& thread : pass.queries) {
    for (const RequestTiming& t : thread) {
      pass.wall_s = std::max(pass.wall_s, t.end);
    }
  }
  return pass;
}

/// The pass's client-side figures.
struct Figures {
  LatencySummary knn;
  /// The k-NN p50 and p99 of a fast second: the 25th percentile over the
  /// pass's whole seconds of each second's p50 and p99, each second at
  /// reference speed (support.hpp) by the slowdowns measured in it.  The
  /// shared host slows for spells of seconds to a minute, and a run's share
  /// of slow seconds varied from run to run; its fast seconds varied less.
  /// A snapshot epoch falls in every fourth second or so and is left out
  /// the same way.
  double knn_fast_second_p50 = 0.0;
  double knn_fast_second_p99 = 0.0;
  double raw_fast_second_p50 = 0.0;  ///< as measured
  double raw_fast_second_p99 = 0.0;
  /// Measurements applied per CPU-second inside IngestProbe, each call at
  /// reference speed by its second's slowdown, and as measured.
  double ingest_capacity = 0.0;
  double raw_ingest_capacity = 0.0;
  double slowdown = 0.0;  ///< median over the pass
  LatencySummary level;
  LatencySummary ingest;
  LatencySummary lag;
  double lag_growth_ms = 0.0;
};

Figures Summarize(const Pass& pass) {
  std::vector<double> knn;
  std::vector<double> level;
  std::vector<double> ingest;
  std::vector<std::vector<double>> knn_by_second;
  std::vector<const RequestTiming*> all;
  for (const RequestTiming& t : pass.ingests) {
    ingest.push_back(t.LatencyMs());
    all.push_back(&t);
  }
  for (const auto& thread : pass.queries) {
    for (std::size_t r = 0; r < thread.size(); ++r) {
      (r % 2 == 0 ? knn : level).push_back(thread[r].LatencyMs());
      if (r % 2 == 0) {
        const auto second = static_cast<std::size_t>(thread[r].due);
        knn_by_second.resize(std::max(knn_by_second.size(), second + 1));
        knn_by_second[second].push_back(thread[r].LatencyMs());
      }
      all.push_back(&thread[r]);
    }
  }
  std::sort(all.begin(), all.end(), [](const RequestTiming* a, const RequestTiming* b) {
    return a->due < b->due;
  });
  std::vector<double> lag;
  for (const RequestTiming* t : all) {
    lag.push_back(t->LagMs());
  }
  Figures figures;
  figures.knn = SummarizeLatency(knn);
  // Each second's slowdown: the median of those measured in it, else the
  // pass's median.
  std::vector<double> all_slowdown;
  std::vector<std::vector<double>> slowdown_by_second(knn_by_second.size() + 1);
  for (const auto& [second, slowdown] : pass.slowdown) {
    all_slowdown.push_back(slowdown);
    slowdown_by_second[std::min(second, knn_by_second.size())].push_back(slowdown);
  }
  figures.slowdown = dmfsgd::common::Median(all_slowdown);
  const auto slowdown_of = [&](std::size_t second) {
    const std::vector<double>& in = slowdown_by_second[std::min(second, knn_by_second.size())];
    return in.empty() ? figures.slowdown : dmfsgd::common::Median(in);
  };
  std::vector<double> second_p50;
  std::vector<double> second_p99;
  std::vector<double> raw_p50;
  std::vector<double> raw_p99;
  for (std::size_t s = 0; s < knn_by_second.size(); ++s) {
    // Only whole seconds: a partial last second has too few samples.
    if (knn_by_second[s].size() >= kMinSecondSamples) {
      const LatencySummary summary = SummarizeLatency(knn_by_second[s]);
      raw_p50.push_back(summary.p50);
      raw_p99.push_back(summary.p99);
      second_p50.push_back(summary.p50 / slowdown_of(s));
      second_p99.push_back(summary.p99 / slowdown_of(s));
    }
  }
  if (!second_p99.empty()) {
    figures.knn_fast_second_p50 = dmfsgd::common::Percentile(second_p50, kFastSecond);
    figures.knn_fast_second_p99 = dmfsgd::common::Percentile(second_p99, kFastSecond);
    figures.raw_fast_second_p50 = dmfsgd::common::Percentile(raw_p50, kFastSecond);
    figures.raw_fast_second_p99 = dmfsgd::common::Percentile(raw_p99, kFastSecond);
  }
  const auto applied = static_cast<double>(pass.after.ingests - pass.before.ingests);
  double cpu_s = 0.0;
  double reference_cpu_s = 0.0;
  for (std::size_t r = 0; r < pass.ingests.size(); ++r) {
    cpu_s += pass.ingest_cpu_s[r];
    reference_cpu_s += pass.ingest_cpu_s[r] /
                       slowdown_of(static_cast<std::size_t>(pass.ingests[r].due));
  }
  figures.ingest_capacity = applied / reference_cpu_s;
  figures.raw_ingest_capacity = applied / cpu_s;
  figures.level = SummarizeLatency(level);
  figures.ingest = SummarizeLatency(ingest);
  figures.lag = SummarizeLatency(lag);
  const std::size_t tenth = lag.size() / 10;
  if (tenth > 0) {
    const std::span<const double> all_lag(lag);
    figures.lag_growth_ms = dmfsgd::common::Median(all_lag.last(tenth)) -
                            dmfsgd::common::Median(all_lag.first(tenth));
  }
  return figures;
}

/// True when the call [start, end] overlapped an ingest call, which holds
/// the service's lock exclusively.  Ingest calls run one after another on
/// one thread, so their end times ascend.
bool OverlapsWriter(const std::vector<RequestTiming>& ingests, double start,
                    double end) {
  const auto writer = std::lower_bound(
      ingests.begin(), ingests.end(), start,
      [](const RequestTiming& t, double s) { return t.end < s; });
  return writer != ingests.end() && writer->start < end;
}

void RecordLockLayers(const Pass& pass, const Figures& figures, Outcome& outcome) {
  std::vector<double> query_call;
  std::vector<double> query_queue;
  std::vector<double> overlap;
  std::vector<double> quiet;
  for (const auto& thread : pass.queries) {
    for (const RequestTiming& t : thread) {
      query_call.push_back(t.CallMs());
      query_queue.push_back(t.LagMs());
      (OverlapsWriter(pass.ingests, t.start, t.end) ? overlap : quiet)
          .push_back(t.CallMs());
    }
  }
  std::vector<double> ingest_call;
  std::vector<double> refresh;
  std::vector<double> epoch;
  double ingest_busy_s = 0.0;
  for (std::size_t r = 0; r < pass.ingests.size(); ++r) {
    const RequestTiming& t = pass.ingests[r];
    ingest_call.push_back(t.CallMs());
    ingest_busy_s += t.end - t.start;
    if (pass.ingest_refreshed[r]) {
      refresh.push_back(t.CallMs());
    }
    if (pass.ingest_epoch[r]) {
      epoch.push_back(t.CallMs());
    }
  }
  auto& m = outcome.metrics;
  const double refreshes =
      static_cast<double>(pass.after.index_refreshes - pass.before.index_refreshes);
  const double relinks =
      static_cast<double>(pass.after.index_relinks - pass.before.index_relinks);
  m["ann.relinks"] = relinks;
  m["ann.rebuilds"] =
      static_cast<double>(pass.after.index_rebuilds - pass.before.index_rebuilds);
  m["ann.relinks_per_refresh"] = refreshes > 0 ? relinks / refreshes : 0.0;
  m["svc.ingest.refresh_calls"] = static_cast<double>(refresh.size());
  m["svc.ingest.refresh_ms_p50"] = SummarizeLatency(refresh).p50;
  const LatencySummary calls = SummarizeLatency(query_call);
  m["svc.query.calls"] = static_cast<double>(calls.count);
  m["svc.query.call_ms_p50"] = calls.p50;
  m["svc.query.call_ms_p99"] = calls.p99;
  m["svc.query.queue_ms_p99"] = SummarizeLatency(query_queue).p99;
  m["svc.query.writer_overlap_frac"] =
      calls.count > 0 ? static_cast<double>(overlap.size()) / calls.count : 0.0;
  m["svc.query.writer_overlap_ms_p99"] = SummarizeLatency(overlap).p99;
  m["svc.query.quiet_ms_p99"] = SummarizeLatency(quiet).p99;
  m["svc.ingest.calls"] = static_cast<double>(ingest_call.size());
  m["svc.ingest.call_ms_p50"] = SummarizeLatency(ingest_call).p50;
  m["svc.ingest.busy_frac"] = ingest_busy_s / pass.wall_s;
  m["svc.staleness_max"] = static_cast<double>(pass.staleness_max);
  m["svc.ingest.epoch_calls"] = static_cast<double>(epoch.size());
  m["svc.ingest.epoch_ms_p50"] = SummarizeLatency(epoch).p50;
  m["loadgen.lag_ms_p99"] = figures.lag.p99;
  m["serve.level_p99_ms"] = figures.level.p99;
  m["serve.ingest_p99_ms"] = figures.ingest.p99;
  m["latency.samples"] = static_cast<double>(figures.knn.count);
}

/// The same query list through a standalone index over the service's store
/// and options, on the now-quiescent service.
void RecordIndexLayer(const CoordinateService& service, const Inputs& inputs,
                      Outcome& outcome) {
  const Clock::time_point start = Clock::now();
  const dmfsgd::ann::PeerIndex index(service.store(), service.config().index);
  outcome.metrics["ann.build_s"] = SecondsBetween(start, Clock::now());
  const std::uint64_t evaluations = index.ScoreEvaluations();
  std::vector<double> search_us;
  Tally tally;
  for (const auto& pairs : inputs.query_pairs) {
    for (std::size_t r = 0; r < pairs.size() && search_us.size() < kAnnQueries;
         r += 2) {
      const Clock::time_point begin = Clock::now();
      const auto result =
          index.SearchFrom(pairs[r].first, kPeers, service.DefaultOrdering());
      search_us.push_back(SecondsBetween(begin, Clock::now()) * 1e6);
      tally.Check(ValidPeers(result, pairs[r].first),
                  "serve: standalone PeerIndex answer is malformed");
    }
  }
  outcome.Merge(tally);
  const LatencySummary search = SummarizeLatency(search_us);
  outcome.metrics["ann.search_us_p50"] = search.p50;
  outcome.metrics["ann.search_us_p99"] = search.p99;
  outcome.metrics["ann.score_evals_per_query"] =
      search.count > 0
          ? static_cast<double>(index.ScoreEvaluations() - evaluations) /
                static_cast<double>(search.count)
          : 0.0;
}

/// Checks on the quiescent service: exact-mode answers equal the oracle
/// bit for bit; recall@10 of the default beam; held-out AUC.
void CheckQuiescent(const Deployment& deployment, std::uint64_t seed,
                    Outcome& outcome) {
  const CoordinateService& service = *deployment.service;
  const dmfsgd::core::CoordinateStore& store = service.store();
  const auto ordering = service.DefaultOrdering();
  dmfsgd::common::Rng pick(StreamSeed(seed, 40));
  double recall = 0.0;
  for (std::size_t q = 0; q < kRecallQueries; ++q) {
    const auto i = static_cast<std::size_t>(pick.UniformInt(kNodes));
    const auto approx = service.QueryNearestPeers(i, kPeers);
    const auto oracle = dmfsgd::eval::BruteForceKnnAll(store, i, kPeers, ordering);
    recall += dmfsgd::eval::RecallAtK(approx, oracle);
    outcome.Check(ValidPeers(approx, i), "serve: quiescent k-NN answer is malformed");
  }
  outcome.metrics["serve.recall_at_10"] = recall / kRecallQueries;
  for (std::size_t q = 0; q < kExactQueries; ++q) {
    const auto i = static_cast<std::size_t>(pick.UniformInt(kNodes));
    const auto exact = service.QueryNearestPeers(i, kPeers, kNodes);
    const auto oracle = dmfsgd::eval::BruteForceKnnAll(store, i, kPeers, ordering);
    outcome.Check(exact.ids == oracle.ids && exact.scores == oracle.scores,
                  "serve: exact-mode QueryNearestPeers differs from "
                  "eval::BruteForceKnnAll");
  }
  outcome.metrics["auc"] = HeldOutAuc(
      *deployment.dataset, service.config().tau, kAucPairs, StreamSeed(seed, 41),
      [&](std::size_t i, std::size_t j) {
        return service.engine().IsNeighborPair(i, j);
      },
      [&](std::size_t i, std::size_t j) { return service.QueryScore(i, j); });
}

void RecordSpans(const Pass& pass, const RunOptions& options, Outcome& outcome) {
  const Clock::time_point origin = Clock::now();  // spans are pass-relative
  std::vector<SpanLog> logs;
  const auto record = [&](const std::vector<RequestTiming>& timings,
                          auto&& root_of, auto&& call_of) {
    SpanLog& log = logs.emplace_back(origin);
    for (std::size_t r = 0; r < timings.size(); ++r) {
      const RequestTiming& t = timings[r];
      const std::int64_t root = log.Open(root_of(r), AtOffset(origin, t.due));
      log.Add(call_of(r), AtOffset(origin, t.start), AtOffset(origin, t.end));
      log.Close(root, AtOffset(origin, t.end));
    }
  };
  logs.reserve(kQueryThreads + 1);
  record(pass.ingests, [](std::size_t) { return "serve.ingest"; },
         [](std::size_t) { return "svc.IngestProbe"; });
  for (const auto& thread : pass.queries) {
    record(thread,
           [](std::size_t r) { return r % 2 == 0 ? "serve.knn" : "serve.level"; },
           [](std::size_t r) {
             return r % 2 == 0 ? "svc.QueryNearestPeers" : "svc.QueryLevel";
           });
  }
  std::vector<const SpanLog*> views;
  std::size_t spans = 0;
  for (const SpanLog& log : logs) {
    views.push_back(&log);
    spans += log.spans().size();
  }
  outcome.metrics["trace.spans"] = static_cast<double>(spans);
  WriteSpans(options.trace_file, options.run_id, views);
}

/// Removes the run's snapshot directories however the run ends.
struct ScratchDir {
  std::filesystem::path path;
  ~ScratchDir() {
    std::error_code error;
    std::filesystem::remove_all(path, error);
  }
};

}  // namespace

Outcome RunServe(const RunOptions& options) {
  Outcome outcome;
  const ScratchDir scratch{options.work_dir / (options.run_id + "-snapshots")};
  // Every thread of the run shares one core.  Spread over several, each
  // request's wake-up and each lock hand-off waited for the host to schedule
  // a sleeping virtual CPU again, and the latency tail moved by a quarter
  // between runs of the same code.
  PinToCurrentCpu();
  // A traced run spends half its time untraced, then half traced.
  const double pass_s = options.trace ? options.seconds / 2 : options.seconds;
  const Inputs untraced_inputs = MakeInputs(StreamSeed(options.seed, 100), pass_s);
  const Inputs traced_inputs = options.trace
                                   ? MakeInputs(StreamSeed(options.seed, 200), pass_s)
                                   : Inputs{};

  Calibration calibration;
  std::vector<double> setup_s;  // raw
  std::vector<double> setup_ref_s;  // at reference speed
  std::vector<double> construct_s;
  std::vector<double> warmup_s;
  Deployment deployment;
  std::filesystem::path snapshot_dir;
  for (std::size_t k = 0; k < kSetups; ++k) {
    TearDown(deployment);
    snapshot_dir = scratch.path / std::to_string(k);
    std::filesystem::remove_all(snapshot_dir);
    const SetUpTime time =
        TimeSetUp(calibration, [&] { deployment = SetUp(snapshot_dir); });
    setup_s.push_back(time.raw_s);
    setup_ref_s.push_back(time.reference_s);
    construct_s.push_back(deployment.construct_s);
    warmup_s.push_back(deployment.warmup_s);
  }
  CoordinateService& service = *deployment.service;

  const Pass pass = RunPass(service, untraced_inputs, false, outcome);
  const Figures figures = Summarize(pass);
  auto& m = outcome.metrics;
  auto& d = outcome.details;
  m["setup_s"] = dmfsgd::common::Median(setup_ref_s);
  m["latency_p50_ms"] = figures.knn_fast_second_p50;
  m["latency_p99_ms"] = figures.knn_fast_second_p99;
  // Ingest capacity: measurements applied per CPU-second the ingest thread
  // spends inside IngestProbe, at reference speed.  The offered rate is
  // fixed by the schedule, so measurements over wall time would read
  // ~1024/s whatever ingest costs.  Wall time inside IngestProbe also holds
  // lock and disk waits, and the host's steal time, which moved it by 2x
  // between runs on a shared machine.
  m["measurements_per_s"] = figures.ingest_capacity;
  double ingest_wall_s = 0.0;
  for (const RequestTiming& t : pass.ingests) {
    ingest_wall_s += t.end - t.start;
  }
  d["host.slowdown"] = figures.slowdown;
  d["samples.calibration"] = static_cast<double>(pass.slowdown.size());
  d["raw.setup_s"] = dmfsgd::common::Median(setup_s);
  d["raw.latency_p50_ms"] = figures.raw_fast_second_p50;
  d["raw.latency_p99_ms"] = figures.raw_fast_second_p99;
  d["raw.measurements_per_s"] = figures.raw_ingest_capacity;
  d["serve.offered_measurements_per_s"] =
      static_cast<double>(pass.after.ingests - pass.before.ingests) / pass.wall_s;
  d["serve.ingest_wall_s"] = ingest_wall_s;
  m["svc.setup.construct_s"] = dmfsgd::common::Median(construct_s);
  m["svc.setup.warmup_s"] = dmfsgd::common::Median(warmup_s);
  d["samples.latency"] = static_cast<double>(figures.knn.count);
  d["samples.latency_beyond_p99"] = static_cast<double>(figures.knn.beyond_p99);
  d["samples.level"] = static_cast<double>(figures.level.count);
  d["samples.ingest"] = static_cast<double>(figures.ingest.count);
  d["serve.knn_p99_ms"] = figures.knn.p99;
  d["serve.level_p99_ms"] = figures.level.p99;
  d["serve.ingest_p99_ms"] = figures.ingest.p99;
  d["serve.nodes"] = kNodes;

  const Pass* last = &pass;
  Figures last_figures = figures;
  Pass traced;
  if (options.trace) {
    traced = RunPass(service, traced_inputs, true, outcome);
    last = &traced;
    last_figures = Summarize(traced);
    RecordLockLayers(traced, last_figures, outcome);
    m["trace.overhead_ms"] = last_figures.knn.p50 - figures.knn.p50;
    m["trace.overhead_frac"] =
        (last_figures.knn.p50 - figures.knn.p50) / figures.knn.p50;
    RecordSpans(traced, options, outcome);
    RecordIndexLayer(service, traced_inputs, outcome);
  }
  const bool overloaded = std::max(figures.lag_growth_ms, last_figures.lag_growth_ms) >
                          kOverloadLagGrowthMs;
  m["loadgen.overloaded"] = overloaded ? 1.0 : 0.0;
  d["loadgen.lag_growth_ms"] = last_figures.lag_growth_ms;
  if (overloaded) {
    outcome.notes["loadgen"] =
        "overloaded: generator lag kept growing; latencies are not at the offered rate";
  }

  CheckQuiescent(deployment, options.seed, outcome);
  m["svc.snapshot.bytes"] = static_cast<double>(DirectoryBytes(snapshot_dir));
  d["serve.recall_at_10"] = m["serve.recall_at_10"];
  d["svc.snapshot.bytes"] = m["svc.snapshot.bytes"];
  d["svc.staleness_max"] = static_cast<double>(last->staleness_max);
  TearDown(deployment);
  return outcome;
}

}  // namespace perfbench
