// BENCH_core.json: the hot-path perf record of the repo.
//
// Multi-scenario suite over the three layers of the numerical hot path, all
// measured with warmup + min-of-k (see bench::MeasureMinOfK — single-shot
// numbers are not allowed into the trajectory record):
//
//   sgd_update/*       one eq. 9-10 update per measurement — the operation
//                      every deployment runs millions of times.  Compares
//                      the frozen seed baseline (per-node heap vectors +
//                      the seed's checked span kernels) against the current
//                      fused-kernel SoA path (DotPair + DecayAxpy through
//                      DmfsgdNode).
//   predict_matrix/*   the O(n²r) full-matrix sweep behind offline
//                      evaluation (PredictAll + EvaluateFullMatrix), at 1
//                      thread and at hardware concurrency.
//   round_throughput/* end-to-end probing rounds of DmfsgdSimulation —
//                      the sequential sweep (RunRounds, DESIGN.md §14) vs
//                      the parallel deterministic sweep; the alg2-*
//                      variants run the same comparison on a
//                      target-measured (ABW) dataset through the
//                      target-sharded phase schedule; the per-message
//                      variants drive the same rounds as messages, one
//                      IngestProbe per node, against the sweep at
//                      n = 8192 (dense matrix) and n = 65536 (procedural
//                      delay-space ground truth).
//   ann_query/*        k-NN peer queries over live-drifting coordinates
//                      (DESIGN.md §16, §18): the drift-tolerant PeerIndex
//                      (fed by the engine dirty set) vs the brute-force
//                      oracle, at n = 8192 and n = 65536, plus — in full
//                      runs — the IVF-routed n = 10⁶ tier, where the coarse
//                      quantizer replaces the evenly-spaced entry points and
//                      the exact scan is a million dot products per query
//   svc_mixed/*        mixed read/update traffic against the resident
//   svc_ingest/*       svc::CoordinateService (DESIGN.md §17) at the same
//   svc_query/*        tiers: per-query timings give the p50/p99 SLO
//                      scalars, a pure push loop the sustained ingest
//                      throughput, and the end-of-run index staleness is
//                      recorded against its budget (--svc-ratio sets the
//                      query:update mix, default 4:1).  The svc_query
//                      scenario (DESIGN.md §18) runs a quiescent query-only
//                      pass through the shared read lock at 1 thread and at
//                      hw threads; their ratio is the parallel-scaling
//                      scalar the multicore CI leg pins.
//   async_drain/*      end-to-end event throughput of AsyncDmfsgdSimulation —
//                      the sequential cross-shard merge vs the parallel
//                      conservative-window drain (DESIGN.md §9) vs the
//                      2-process distributed drain over the loopback
//                      inter-shard channel (DESIGN.md §12); the burst-seq /
//                      coalesced-seq pair runs constant-delay burst traffic
//                      per-message vs through the coalescing channel
//                      (DESIGN.md §13 — same trajectory, fewer events).
//
// Scenarios run at n = 1024 and n = 8192 (--quick keeps only the
// deployment-scale 8192 tier and shrinks repetition counts).  Summary
// scalars record the headline ratios:
//   sgd_update_speedup          fused-SoA vs seed baseline, largest n
//   matrix_parallel_scaling     hw-thread vs 1-thread full-matrix sweep
//   round_parallel_scaling      parallel vs sequential round throughput
//   round_sweep_speedup_n8192   sequential sweep vs per-message rounds
//   round_sweep_speedup_n65536  (> 1 at both tiers)
//   ann_recall_at_10            mean recall@10 of the updated index against
//                               the fresh-coordinate oracle at n = 65536
//                               (CI pins >= 0.9; the _n8192 scalar records
//                               the small tier, _n1m the IVF-routed
//                               million-node tier — 0 under --quick)
//   ann_qps_speedup             index vs brute-force query throughput at
//                               n = 65536 (> 1; _n8192 records the small
//                               tier, where the scan is cache-resident and
//                               the gap is smaller; _n1m the million-node
//                               tier, where it is widest)
//   ann_index_build_seconds_n1m wall-clock build of the n = 10⁶ graph +
//                               coarse layer (capacity planning scalar)
//   svc_query_parallel_scaling  hw-thread vs 1-thread quiescent query
//                               throughput through the service's shared
//                               read lock, n = 65536 tier (1.0 on
//                               single-core hosts)
//   alg2_round_parallel_scaling same, Algorithm-2 phase schedule, largest n
//   async_drain_parallel_scaling parallel vs sequential event drain, largest n
//   async_distributed_scaling   2-process distributed vs sequential drain
//   async_pair_lookahead_window_gain windows(global-min) / windows(per-pair)
//                               on a two-cluster delay space (>= 1; wider
//                               windows mean fewer barriers)
//   async_coalesced_event_gain  events(per-message) / events(coalesced) on
//                               constant-delay burst traffic, largest n
//                               (> 1; bit-identical results)
//   async_coalesced_throughput  coalesced vs per-message drain ops/s
//   async_intershard_frame_gain frames(per-message) / frames(merged reply
//                               envelopes) on the 2-process loopback drain
//                               with MTU-sized frames (DESIGN.md §13)
//   intershard_retransmit_overhead  raw-link / reliable-link distributed
//                               throughput minus 1 at 0 % loss — what the
//                               seq/ack/retransmit bookkeeping costs when
//                               nothing needs repair (CI pins < 5 %;
//                               DESIGN.md §15)
//   intershard_lossy_window_throughput  fraction of raw distributed
//                               throughput retained while the reliability
//                               layer repairs a seeded 5 %-drop link
//   async_shards                event-queue shard count the drain used
//   hw_threads                  hardware concurrency the scaling used
//
// Usage: bench_core [output.json] [--quick]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ann/peer_index.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/async_simulation.hpp"
#include "core/coordinate_store.hpp"
#include "core/multiprocess.hpp"
#include "core/node.hpp"
#include "core/simulation.hpp"
#include "core/snapshot.hpp"
#include "datasets/clusters.hpp"
#include "datasets/dataset.hpp"
#include "datasets/procedural.hpp"
#include "eval/brute_force_knn.hpp"
#include "eval/regression_metrics.hpp"
#include "harness.hpp"
#include "netsim/fault_channel.hpp"
#include "netsim/inter_shard_channel.hpp"
#include "netsim/reliable_channel.hpp"
#include "netsim/shard_runtime.hpp"
#include "svc/coordinate_service.hpp"

namespace {

using namespace dmfsgd;

constexpr std::size_t kRank = 10;

// ------------------------------------------------------------------------
// Seed baseline, frozen.  These are the seed's checked span kernels and its
// per-node-vector layout, kept verbatim so sgd_update/per-node-vector keeps
// measuring the same baseline every PR regardless of what src/linalg grows.

double SeedDot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("Dot: size mismatch");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

void SeedAxpy(double alpha, std::span<const double> x, std::span<double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("Axpy: size mismatch");
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += alpha * x[i];
  }
}

void SeedScale(double alpha, std::span<double> x) noexcept {
  for (double& v : x) {
    v *= alpha;
  }
}

/// The pre-refactor node layout: two independently heap-allocated vectors.
struct LegacyNode {
  std::vector<double> u;
  std::vector<double> v;
};

/// One eq. 9-10 style update — identical arithmetic to DmfsgdNode::RttUpdate
/// with the logistic loss, expressed in the seed's two-pass Scale+Axpy form.
void LegacyRttUpdate(std::span<double> u, std::span<double> v, double x,
                     std::span<const double> u_remote,
                     std::span<const double> v_remote,
                     const core::UpdateParams& params) {
  const double x_hat_ij = SeedDot(u, v_remote);
  const double g_u = core::LossGradientScale(params.loss, x, x_hat_ij);
  const double x_hat_ji = SeedDot(u_remote, v);
  const double g_v = core::LossGradientScale(params.loss, x, x_hat_ji);
  SeedScale(1.0 - params.eta * params.lambda, u);
  SeedAxpy(-params.eta * g_u, v_remote, u);
  SeedScale(1.0 - params.eta * params.lambda, v);
  SeedAxpy(-params.eta * g_v, u_remote, v);
}

/// The sweep's remote pick: pseudo-random, never self (the update kernels'
/// non-aliasing contract), identical across layouts.
std::size_t RemoteOf(std::size_t i, std::size_t round, std::size_t n) {
  std::size_t j = (i * 7 + round) % n;
  if (j == i) {
    j = (j + 1) % n;
  }
  return j;
}

// ------------------------------------------------------------------------
// Scenario: SGD update sweep.

bench::BenchJsonEntry SgdLegacy(std::size_t n, std::size_t sweeps,
                                std::size_t repeats) {
  common::Rng rng(1);
  const core::UpdateParams params;
  // Interleave a decoy allocation per node, reproducing the heap scatter a
  // long-lived deployment accumulates between coordinate vectors.
  std::vector<LegacyNode> nodes(n);
  std::vector<std::vector<double>> decoys;
  decoys.reserve(n);
  for (auto& node : nodes) {
    node.u.resize(kRank);
    node.v.resize(kRank);
    decoys.emplace_back(64, 0.0);
    for (std::size_t d = 0; d < kRank; ++d) {
      node.u[d] = rng.Uniform();
      node.v[d] = rng.Uniform();
    }
  }
  double label = 1.0;
  return bench::MeasureMinOfK(
      "sgd_update/per-node-vector/n" + std::to_string(n), n * sweeps,
      /*warmup=*/1, repeats, [&] {
        for (std::size_t round = 0; round < sweeps; ++round) {
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t j = RemoteOf(i, round, n);
            LegacyRttUpdate(nodes[i].u, nodes[i].v, label, nodes[j].u,
                            nodes[j].v, params);
            label = -label;
          }
        }
      });
}

bench::BenchJsonEntry SgdFusedSoa(std::size_t n, std::size_t sweeps,
                                  std::size_t repeats) {
  common::Rng rng(1);
  const core::UpdateParams params;
  core::CoordinateStore store(n, kRank);
  std::vector<core::DmfsgdNode> nodes;
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes.emplace_back(static_cast<core::NodeId>(i), store, i, rng);
  }
  double label = 1.0;
  return bench::MeasureMinOfK(
      "sgd_update/fused-soa/n" + std::to_string(n), n * sweeps,
      /*warmup=*/1, repeats, [&] {
        for (std::size_t round = 0; round < sweeps; ++round) {
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t j = RemoteOf(i, round, n);
            nodes[i].RttUpdate(label, store.U(j), store.V(j), params);
            label = -label;
          }
        }
      });
}

// ------------------------------------------------------------------------
// Scenario: full-matrix predict + evaluate sweep.

bench::BenchJsonEntry MatrixSweep(std::size_t n, std::size_t threads,
                                  std::size_t repeats) {
  common::Rng rng(2);
  core::CoordinateStore store(n, kRank);
  for (std::size_t i = 0; i < n; ++i) {
    store.RandomizeRow(i, rng);
  }
  // Synthetic RTT-like ground truth (NaN diagonal) for the accuracy pass.
  std::vector<double> actual(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      actual[i * n + j] = i == j ? linalg::Matrix::kMissing
                                 : rng.Uniform(10.0, 400.0);
    }
  }
  common::ThreadPool pool(threads);
  // The predictions buffer is allocated once outside the timed body so the
  // scenario times the O(n²r) compute sweep, not 500 MB of allocator work.
  std::vector<double> predictions(n * n);
  // Volatile sink defeats dead-code elimination across repetitions.
  volatile double sink = 0.0;
  return bench::MeasureMinOfK(
      "predict_matrix/threads-" + std::to_string(threads) + "/n" +
          std::to_string(n),
      n * n, /*warmup=*/1, repeats, [&] {
        core::PredictAllInto(store, predictions, &pool);
        const auto summary =
            eval::EvaluateFullMatrix(predictions, actual, n, &pool);
        sink = sink + summary.stress;
      });
}

// ------------------------------------------------------------------------
// Scenario: end-to-end round throughput.

datasets::Dataset MakeSyntheticRtt(std::size_t n, std::uint64_t seed) {
  datasets::Dataset dataset;
  dataset.name = "bench-synthetic-rtt";
  dataset.metric = datasets::Metric::kRtt;
  dataset.ground_truth = linalg::Matrix(n, n, linalg::Matrix::kMissing);
  common::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double rtt = rng.Uniform(10.0, 400.0);
      dataset.ground_truth(i, j) = rtt;
      dataset.ground_truth(j, i) = rtt;
    }
  }
  return dataset;
}

/// Asymmetric ABW-like ground truth so the round driver exercises the
/// Algorithm-2 (target-measured) exchange path.
datasets::Dataset MakeSyntheticAbw(std::size_t n, std::uint64_t seed) {
  datasets::Dataset dataset;
  dataset.name = "bench-synthetic-abw";
  dataset.metric = datasets::Metric::kAbw;
  dataset.ground_truth = linalg::Matrix(n, n, linalg::Matrix::kMissing);
  common::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        dataset.ground_truth(i, j) = rng.Uniform(5.0, 100.0);
      }
    }
  }
  return dataset;
}

core::SimulationConfig RoundConfig() {
  core::SimulationConfig config;
  config.rank = kRank;
  config.neighbor_count = 10;
  config.tau = 150.0;
  config.seed = 7;
  return config;
}

/// RoundConfig with tau landed inside the dataset's value range, so both
/// drain variants of a scenario train on the same class balance.
core::SimulationConfig RoundConfigFor(const datasets::Dataset& dataset) {
  core::SimulationConfig config = RoundConfig();
  if (dataset.metric == datasets::Metric::kAbw) {
    config.tau = 50.0;
  }
  return config;
}

bench::BenchJsonEntry RoundSequential(const datasets::Dataset& dataset,
                                      const std::string& label,
                                      std::size_t rounds, std::size_t repeats) {
  core::DmfsgdSimulation simulation(dataset, RoundConfigFor(dataset));
  return bench::MeasureMinOfK(
      "round_throughput/" + label + "sequential/n" +
          std::to_string(dataset.NodeCount()),
      rounds * dataset.NodeCount(), /*warmup=*/1, repeats,
      [&] { simulation.RunRounds(rounds); });
}

bench::BenchJsonEntry RoundParallel(const datasets::Dataset& dataset,
                                    const std::string& label,
                                    std::size_t rounds, std::size_t threads,
                                    std::size_t repeats) {
  core::DmfsgdSimulation simulation(dataset, RoundConfigFor(dataset));
  common::ThreadPool pool(threads);
  return bench::MeasureMinOfK(
      "round_throughput/" + label + "parallel-hw/n" +
          std::to_string(dataset.NodeCount()),
      rounds * dataset.NodeCount(), /*warmup=*/1, repeats,
      [&] { simulation.RunRoundsParallel(rounds, pool); });
}

/// The rounds RoundSequential times, driven as messages: one IngestProbe
/// per node per round through the immediate channel.  RoundConfig has no
/// churn, so these are exactly the message-driven rounds the sweep
/// reproduces, drawing the same stream.
bench::BenchJsonEntry RoundPerMessage(const datasets::Dataset& dataset,
                                      std::size_t rounds, std::size_t repeats) {
  core::DmfsgdSimulation simulation(dataset, RoundConfigFor(dataset));
  const std::size_t n = dataset.NodeCount();
  return bench::MeasureMinOfK(
      "round_throughput/per-message/n" + std::to_string(n), rounds * n,
      /*warmup=*/1, repeats, [&] {
        for (std::size_t round = 0; round < rounds; ++round) {
          for (std::size_t i = 0; i < n; ++i) {
            (void)simulation.IngestProbe(static_cast<core::NodeId>(i));
          }
        }
      });
}

// ------------------------------------------------------------------------
// Scenario: asynchronous event-drain throughput.

core::AsyncSimulationConfig AsyncConfig(std::size_t shards) {
  core::AsyncSimulationConfig config;
  config.base = RoundConfig();
  config.mean_probe_interval_s = 1.0;
  config.shard_count = shards;
  return config;
}

/// Advances one simulation by `horizon_s` per timed pass; items = expected
/// probe exchanges in a pass (n per simulated second at the 1 s mean
/// interval), identical for both drain modes so the ratio is honest.
bench::BenchJsonEntry AsyncDrainSequential(const datasets::Dataset& dataset,
                                           std::size_t shards, double horizon_s,
                                           std::size_t repeats) {
  core::AsyncDmfsgdSimulation simulation(dataset, AsyncConfig(shards));
  return bench::MeasureMinOfK(
      "async_drain/sequential/n" + std::to_string(dataset.NodeCount()),
      static_cast<std::size_t>(horizon_s) * dataset.NodeCount(), /*warmup=*/1,
      repeats, [&] { simulation.RunUntil(simulation.Now() + horizon_s); });
}

bench::BenchJsonEntry AsyncDrainParallel(const datasets::Dataset& dataset,
                                         std::size_t shards,
                                         std::size_t threads, double horizon_s,
                                         std::size_t repeats) {
  core::AsyncDmfsgdSimulation simulation(dataset, AsyncConfig(shards));
  common::ThreadPool pool(threads);
  return bench::MeasureMinOfK(
      "async_drain/parallel-hw/n" + std::to_string(dataset.NodeCount()),
      static_cast<std::size_t>(horizon_s) * dataset.NodeCount(), /*warmup=*/1,
      repeats,
      [&] { simulation.RunUntilParallel(simulation.Now() + horizon_s, pool); });
}

/// Link stacking for the distributed-drain scenarios (DESIGN.md §15):
/// the raw loopback hub, the reliability decorator at zero loss (its pure
/// bookkeeping overhead), or the reliability decorator repairing a seeded
/// 5 %-drop fault injector.
enum class LinkMode { kRaw, kReliable, kLossyReliable };

/// The distributed drain (DESIGN.md §12) as two loopback "processes" on two
/// threads, each windowing the same deployment in lock step over the
/// inter-shard channel.  Measures end-to-end event throughput including the
/// full barrier/event-batch protocol, so the ratio against the sequential
/// drain records what the channel machinery costs (1-core hosts) or buys
/// (multi-core hosts).
bench::BenchJsonEntry AsyncDrainDistributed(const datasets::Dataset& dataset,
                                            std::size_t shards,
                                            double horizon_s,
                                            std::size_t repeats,
                                            LinkMode link = LinkMode::kRaw,
                                            const char* label =
                                                "distributed-2proc") {
  constexpr std::size_t kProcesses = 2;
  netsim::LoopbackInterShardHub hub(kProcesses);
  struct Process {
    std::unique_ptr<core::AsyncDmfsgdSimulation> simulation;
    std::unique_ptr<netsim::LoopbackInterShardChannel> channel;
    std::unique_ptr<netsim::FaultInjectingInterShardChannel> fault;
    std::unique_ptr<netsim::ReliableInterShardChannel> reliable;
    netsim::InterShardChannel* top = nullptr;
    std::unique_ptr<netsim::ShardRuntime> runtime;
    std::unique_ptr<common::ThreadPool> pool;
  };
  std::vector<Process> processes(kProcesses);
  for (std::size_t p = 0; p < kProcesses; ++p) {
    Process& process = processes[p];
    process.simulation = std::make_unique<core::AsyncDmfsgdSimulation>(
        dataset, AsyncConfig(shards));
    process.channel =
        std::make_unique<netsim::LoopbackInterShardChannel>(hub, p);
    process.top = process.channel.get();
    if (link == LinkMode::kLossyReliable) {
      netsim::FaultChannelOptions faults;
      faults.outbound.drop_rate = 0.05;
      faults.seed = 0xbe9c + p;
      process.fault = std::make_unique<netsim::FaultInjectingInterShardChannel>(
          *process.top, faults);
      process.top = process.fault.get();
    }
    if (link != LinkMode::kRaw) {
      netsim::ReliableChannelOptions reliable;
      if (link == LinkMode::kLossyReliable) {
        // Loopback RTT is microseconds; a LAN-tuned RTO would serialize the
        // bench behind 40 ms retransmit waits instead of measuring the
        // protocol, so the lossy leg recovers at loopback speed.
        reliable.initial_rto_ms = 5;
        reliable.ack_delay_ms = 2;
      }
      process.reliable = std::make_unique<netsim::ReliableInterShardChannel>(
          *process.top, reliable);
      process.top = process.reliable.get();
    }
    core::ShardedEventQueueDeliveryChannel& delivery =
        process.simulation->ShardedChannel();
    process.runtime = std::make_unique<netsim::ShardRuntime>(
        process.simulation->MutableEvents(), *process.top,
        process.simulation->PairLookaheads(),
        [&delivery](netsim::ShardedEventQueue::OwnerId owner,
                    std::vector<std::byte> payload) {
          return delivery.DecodeEnvelopeCallback(owner, std::move(payload));
        });
    process.pool = std::make_unique<common::ThreadPool>(1);
  }
  return bench::MeasureMinOfK(
      "async_drain/" + std::string(label) + "/n" +
          std::to_string(dataset.NodeCount()),
      static_cast<std::size_t>(horizon_s) * dataset.NodeCount(), /*warmup=*/1,
      repeats, [&] {
        const double until = processes[0].simulation->Now() + horizon_s;
        // Exceptions (stall timeout, lookahead violation) must reach main's
        // error reporting, not std::terminate: capture the peer's, and join
        // before letting process 0's propagate.
        std::exception_ptr peer_error;
        std::thread peer([&] {
          try {
            processes[1].simulation->RunUntilDistributed(
                until, *processes[1].pool, *processes[1].runtime);
          } catch (...) {
            peer_error = std::current_exception();
          }
        });
        try {
          processes[0].simulation->RunUntilDistributed(
              until, *processes[0].pool, *processes[0].runtime);
        } catch (...) {
          peer.join();
          if (peer_error) {
            // The peer died first; process 0's failure (usually a stall
            // waiting for the corpse) is the symptom, not the cause.
            std::rethrow_exception(peer_error);
          }
          throw;
        }
        peer.join();
        if (peer_error) {
          std::rethrow_exception(peer_error);
        }
      });
}

/// Constant-delay burst traffic: every one-way delay is exactly 0.05 s, so
/// a burst's replies converge on the prober at one instant and the
/// coalescing channel merges them into one event (DESIGN.md §13).
core::AsyncSimulationConfig BurstAsyncConfig(std::size_t shards,
                                             bool coalesce) {
  core::AsyncSimulationConfig config = AsyncConfig(shards);
  config.base.tau = 50.0;  // ABW range
  config.base.probe_burst = 8;
  config.base.coalesce_delivery = coalesce;
  config.min_oneway_delay_s = 0.05;
  config.max_oneway_delay_s = 0.05;
  return config;
}

/// Sequential drain of burst traffic, per-message vs coalesced.  Both modes
/// run the same simulated traffic (bit-identical results, pinned by
/// core_coalesced_drain_test); the coalesced drain executes fewer events —
/// `events_out` accumulates EventsExecuted across the warmup + repeats so
/// the caller can form the event-count gain from identical run counts.
bench::BenchJsonEntry AsyncDrainBurst(const datasets::Dataset& dataset,
                                      const std::string& label, bool coalesce,
                                      double horizon_s, std::size_t repeats,
                                      std::uint64_t* events_out) {
  core::AsyncDmfsgdSimulation simulation(dataset,
                                         BurstAsyncConfig(1, coalesce));
  auto entry = bench::MeasureMinOfK(
      "async_drain/" + label + "/n" + std::to_string(dataset.NodeCount()),
      static_cast<std::size_t>(horizon_s) * dataset.NodeCount() * 8,
      /*warmup=*/1, repeats,
      [&] { simulation.RunUntil(simulation.Now() + horizon_s); });
  *events_out = simulation.EventsExecuted();
  return entry;
}

/// Inter-shard frame gain of envelope coalescing (DESIGN.md §13): the same
/// 2-process loopback distributed drain with MTU-sized frames, per-message
/// vs merged reply envelopes; the ratio is coordinator frames(per-message) /
/// frames(coalesced) >= 1.  Results are bit-identical either way (pinned by
/// core_multiprocess_drain_test).
double InterShardFrameGain(std::size_t n, double horizon_s) {
  const auto dataset = MakeSyntheticAbw(n, 11);
  netsim::ShardRuntimeOptions options;
  options.max_frame_bytes = 1400;
  auto run = [&](bool coalesce) {
    constexpr std::size_t kProcesses = 2;
    core::AsyncSimulationConfig config = BurstAsyncConfig(2, coalesce);
    config.mean_probe_interval_s = 0.25;  // dense windows
    netsim::LoopbackInterShardHub hub(kProcesses);
    std::vector<core::MultiprocessRunReport> reports(kProcesses);
    std::exception_ptr peer_error;
    std::thread peer([&] {
      try {
        netsim::LoopbackInterShardChannel channel(hub, 1);
        common::ThreadPool pool(1);
        reports[1] = core::RunMultiprocessAsyncSimulation(
            dataset, config, channel, horizon_s, pool, options);
      } catch (...) {
        peer_error = std::current_exception();
      }
    });
    netsim::LoopbackInterShardChannel channel(hub, 0);
    common::ThreadPool pool(1);
    reports[0] = core::RunMultiprocessAsyncSimulation(dataset, config, channel,
                                                      horizon_s, pool, options);
    peer.join();
    if (peer_error) {
      std::rethrow_exception(peer_error);
    }
    return reports[0].frames_sent + reports[1].frames_sent;
  };
  const std::uint64_t per_message = run(false);
  const std::uint64_t coalesced = run(true);
  return static_cast<double>(per_message) / static_cast<double>(coalesced);
}

// ------------------------------------------------------------------------
// Scenario: ANN query plane (DESIGN.md §16).

/// Recall and query throughput of the drift-tolerant PeerIndex against the
/// brute-force oracle on *live-drifting* coordinates: train, index, keep
/// training so the snapshots go stale, drain the engine dirty set into the
/// index, then measure k-NN queries against the fresh store.  Recall is
/// computed against the fresh-coordinate oracle (the staleness acceptance
/// of the query plane), throughput with warmup + min-of-k over one shared
/// deterministic query sample.
struct AnnPlaneResult {
  bench::BenchJsonEntry brute;
  bench::BenchJsonEntry index;
  double recall_at_10 = 0.0;
  double build_seconds = 0.0;  ///< wall-clock of the index construction
};

/// Tier-scaled index options (DESIGN.md §18): the query beam widens with
/// n, and past 65536 the IVF coarse quantizer takes over entry-point
/// routing — at n = 10⁶ a flat evenly-spaced walk has to cross the whole
/// delay space, while 16 probes of 1024 k-means cells land the beam in the
/// right region for ~1k centroid dots.
ann::PeerIndexOptions AnnOptionsForTier(std::size_t n) {
  ann::PeerIndexOptions options;
  // The canonical record pins recall@10 >= 0.9 at n = 65536 and n = 10⁶;
  // at n = 8192 the library default already holds the floor and a wider
  // beam would just erode the gap against the cache-resident scan.
  options.ef_search = n > 8192 ? 192 : 96;
  if (n > 65536) {
    options.ef_search = 512;
    options.ivf_cells = 1024;
    options.ivf_nprobe = 16;
  }
  return options;
}

AnnPlaneResult AnnQueryPlane(const datasets::Dataset& dataset,
                             std::size_t train_rounds,
                             std::size_t drift_rounds, std::size_t repeats,
                             common::ThreadPool* oracle_pool) {
  core::DmfsgdSimulation simulation(dataset, RoundConfigFor(dataset));
  simulation.RunRounds(train_rounds);
  simulation.EnableDriftTracking();
  (void)simulation.TakeDirtyNodes();  // index from here; discard history
  const core::CoordinateStore& store = simulation.engine().store();
  const ann::PeerIndexOptions options = AnnOptionsForTier(dataset.NodeCount());
  const auto build_start = std::chrono::steady_clock::now();
  ann::PeerIndex index(store, options);
  const auto build_stop = std::chrono::steady_clock::now();
  simulation.RunRounds(drift_rounds);
  (void)index.ApplyUpdates(simulation.TakeDirtyNodes());

  const std::size_t n = store.NodeCount();
  // The million-node tier keeps the query sample small: every recall query
  // also runs the exact oracle (n dot products even when pooled).
  const std::size_t query_count =
      std::min<std::size_t>(n > 65536 ? 128 : 256, n);
  std::vector<std::size_t> queries;
  queries.reserve(query_count);
  for (std::size_t q = 0; q < query_count; ++q) {
    queries.push_back(q * (n / query_count));
  }

  AnnPlaneResult result;
  result.build_seconds =
      std::chrono::duration<double>(build_stop - build_start).count();
  constexpr std::size_t kK = 10;
  double recall_sum = 0.0;
  for (const std::size_t q : queries) {
    const auto approx =
        index.SearchFrom(q, kK, eval::KnnOrdering::kSmallestFirst);
    const auto oracle = eval::BruteForceKnnAll(
        store, q, kK, eval::KnnOrdering::kSmallestFirst, oracle_pool);
    recall_sum += eval::RecallAtK(approx, oracle);
  }
  result.recall_at_10 = recall_sum / static_cast<double>(queries.size());

  volatile double sink = 0.0;
  result.brute = bench::MeasureMinOfK(
      "ann_query/brute-force/n" + std::to_string(n), queries.size(),
      /*warmup=*/1, repeats, [&] {
        for (const std::size_t q : queries) {
          sink = sink + eval::BruteForceKnnAll(
                            store, q, kK, eval::KnnOrdering::kSmallestFirst)
                            .scores[0];
        }
      });
  result.index = bench::MeasureMinOfK(
      "ann_query/index/n" + std::to_string(n), queries.size(),
      /*warmup=*/1, repeats, [&] {
        for (const std::size_t q : queries) {
          sink = sink +
                 index.SearchFrom(q, kK, eval::KnnOrdering::kSmallestFirst)
                     .scores[0];
        }
      });
  return result;
}

// ------------------------------------------------------------------------
// Scenario: the resident coordinate service under mixed traffic
// (DESIGN.md §17).

struct SvcPlaneResult {
  bench::BenchJsonEntry mixed;
  bench::BenchJsonEntry ingest;
  bench::BenchJsonEntry query_single;
  std::optional<bench::BenchJsonEntry> query_parallel;  // hw > 1 only
  double query_p50_ms = 0.0;
  double query_p99_ms = 0.0;
  double staleness = 0.0;
  double parallel_scaling = 1.0;  ///< hw-thread qps / 1-thread qps
};

/// Mixed read/update traffic against a resident CoordinateService:
/// `query_ratio` k-NN queries ride along with every measurement ingest, and
/// every query is individually timed for the p50/p99 SLO scalars (sampled
/// from the final timed pass, the service's steady state).  The staleness
/// budget is one probing round (n ingests), so the warm-up rounds exercise
/// the index-absorb path and svc_coord_staleness stays bounded by it.
/// A quiescent query-only pass then runs at 1 thread and at `hw` threads
/// (each worker owns a contiguous node slice through the shared-lock query
/// plane, DESIGN.md §18) — their ratio is svc_query_parallel_scaling.
SvcPlaneResult SvcMixedTraffic(const datasets::Dataset& dataset,
                               std::size_t warm_rounds, std::size_t ops,
                               std::size_t query_ratio, std::size_t repeats,
                               std::size_t hw) {
  const core::SimulationConfig round_config = RoundConfigFor(dataset);
  svc::ServiceConfig config;
  static_cast<core::ProtocolConfig&>(config) = round_config;
  config.mode = round_config.mode;
  config.neighbor_count = round_config.neighbor_count;
  const std::size_t n = dataset.NodeCount();
  config.staleness_budget = n;
  // Same tier-scaled beam (and, at n = 10⁶, coarse quantizer) as the
  // ann_query scenario.
  config.index = AnnOptionsForTier(n);
  svc::CoordinateService service(dataset, config);
  service.IngestRounds(warm_rounds);

  SvcPlaneResult result;
  constexpr std::size_t kK = 10;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(ops);
  volatile double sink = 0.0;
  std::size_t cursor = 0;
  result.mixed = bench::MeasureMinOfK(
      "svc_mixed/n" + std::to_string(n), ops, /*warmup=*/1, repeats, [&] {
        latencies_ms.clear();  // keep only the final (steady-state) pass
        for (std::size_t op = 0; op < ops; ++op) {
          const auto node = static_cast<core::NodeId>(++cursor * 7919 % n);
          if (op % (query_ratio + 1) == 0) {
            (void)service.IngestProbe(node);
          } else {
            const auto start = std::chrono::steady_clock::now();
            sink = sink + service.QueryNearestPeers(node, kK).scores[0];
            const auto stop = std::chrono::steady_clock::now();
            latencies_ms.push_back(
                std::chrono::duration<double, std::milli>(stop - start)
                    .count());
          }
        }
      });
  result.query_p50_ms = common::Percentile(latencies_ms, 50.0);
  result.query_p99_ms = common::Percentile(latencies_ms, 99.0);

  const std::size_t ingest_ops = std::min<std::size_t>(5000, 10 * n);
  result.ingest = bench::MeasureMinOfK(
      "svc_ingest/n" + std::to_string(n), ingest_ops, /*warmup=*/1, repeats,
      [&] {
        for (std::size_t op = 0; op < ingest_ops; ++op) {
          (void)service.IngestProbe(
              static_cast<core::NodeId>(++cursor * 7919 % n));
        }
      });
  result.staleness = static_cast<double>(service.CurrentStaleness());

  // Parallel query scaling on the now-quiescent service: the same k-NN
  // query list through 1 thread and through hw threads sharing the read
  // lock.  Answers are bit-identical either way (the concurrent-query
  // tests pin that); only the throughput differs.
  const std::size_t query_ops = std::min<std::size_t>(n > 65536 ? 256 : 512, n);
  std::vector<core::NodeId> query_nodes;
  query_nodes.reserve(query_ops);
  for (std::size_t q = 0; q < query_ops; ++q) {
    query_nodes.push_back(static_cast<core::NodeId>(q * (n / query_ops)));
  }
  result.query_single = bench::MeasureMinOfK(
      "svc_query/n" + std::to_string(n) + "/threads-1", query_ops,
      /*warmup=*/1, repeats, [&] {
        for (const core::NodeId node : query_nodes) {
          sink = sink + service.QueryNearestPeers(node, kK).scores[0];
        }
      });
  if (hw > 1) {
    result.query_parallel = bench::MeasureMinOfK(
        "svc_query/n" + std::to_string(n) + "/threads-" + std::to_string(hw),
        query_ops, /*warmup=*/1, repeats, [&] {
          std::vector<double> partial(hw, 0.0);
          std::vector<std::thread> workers;
          workers.reserve(hw);
          for (std::size_t t = 0; t < hw; ++t) {
            workers.emplace_back([&, t] {
              const auto [begin, end] =
                  common::BlockRange(query_nodes.size(), hw, t);
              double local = 0.0;
              for (std::size_t q = begin; q < end; ++q) {
                local += service.QueryNearestPeers(query_nodes[q], kK).scores[0];
              }
              partial[t] = local;
            });
          }
          for (std::thread& worker : workers) {
            worker.join();
          }
          for (const double p : partial) {
            sink = sink + p;
          }
        });
    result.parallel_scaling =
        result.query_parallel->ops_per_sec / result.query_single.ops_per_sec;
  }
  return result;
}

/// Window-width gain of the per-shard-pair lookahead matrix on a
/// heterogeneous delay space: identical seeds drained with the matrix and,
/// under a one-process ShardRuntime, with the uniform global-min lookahead;
/// the gain is windows(global) / windows(per-pair) >= 1 (results are
/// bit-identical either way — the matrix only widens windows, DESIGN.md
/// §12).
double PairLookaheadWindowGain(std::size_t n, std::size_t shards,
                               double horizon_s) {
  datasets::TwoClusterRttConfig cluster_config;
  cluster_config.node_count = n;
  const datasets::Dataset dataset = datasets::MakeTwoClusterRtt(cluster_config);
  common::ThreadPool pool(1);
  core::AsyncDmfsgdSimulation uniform_run(dataset, AsyncConfig(shards));
  netsim::LoopbackInterShardHub hub(1);
  netsim::LoopbackInterShardChannel channel(hub, 0);
  core::ShardedEventQueueDeliveryChannel& delivery = uniform_run.ShardedChannel();
  netsim::ShardRuntime uniform_runtime(
      uniform_run.MutableEvents(), channel,
      netsim::LookaheadMatrix(uniform_run.ShardCount(),
                              uniform_run.LookaheadSeconds()),
      [&delivery](netsim::ShardedEventQueue::OwnerId owner,
                  std::vector<std::byte> payload) {
        return delivery.DecodeEnvelopeCallback(owner, std::move(payload));
      });
  uniform_run.RunUntilDistributed(horizon_s, pool, uniform_runtime);
  core::AsyncDmfsgdSimulation pairwise_run(dataset, AsyncConfig(shards));
  pairwise_run.RunUntilParallel(horizon_s, pool);
  return static_cast<double>(uniform_run.WindowsExecuted()) /
         static_cast<double>(pairwise_run.WindowsExecuted());
}

}  // namespace

int main(int argc, char** argv) {
  std::string output = "BENCH_core.json";
  bool quick = false;
  std::size_t svc_ratio = 4;  // k-NN queries per measurement ingest
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--svc-ratio=", 0) == 0) {
      svc_ratio = static_cast<std::size_t>(std::stoul(arg.substr(12)));
    } else {
      output = arg;
    }
  }

  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  const std::size_t repeats = quick ? 3 : 5;
  // The layout/fusion difference is partly a cache effect: it only fully
  // shows once the factor working set outgrows L2, so the headline ratios
  // come from the largest tier and even --quick keeps the deployment-scale
  // n = 8192 (it drops the small tier and shrinks repetition counts).
  const std::vector<std::size_t> tiers =
      quick ? std::vector<std::size_t>{8192} : std::vector<std::size_t>{1024, 8192};
  const std::size_t n_large = tiers.back();
  // The SGD sweep also runs a 65536 tier (factor working set ~10 MB — far
  // past every cache level); the matrix sweep can't follow it there, its n²
  // buffers would need ~68 GB, so the tier list splits here.
  std::vector<std::size_t> sgd_tiers = tiers;
  sgd_tiers.push_back(65536);

  std::vector<bench::BenchJsonEntry> entries;
  double sgd_speedup = 0.0;
  double matrix_scaling = 0.0;

  for (const std::size_t n : sgd_tiers) {
    // ~1M updates per timed pass regardless of tier.
    const std::size_t sweeps = std::max<std::size_t>(1, 1000000 / n);
    const auto legacy = SgdLegacy(n, sweeps, repeats);
    const auto fused = SgdFusedSoa(n, sweeps, repeats);
    entries.push_back(legacy);
    entries.push_back(fused);
    // The headline ratio stays pinned to the deployment-scale 8192 tier the
    // trajectory has always recorded; the 65536 tier is extra coverage.
    if (n == n_large) {
      sgd_speedup = fused.ops_per_sec / legacy.ops_per_sec;
    }
  }

  for (const std::size_t n : tiers) {
    const std::size_t matrix_repeats = n >= 8192 ? 3 : repeats;
    const auto matrix_single = MatrixSweep(n, 1, matrix_repeats);
    entries.push_back(matrix_single);
    bench::BenchJsonEntry matrix_hw = matrix_single;
    if (hw > 1) {
      matrix_hw = MatrixSweep(n, hw, matrix_repeats);
      entries.push_back(matrix_hw);
    }
    if (n == n_large) {
      matrix_scaling = matrix_hw.ops_per_sec / matrix_single.ops_per_sec;
    }
  }

  const std::size_t rounds = quick ? 10 : 30;
  double round_scaling = 0.0;
  {
    const auto dataset = MakeSyntheticRtt(1024, 3);
    const auto round_seq = RoundSequential(dataset, "", rounds, repeats);
    const auto round_par = RoundParallel(dataset, "", rounds, hw, repeats);
    entries.push_back(round_seq);
    entries.push_back(round_par);
    round_scaling = round_par.ops_per_sec / round_seq.ops_per_sec;
  }

  // The sequential sweep vs the same rounds driven as messages
  // (DESIGN.md §14), at the deployment tier (dense synthetic matrix) and at
  // 65536 nodes (procedural delay-space ground truth — a dense matrix would
  // be ~34 GB).
  double sweep_speedup_8192 = 0.0;
  double sweep_speedup_65536 = 0.0;
  for (const std::size_t n : {std::size_t{8192}, std::size_t{65536}}) {
    datasets::Dataset dataset;
    if (n > 8192) {
      datasets::EuclideanRttConfig euclid;
      euclid.node_count = n;
      euclid.seed = 3;
      dataset = datasets::MakeEuclideanRtt(euclid);
    } else {
      dataset = MakeSyntheticRtt(n, 3);
    }
    const std::size_t sweep_rounds = quick ? 5 : 10;
    const auto sweep = RoundSequential(dataset, "", sweep_rounds, repeats);
    const auto per_message = RoundPerMessage(dataset, sweep_rounds, repeats);
    entries.push_back(sweep);
    entries.push_back(per_message);
    (n > 8192 ? sweep_speedup_65536 : sweep_speedup_8192) =
        sweep.ops_per_sec / per_message.ops_per_sec;
  }

  // ANN query plane (DESIGN.md §16, §18): recall@10 against the fresh-
  // coordinate oracle and index-vs-scan query throughput on live-drifting
  // coordinates.  Two headline tiers follow the round sweep (the CI
  // floors — recall >= 0.9, speedup > 1 — come from n = 65536), and the
  // full run adds the n = 10⁶ tier: IVF-routed queries where an exact scan
  // is a million dot products, plus the index build-time scalar.  --quick
  // skips the million-node tier (it is minutes of index builds; the
  // multicore CI leg and the tracked record run it).
  double ann_recall_8192 = 0.0;
  double ann_recall_65536 = 0.0;
  double ann_speedup_8192 = 0.0;
  double ann_speedup_65536 = 0.0;
  double ann_recall_1m = 0.0;
  double ann_speedup_1m = 0.0;
  double ann_build_seconds_1m = 0.0;
  common::ThreadPool oracle_pool(hw);
  std::vector<std::size_t> ann_tiers{8192, 65536};
  if (!quick) {
    ann_tiers.push_back(1000000);
  }
  for (const std::size_t n : ann_tiers) {
    datasets::Dataset dataset;
    if (n > 8192) {
      datasets::EuclideanRttConfig euclid;
      euclid.node_count = n;
      euclid.seed = 3;
      dataset = datasets::MakeEuclideanRtt(euclid);
    } else {
      dataset = MakeSyntheticRtt(n, 3);
    }
    // The million-node tier trims training and drift (each round is 10⁶
    // SGD probes, each rebuild a full graph construction) and keeps
    // min-of-k short; the recall sample is already reduced in-scenario.
    const std::size_t train_rounds = quick ? 15 : (n > 65536 ? 10 : 30);
    const std::size_t drift_rounds = n > 65536 ? 2 : 5;
    const std::size_t ann_repeats =
        n > 65536 ? std::min<std::size_t>(repeats, 2) : repeats;
    const auto ann_result = AnnQueryPlane(dataset, train_rounds, drift_rounds,
                                          ann_repeats, &oracle_pool);
    entries.push_back(ann_result.brute);
    entries.push_back(ann_result.index);
    const double speedup =
        ann_result.index.ops_per_sec / ann_result.brute.ops_per_sec;
    if (n > 65536) {
      ann_recall_1m = ann_result.recall_at_10;
      ann_speedup_1m = speedup;
      ann_build_seconds_1m = ann_result.build_seconds;
    } else if (n > 8192) {
      ann_recall_65536 = ann_result.recall_at_10;
      ann_speedup_65536 = speedup;
    } else {
      ann_recall_8192 = ann_result.recall_at_10;
      ann_speedup_8192 = speedup;
    }
  }

  // Resident-service SLO (DESIGN.md §17): mixed read/update traffic against
  // svc::CoordinateService at the same two tiers as the query plane.  The
  // p50/p99 query latencies, sustained ingest throughput and the end-of-run
  // index staleness become the svc_* scalars the service-slo CI leg pins
  // (p99 recorded and positive, staleness finite and within budget).
  double svc_p50_8192 = 0.0, svc_p50_65536 = 0.0;
  double svc_p99_8192 = 0.0, svc_p99_65536 = 0.0;
  double svc_ingest_8192 = 0.0, svc_ingest_65536 = 0.0;
  double svc_stale_8192 = 0.0, svc_stale_65536 = 0.0;
  double svc_query_parallel_scaling = 1.0;
  for (const std::size_t n : ann_tiers) {
    datasets::Dataset dataset;
    if (n > 8192) {
      datasets::EuclideanRttConfig euclid;
      euclid.node_count = n;
      euclid.seed = 3;
      dataset = datasets::MakeEuclideanRtt(euclid);
    } else {
      dataset = MakeSyntheticRtt(n, 3);
    }
    // Warm-up rounds are index rebuilds (the whole membership drifts), so
    // the bigger tiers keep them short; --quick shortens both.
    const std::size_t warm_rounds =
        quick ? 2 : (n > 65536 ? 1 : (n > 8192 ? 2 : 10));
    const std::size_t ops =
        quick ? 500 : (n > 65536 ? 400 : (n > 8192 ? 1000 : 2000));
    const std::size_t svc_repeats =
        n > 65536 ? 2 : std::min<std::size_t>(repeats, 3);
    const auto svc_result =
        SvcMixedTraffic(dataset, warm_rounds, ops, svc_ratio, svc_repeats, hw);
    entries.push_back(svc_result.mixed);
    entries.push_back(svc_result.ingest);
    entries.push_back(svc_result.query_single);
    if (svc_result.query_parallel) {
      entries.push_back(*svc_result.query_parallel);
    }
    // The headline parallel-scaling scalar comes from the n = 65536 tier
    // (present in both quick and full runs); single-core hosts record 1.0.
    if (n == 65536) {
      svc_query_parallel_scaling = svc_result.parallel_scaling;
    }
    if (n > 65536) {
      // The million-node tier contributes the shared-lock query entries;
      // the svc_* latency scalars stay pinned to the two headline tiers.
    } else if (n > 8192) {
      svc_p50_65536 = svc_result.query_p50_ms;
      svc_p99_65536 = svc_result.query_p99_ms;
      svc_ingest_65536 = svc_result.ingest.ops_per_sec;
      svc_stale_65536 = svc_result.staleness;
    } else {
      svc_p50_8192 = svc_result.query_p50_ms;
      svc_p99_8192 = svc_result.query_p99_ms;
      svc_ingest_8192 = svc_result.ingest.ops_per_sec;
      svc_stale_8192 = svc_result.staleness;
    }
  }

  // Algorithm-2 rounds (target-sharded phases) and the async event drain run
  // per tier; datasets are scoped so only one n² ground truth is live.
  double alg2_scaling = 0.0;
  double async_scaling = 0.0;
  double async_distributed_scaling = 0.0;
  double async_coalesced_event_gain = 0.0;
  double async_coalesced_throughput = 0.0;
  for (const std::size_t n : tiers) {
    {
      const auto abw = MakeSyntheticAbw(n, 11);
      const auto alg2_seq = RoundSequential(abw, "alg2-", rounds, repeats);
      const auto alg2_par = RoundParallel(abw, "alg2-", rounds, hw, repeats);
      entries.push_back(alg2_seq);
      entries.push_back(alg2_par);
      if (n == n_large) {
        alg2_scaling = alg2_par.ops_per_sec / alg2_seq.ops_per_sec;
      }
    }
    {
      const auto rtt = MakeSyntheticRtt(n, 3);
      const double horizon_s = quick ? 5.0 : 15.0;
      const auto drain_seq = AsyncDrainSequential(rtt, hw, horizon_s, repeats);
      const auto drain_par =
          AsyncDrainParallel(rtt, hw, hw, horizon_s, repeats);
      entries.push_back(drain_seq);
      entries.push_back(drain_par);
      // The distributed drain needs >= 2 shards (one block per process).
      const auto drain_dist = AsyncDrainDistributed(
          rtt, std::max<std::size_t>(2, hw), horizon_s, repeats);
      entries.push_back(drain_dist);
      if (n == n_large) {
        async_scaling = drain_par.ops_per_sec / drain_seq.ops_per_sec;
        async_distributed_scaling =
            drain_dist.ops_per_sec / drain_seq.ops_per_sec;
      }
    }
    {
      // Batched message plane (DESIGN.md §13): constant-delay burst traffic
      // through the coalescing channel vs the per-message path — same
      // trajectory, fewer events per simulated second.
      const auto abw = MakeSyntheticAbw(n, 11);
      const double horizon_s = quick ? 3.0 : 8.0;
      std::uint64_t events_burst = 0;
      std::uint64_t events_coalesced = 0;
      const auto burst_seq = AsyncDrainBurst(abw, "burst-seq", false,
                                             horizon_s, repeats, &events_burst);
      const auto coalesced_seq =
          AsyncDrainBurst(abw, "coalesced-seq", true, horizon_s, repeats,
                          &events_coalesced);
      entries.push_back(burst_seq);
      entries.push_back(coalesced_seq);
      if (n == n_large) {
        async_coalesced_event_gain = static_cast<double>(events_burst) /
                                     static_cast<double>(events_coalesced);
        async_coalesced_throughput =
            coalesced_seq.ops_per_sec / burst_seq.ops_per_sec;
      }
    }
  }

  // Reliability-layer cost and loss tolerance (DESIGN.md §15), at the small
  // tier — properties of the channel machinery, not of n.  The raw/reliable/
  // lossy trio shares one config (2 shards, 2 loopback processes) so the
  // ratios isolate the link:
  //   intershard_retransmit_overhead   raw/reliable ops ratio minus 1 at 0 %
  //                                    loss (CI pins this below 5 %)
  //   intershard_lossy_window_throughput  fraction of the raw distributed
  //                                    throughput retained while the
  //                                    reliability layer repairs a seeded
  //                                    5 %-drop link
  double intershard_retransmit_overhead = 0.0;
  double intershard_lossy_window_throughput = 0.0;
  {
    const auto rtt = MakeSyntheticRtt(1024, 3);
    const double horizon_s = quick ? 3.0 : 8.0;
    const auto raw = AsyncDrainDistributed(rtt, 2, horizon_s, repeats,
                                           LinkMode::kRaw,
                                           "distributed-2proc-rawlink");
    const auto reliable = AsyncDrainDistributed(rtt, 2, horizon_s, repeats,
                                                LinkMode::kReliable,
                                                "distributed-2proc-reliable");
    const auto lossy = AsyncDrainDistributed(rtt, 2, horizon_s, repeats,
                                             LinkMode::kLossyReliable,
                                             "distributed-2proc-lossy5");
    entries.push_back(raw);
    entries.push_back(reliable);
    entries.push_back(lossy);
    intershard_retransmit_overhead =
        raw.ops_per_sec / reliable.ops_per_sec - 1.0;
    intershard_lossy_window_throughput = lossy.ops_per_sec / raw.ops_per_sec;
  }

  // Inter-shard frame reduction of merged reply envelopes, measured (not
  // timed) on the 2-process loopback distributed drain with MTU frames.
  const double intershard_frame_gain =
      InterShardFrameGain(1024, quick ? 2.0 : 4.0);

  // Per-pair-lookahead window widths, measured (not timed) on a two-cluster
  // delay space at the small tier — the ratio is a property of the window
  // protocol, not of n.
  const double pair_window_gain =
      PairLookaheadWindowGain(1024, std::max<std::size_t>(2, hw),
                              quick ? 2.0 : 5.0);

  try {
    bench::WriteBenchJson(
        output, entries,
        {{"nodes", static_cast<double>(n_large)},
         {"rank", static_cast<double>(kRank)},
         {"hw_threads", static_cast<double>(hw)},
         {"sgd_update_speedup", sgd_speedup},
         {"matrix_parallel_scaling", matrix_scaling},
         {"round_parallel_scaling", round_scaling},
         {"round_sweep_speedup_n8192", sweep_speedup_8192},
         {"round_sweep_speedup_n65536", sweep_speedup_65536},
         {"ann_recall_at_10", ann_recall_65536},
         {"ann_recall_at_10_n8192", ann_recall_8192},
         {"ann_qps_speedup", ann_speedup_65536},
         {"ann_qps_speedup_n8192", ann_speedup_8192},
         {"ann_recall_at_10_n1m", ann_recall_1m},
         {"ann_qps_speedup_n1m", ann_speedup_1m},
         {"ann_index_build_seconds_n1m", ann_build_seconds_1m},
         {"svc_query_parallel_scaling", svc_query_parallel_scaling},
         {"svc_query_p50_ms", svc_p50_65536},
         {"svc_query_p50_ms_n8192", svc_p50_8192},
         {"svc_query_p99_ms", svc_p99_65536},
         {"svc_query_p99_ms_n8192", svc_p99_8192},
         {"svc_ingest_throughput", svc_ingest_65536},
         {"svc_ingest_throughput_n8192", svc_ingest_8192},
         {"svc_coord_staleness", svc_stale_65536},
         {"svc_coord_staleness_n8192", svc_stale_8192},
         {"svc_staleness_budget", 65536.0},
         {"svc_staleness_budget_n8192", 8192.0},
         {"svc_query_ratio", static_cast<double>(svc_ratio)},
         {"alg2_round_parallel_scaling", alg2_scaling},
         {"async_drain_parallel_scaling", async_scaling},
         {"async_distributed_scaling", async_distributed_scaling},
         {"async_pair_lookahead_window_gain", pair_window_gain},
         {"async_coalesced_event_gain", async_coalesced_event_gain},
         {"async_coalesced_throughput", async_coalesced_throughput},
         {"async_intershard_frame_gain", intershard_frame_gain},
         {"intershard_retransmit_overhead", intershard_retransmit_overhead},
         {"intershard_lossy_window_throughput",
          intershard_lossy_window_throughput},
         {"async_shards", static_cast<double>(hw)}});
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }

  for (const auto& entry : entries) {
    std::printf("%-42s %14.0f ops/s\n", entry.name.c_str(), entry.ops_per_sec);
  }
  std::printf(
      "sgd_update_speedup: %.3fx  matrix_parallel_scaling: %.3fx (hw=%zu)  "
      "round_parallel_scaling: %.3fx  "
      "round_sweep_speedup: n8192 %.3fx, n65536 %.3fx  "
      "ann_recall_at_10: %.3f (n8192 %.3f, n1m %.3f)  "
      "ann_qps_speedup: %.3fx (n8192 %.3fx, n1m %.3fx)  "
      "ann_index_build_seconds_n1m: %.1f  "
      "svc_query_parallel_scaling: %.3fx  "
      "svc_query_p50_ms: %.4f  svc_query_p99_ms: %.4f  "
      "svc_ingest_throughput: %.0f/s  svc_coord_staleness: %.0f  "
      "alg2_round_parallel_scaling: %.3fx  "
      "async_drain_parallel_scaling: %.3fx  async_distributed_scaling: %.3fx  "
      "async_pair_lookahead_window_gain: %.3fx  "
      "async_coalesced_event_gain: %.3fx  async_intershard_frame_gain: %.3fx  "
      "intershard_retransmit_overhead: %.3f  "
      "intershard_lossy_window_throughput: %.3f  "
      "-> %s\n",
      sgd_speedup, matrix_scaling, hw, round_scaling, sweep_speedup_8192,
      sweep_speedup_65536, ann_recall_65536, ann_recall_8192,
      ann_recall_1m, ann_speedup_65536, ann_speedup_8192, ann_speedup_1m,
      ann_build_seconds_1m, svc_query_parallel_scaling, svc_p50_65536,
      svc_p99_65536, svc_ingest_65536, svc_stale_65536, alg2_scaling,
      async_scaling, async_distributed_scaling, pair_window_gain,
      async_coalesced_event_gain, intershard_frame_gain,
      intershard_retransmit_overhead, intershard_lossy_window_throughput,
      output.c_str());
  return 0;
}
