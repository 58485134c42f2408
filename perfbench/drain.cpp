#include "drain.hpp"

#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/thread_pool.hpp"
#include "core/async_simulation.hpp"
#include "core/delivery.hpp"
#include "netsim/fault_channel.hpp"
#include "netsim/reliable_channel.hpp"
#include "netsim/shard_runtime.hpp"

namespace perfbench {

namespace netsim = dmfsgd::netsim;
namespace core = dmfsgd::core;

// Member order is teardown order in reverse: the runtime goes before the
// channels it drives, each channel before the one beneath it, and the
// simulation (whose queue the runtime holds) last.
struct DrainDeployment::Process {
  explicit Process(Clock::time_point origin) : spans(origin) {}

  SpanLog spans;
  std::unique_ptr<core::AsyncDmfsgdSimulation> simulation;
  std::unique_ptr<netsim::LoopbackInterShardChannel> loopback;
  std::unique_ptr<netsim::FaultInjectingInterShardChannel> fault;
  std::unique_ptr<LinkCountingChannel> link;
  std::unique_ptr<netsim::ReliableInterShardChannel> reliable;
  std::unique_ptr<netsim::InterShardChannel> wrapper;
  std::unique_ptr<TimingChannel> timing;
  std::unique_ptr<netsim::ShardRuntime> runtime;
  std::unique_ptr<dmfsgd::common::ThreadPool> pool;
  double busy_s = 0.0;
};

DrainDeployment::DrainDeployment(const dmfsgd::datasets::Dataset& dataset,
                                 double tau, DrainSpec spec)
    : spec_(std::move(spec)),
      tracing_(spec_.traced),
      hub_(std::make_unique<netsim::LoopbackInterShardHub>(kProcesses)) {
  core::AsyncSimulationConfig config;
  config.base.tau = tau;
  config.base.seed = StreamSeed(spec_.seed, 2);
  config.shard_count = kShards;
  const Clock::time_point origin = Clock::now();
  for (std::size_t p = 0; p < kProcesses; ++p) {
    auto process = std::make_unique<Process>(origin);
    const Clock::time_point start = Clock::now();
    process->simulation =
        std::make_unique<core::AsyncDmfsgdSimulation>(dataset, config);
    const Clock::time_point built = Clock::now();
    const netsim::LookaheadMatrix& lookaheads =
        process->simulation->PairLookaheads();
    construct_s_ += SecondsBetween(start, built);
    lookahead_s_ += SecondsBetween(built, Clock::now());

    process->loopback =
        std::make_unique<netsim::LoopbackInterShardChannel>(*hub_, p);
    netsim::InterShardChannel* top = process->loopback.get();
    if (spec_.link == Link::kLossy) {
      netsim::FaultChannelOptions faults;
      faults.outbound.drop_rate = 0.05;
      faults.seed = StreamSeed(spec_.seed, 50 + p);
      process->fault =
          std::make_unique<netsim::FaultInjectingInterShardChannel>(*top, faults);
      top = process->fault.get();
    }
    if (spec_.traced) {
      process->link = std::make_unique<LinkCountingChannel>(*top);
      top = process->link.get();
    }
    process->reliable = std::make_unique<netsim::ReliableInterShardChannel>(*top);
    top = process->reliable.get();
    if (spec_.wrap_above_reliable) {
      process->wrapper = spec_.wrap_above_reliable(p, *top);
      top = process->wrapper.get();
    }
    if (spec_.traced) {
      process->timing = std::make_unique<TimingChannel>(*top, process->spans);
      top = process->timing.get();
    }
    core::ShardedEventQueueDeliveryChannel& delivery =
        process->simulation->ShardedChannel();
    process->runtime = std::make_unique<netsim::ShardRuntime>(
        process->simulation->MutableEvents(), *top, lookaheads,
        [&delivery](netsim::ShardedEventQueue::OwnerId owner,
                    std::vector<std::byte> payload) {
          return delivery.DecodeEnvelopeCallback(owner, std::move(payload));
        });
    // Same merger rule as core::RunMultiprocessAsyncSimulation.
    if (config.base.coalesce_delivery) {
      process->runtime->SetRemoteEventMerger(
          &core::ShardedEventQueueDeliveryChannel::MergeEnvelopesIfReplies);
    }
    process->pool = std::make_unique<dmfsgd::common::ThreadPool>(1);
    processes_.push_back(std::move(process));
  }
}

DrainDeployment::~DrainDeployment() = default;

void DrainDeployment::RunProcess(std::size_t p, double until_s) {
  Process& process = *processes_[p];
  const Clock::time_point start = Clock::now();
  const std::int64_t span =
      tracing_ ? process.spans.Open("netsim.drain", start) : -1;
  process.simulation->RunUntilDistributed(until_s, *process.pool,
                                          *process.runtime);
  const Clock::time_point end = Clock::now();
  if (tracing_) {
    process.spans.Close(span, end);
  }
  process.busy_s += SecondsBetween(start, end);
}

void DrainDeployment::RunUntil(double until_s) {
  std::atomic<std::size_t> returned{0};
  std::vector<std::exception_ptr> errors(kProcesses);
  auto run = [&](std::size_t p) {
    try {
      RunProcess(p, until_s);
    } catch (...) {
      errors[p] = std::current_exception();
    }
    returned.fetch_add(1);
    // A process that returned keeps servicing its reliable channel until the
    // peer has returned too, as a live process would: ShardRuntime's final
    // Flush waits for acks, and a peer that went quiet the moment its own
    // frames were acked would strand this one's retransmission until the
    // stall timeout whenever its last ack is lost.  The peer sends no new
    // data before the next step, so nothing may surface here.
    while (returned.load() < kProcesses) {
      if (processes_[p]->reliable->Receive(1).has_value() && !errors[p]) {
        errors[p] = std::make_exception_ptr(
            std::logic_error("drain: data frame arrived between steps"));
      }
    }
  };
  std::thread peer(run, 1);
  run(0);
  peer.join();
  // A peer that died first is the cause; this process stalling on it is
  // the symptom.
  for (std::size_t p = kProcesses; p-- > 0;) {
    if (errors[p]) {
      std::rethrow_exception(errors[p]);
    }
  }
}

void DrainDeployment::SetTracing(bool on) {
  tracing_ = on && spec_.traced;
  for (const auto& process : processes_) {
    if (process->timing) {
      process->timing->SetEnabled(tracing_);
    }
  }
}

double DrainDeployment::Now() const {
  return processes_.front()->simulation->Now();
}

std::uint64_t DrainDeployment::Measurements() const {
  std::uint64_t total = 0;
  for (const auto& process : processes_) {
    total += process->simulation->MeasurementCount();
  }
  return total;
}

std::uint64_t DrainDeployment::Events() const {
  std::uint64_t total = 0;
  for (const auto& process : processes_) {
    total += process->simulation->EventsExecuted();
  }
  return total;
}

std::uint64_t DrainDeployment::Windows() const {
  return processes_.front()->simulation->WindowsExecuted();
}

DrainLayers DrainDeployment::Layers() const {
  DrainLayers layers;
  for (const auto& process : processes_) {
    if (process->timing) {
      const TimingChannel::Stats& stats = process->timing->stats();
      layers.runtime.send_calls += stats.send_calls;
      layers.runtime.send_s += stats.send_s;
      layers.runtime.bytes_sent += stats.bytes_sent;
      layers.runtime.recv_calls += stats.recv_calls;
      layers.runtime.recv_wait_s += stats.recv_wait_s;
      layers.runtime.recv_timeouts += stats.recv_timeouts;
      layers.runtime.flush_calls += stats.flush_calls;
      layers.runtime.flush_s += stats.flush_s;
    }
    if (process->link) {
      layers.link_frames += process->link->frames();
      layers.link_bytes += process->link->bytes();
    }
    if (process->fault) {
      layers.fault_dropped += process->fault->FramesDropped();
    }
    layers.runtime_frames += process->runtime->FramesSent();
    layers.retransmits += process->reliable->Retransmits();
    layers.duplicates += process->reliable->DuplicatesSuppressed();
    layers.standalone_acks += process->reliable->StandaloneAcksSent();
    layers.busy_s += process->busy_s;
  }
  return layers;
}

std::vector<const SpanLog*> DrainDeployment::SpanLogs() const {
  std::vector<const SpanLog*> logs;
  for (const auto& process : processes_) {
    logs.push_back(&process->spans);
  }
  return logs;
}

std::size_t DrainDeployment::Rank() const {
  return processes_.front()->simulation->config().rank;
}

void DrainDeployment::Fold(std::vector<double>& u, std::vector<double>& v) {
  const std::size_t n = processes_.front()->simulation->NodeCount();
  const std::size_t rank = Rank();
  u.assign(n * rank, 0.0);
  v.assign(n * rank, 0.0);
  for (const auto& process : processes_) {
    netsim::ShardedEventQueue& events = process->simulation->MutableEvents();
    const std::size_t first = events.OwnersOfShard(events.OwnedShardBegin()).first;
    const std::size_t last =
        events.OwnersOfShard(events.OwnedShardEnd() - 1).second;
    const core::CoordinateStore& store = process->simulation->engine().store();
    for (std::size_t i = first; i < last; ++i) {
      std::copy(store.U(i).begin(), store.U(i).end(), u.begin() + i * rank);
      std::copy(store.V(i).begin(), store.V(i).end(), v.begin() + i * rank);
    }
  }
}

bool DrainDeployment::IsTrainingPair(std::size_t i, std::size_t j) const {
  return processes_.front()->simulation->IsNeighborPair(i, j);
}

}  // namespace perfbench
