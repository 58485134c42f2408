#include "core/simulation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dmfsgd::core {

DmfsgdSimulation::DmfsgdSimulation(const datasets::Dataset& dataset,
                                   const SimulationConfig& config,
                                   const ErrorInjector* injector)
    : engine_(dataset, config, injector,
              StackChannel(immediate_, wire_, config.use_wire_format)) {}

void DmfsgdSimulation::RunRounds(std::size_t rounds) {
  const std::size_t n = engine_.NodeCount();
  const std::size_t burst = engine_.config().probe_burst;
  if (!wire_.has_value() && burst == 1) {
    for (std::size_t round = 0; round < rounds; ++round) {
      engine_.SequentialRoundSweep();  // includes the churn sweep
    }
    return;
  }
  for (std::size_t round = 0; round < rounds; ++round) {
    engine_.ChurnSweep();
    for (NodeId i = 0; i < n; ++i) {
      for (std::size_t b = 0; b < burst; ++b) {
        const NodeId j = engine_.PickNeighbor(i);
        engine_.StartExchange(i, j, std::nullopt);
      }
    }
  }
}

void DmfsgdSimulation::RunRoundsParallel(std::size_t rounds,
                                         common::ThreadPool& pool) {
  for (std::size_t round = 0; round < rounds; ++round) {
    engine_.ParallelRoundSweep(pool);  // includes the churn sweep
  }
}

std::size_t DmfsgdSimulation::ReplayTrace(std::size_t begin, std::size_t end) {
  const auto& trace = engine_.dataset().trace;
  if (trace.empty()) {
    throw std::logic_error("DmfsgdSimulation::ReplayTrace: dataset has no trace");
  }
  end = std::min(end, trace.size());
  if (begin > end) {
    throw std::invalid_argument("DmfsgdSimulation::ReplayTrace: begin > end");
  }
  std::size_t applied = 0;
  for (std::size_t r = begin; r < end; ++r) {
    const datasets::TraceRecord& record = trace[r];
    // A passively observed measurement is usable only when the observing
    // node actually keeps the other endpoint in its neighbor set.
    if (!engine_.IsNeighborPair(record.src, record.dst)) {
      continue;
    }
    const std::size_t before = engine_.MeasurementCount();
    engine_.StartExchange(record.src, record.dst, record.value);
    if (engine_.MeasurementCount() > before) {
      ++applied;
    }
  }
  return applied;
}

std::size_t DmfsgdSimulation::ReplayTrace() {
  return ReplayTrace(0, engine_.dataset().trace.size());
}

bool DmfsgdSimulation::Ingest(NodeId i, NodeId j,
                              std::optional<double> observed_quantity) {
  // Written so NaN fails: a NaN or infinite observation would train its way
  // into every coordinate it touches.  The bound matches the dataset
  // loaders' "trace value must be positive".
  if (observed_quantity.has_value() &&
      !(std::isfinite(*observed_quantity) && *observed_quantity > 0.0)) {
    throw std::invalid_argument(
        "DmfsgdSimulation::Ingest: observed quantity must be finite and > 0");
  }
  const std::size_t before = engine_.MeasurementCount();
  engine_.StartExchange(i, j, observed_quantity);
  return engine_.MeasurementCount() > before;
}

NodeId DmfsgdSimulation::IngestProbe(NodeId i) {
  const NodeId j = engine_.PickNeighbor(i);
  (void)Ingest(i, j, std::nullopt);
  return j;
}

}  // namespace dmfsgd::core
