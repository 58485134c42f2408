// Overlay monitoring on a live measurement stream (the Harvard regime).
//
// An Azureus/Vuze-style overlay passively observes application-level RTTs
// with very uneven pair coverage.  This demo is a thin client of the
// resident coordinate service: it pushes the 4-hour dynamic trace through
// the service's ingest plane in timestamp order and reports, for each
// 30-minute window, how the class prediction on *unmeasured* pairs improves
// as measurements accumulate — the service warms up from nothing while the
// overlay runs.
//
// Usage: overlay_monitoring [--nodes=N] [--records=R] [--seed=S]
#include <iostream>

#include "common/table.hpp"
#include "dmfsgd.hpp"

namespace {

int Run(int argc, char** argv) {
  using namespace dmfsgd;

  const common::Flags flags(argc, argv, {"nodes", "records", "seed"});
  const std::size_t nodes = flags.GetSize("nodes", 226);
  const std::size_t records = flags.GetSize("records", 500000);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));

  datasets::HarvardConfig dataset_config;
  dataset_config.node_count = nodes;
  dataset_config.trace_records = records;
  dataset_config.seed = seed;
  const datasets::Dataset dataset = datasets::MakeHarvard(dataset_config);

  svc::ServiceConfig config;
  config.tau = dataset.MedianValue();
  config.seed = seed;
  svc::CoordinateService service(dataset, config);

  std::cout << "overlay with " << nodes << " clients; replaying "
            << dataset.trace.size() << " passive RTT measurements over "
            << dataset.trace.back().timestamp_s / 3600.0 << " hours\n"
            << "tau = " << config.tau << " ms (median)\n\n";

  common::Table table({"window", "records", "usable", "avg meas/node", "AUC",
                       "accuracy %"});

  const double window_s = 1800.0;
  std::size_t cursor = 0;
  std::size_t window_index = 1;
  while (cursor < dataset.trace.size()) {
    // Find the end of this half-hour window and push it into the service.
    std::size_t end = cursor;
    const double window_end = static_cast<double>(window_index) * window_s;
    while (end < dataset.trace.size() &&
           dataset.trace[end].timestamp_s <= window_end) {
      ++end;
    }
    const std::size_t applied = service.IngestTrace(cursor, end);

    // Evaluate on unmeasured pairs after this window.
    eval::CollectOptions options;
    options.max_pairs = 30000;
    const auto pairs = eval::CollectScoredPairs(service.engine(), options);
    const auto scores = eval::Scores(pairs);
    const auto labels = eval::Labels(pairs);

    table.AddRow(
        {"t<" + std::to_string(static_cast<int>(window_end / 60.0)) + "min",
         std::to_string(end - cursor), std::to_string(applied),
         common::FormatFixed(service.engine().AverageMeasurementsPerNode(), 1),
         common::FormatFixed(eval::Auc(scores, labels), 3),
         common::FormatFixed(
             eval::ConfusionFromScores(scores, labels).Accuracy() * 100.0, 1)});
    cursor = end;
    ++window_index;
  }
  table.Print(std::cout);
  std::cout << "\nusable records are those observed toward a node's k=10"
               " neighbors (passive probing, uneven coverage)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
