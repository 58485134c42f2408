// dmfsgd_tool — command-line multitool for the library.
//
// Subcommands (first positional argument):
//
//   generate   synthesize a dataset and save it to disk
//              dmfsgd_tool generate --dataset=meridian --nodes=500
//                  --out=/tmp/net [--seed=S]
//   train      train a deployment on a saved dataset, save the model
//              dmfsgd_tool train --in=/tmp/net --model=/tmp/model.csv
//                  [--rounds=600] [--k=16] [--rank=10] [--loss=logistic]
//                  [--coalesce] [--batch-size=B] [--compile-rounds]
//              --coalesce routes delivery through batch envelopes
//              (DESIGN.md §13); --batch-size=B launches B probes per node
//              per round and, with --coalesce, folds each reply envelope
//              into one mini-batch gradient step.  --compile-rounds runs
//              each round through the sparse round compiler (DESIGN.md
//              §14): the round is gathered into COO form and executed as
//              one fused gradient sweep — bit-identical to the per-message
//              driver under the scalar kernel table, and incompatible with
//              --batch-size > 1 (the compiler models one exchange per node
//              per round).
//   evaluate   score a saved model against its dataset
//              dmfsgd_tool evaluate --in=/tmp/net --model=/tmp/model.csv
//   predict    query one pair from a saved model
//              dmfsgd_tool predict --in=/tmp/net --model=/tmp/model.csv
//                  --src=3 --dst=42
//
// The tool chains the library end to end: dataset generators -> CSV IO ->
// the decentralized simulator -> coordinate snapshots -> the evaluation
// suite, which is exactly the workflow an operator would script.
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/simulation.hpp"
#include "core/snapshot.hpp"
#include "datasets/harvard.hpp"
#include "datasets/hps3.hpp"
#include "datasets/io.hpp"
#include "datasets/meridian.hpp"
#include "eval/confusion.hpp"
#include "eval/roc.hpp"
#include "eval/scored_pairs.hpp"
#include "linalg/kernels.hpp"

namespace {

using namespace dmfsgd;

int Generate(const common::Flags& flags) {
  const std::string kind = flags.GetString("dataset", "meridian");
  const std::size_t nodes = flags.GetSize("nodes", 0);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::cerr << "generate: --out=<path stem> is required\n";
    return 1;
  }

  datasets::Dataset dataset;
  if (kind == "meridian") {
    datasets::MeridianConfig config;
    if (nodes > 0) {
      config.node_count = nodes;
    }
    config.seed = seed;
    dataset = datasets::MakeMeridian(config);
  } else if (kind == "harvard") {
    datasets::HarvardConfig config;
    if (nodes > 0) {
      config.node_count = nodes;
    }
    config.seed = seed;
    dataset = datasets::MakeHarvard(config);
  } else if (kind == "hps3") {
    datasets::HpS3Config config;
    if (nodes > 0) {
      config.host_count = nodes;
    }
    config.seed = seed;
    dataset = datasets::MakeHpS3(config);
  } else {
    std::cerr << "generate: unknown --dataset '" << kind
              << "' (meridian | harvard | hps3)\n";
    return 1;
  }
  datasets::SaveDataset(dataset, out);
  std::cout << "wrote " << dataset.name << " (" << dataset.NodeCount()
            << " nodes, " << MetricName(dataset.metric) << ", median "
            << dataset.MedianValue() << ") to " << out << ".matrix.csv";
  if (!dataset.trace.empty()) {
    std::cout << " + " << dataset.trace.size() << " trace records";
  }
  std::cout << "\n";
  return 0;
}

core::SimulationConfig ConfigFromFlags(const common::Flags& flags,
                                       const datasets::Dataset& dataset) {
  core::SimulationConfig config;
  // The shared protocol knobs parse through the one helper (DESIGN.md §17);
  // only the simulator-specific knobs are read here.
  common::ApplyProtocolFlags(flags, config, dataset.MedianValue());
  config.neighbor_count = flags.GetSize("k", 16);
  if (config.coalesce_delivery) {
    // Mini-batch receive mode (DESIGN.md §13): each coalesced reply envelope
    // applies one accumulated gradient step, chunked at the burst size.
    config.gradient_batch_size = config.probe_burst;
  }
  return config;
}

int Train(const common::Flags& flags) {
  const std::string in = flags.GetString("in", "");
  const std::string model = flags.GetString("model", "");
  if (in.empty() || model.empty()) {
    std::cerr << "train: --in=<stem> and --model=<file> are required\n";
    return 1;
  }
  const datasets::Dataset dataset = datasets::LoadDataset(in);
  const core::SimulationConfig config = ConfigFromFlags(flags, dataset);
  if (!dataset.trace.empty() && config.coalesce_delivery) {
    std::cerr << "train: --coalesce is not usable with trace datasets (a "
                 "trace record must resolve inside its exchange)\n";
    return 1;
  }
  if (config.compile_rounds) {
    if (!dataset.trace.empty()) {
      std::cerr << "train: --compile-rounds is not usable with trace datasets "
                   "(the compiler gathers whole synthetic rounds)\n";
      return 1;
    }
    if (config.probe_burst > 1) {
      std::cerr << "train: --compile-rounds requires --batch-size=1 (the "
                   "compiler models one exchange per node per round)\n";
      return 1;
    }
  }
  core::DmfsgdSimulation simulation(dataset, config);
  if (dataset.trace.empty()) {
    const std::size_t rounds = flags.GetSize("rounds", 600);
    if (config.compile_rounds) {
      simulation.RunRoundsCompiled(rounds);
    } else {
      simulation.RunRounds(rounds);
    }
  } else {
    (void)simulation.ReplayTrace();
  }
  core::SaveSnapshot(core::TakeSnapshot(simulation), model);
  std::cout << "trained on " << dataset.name << " ("
            << simulation.MeasurementCount() << " measurements, tau = "
            << config.tau;
  if (config.coalesce_delivery) {
    std::cout << ", coalesced batch envelopes, mini-batch size "
              << config.gradient_batch_size;
  }
  if (config.compile_rounds) {
    std::cout << ", compiled COO rounds ("
              << linalg::KernelIsaName(linalg::ActiveKernelIsa())
              << " kernels)";
  }
  std::cout << "); model -> " << model << "\n";
  return 0;
}

int Evaluate(const common::Flags& flags) {
  const std::string in = flags.GetString("in", "");
  const std::string model_path = flags.GetString("model", "");
  if (in.empty() || model_path.empty()) {
    std::cerr << "evaluate: --in=<stem> and --model=<file> are required\n";
    return 1;
  }
  const datasets::Dataset dataset = datasets::LoadDataset(in);
  const core::CoordinateSnapshot model = core::LoadSnapshot(model_path);
  if (model.NodeCount() != dataset.NodeCount()) {
    std::cerr << "evaluate: model and dataset node counts differ\n";
    return 1;
  }
  const double tau = flags.GetDouble("tau", dataset.MedianValue());

  std::vector<double> scores;
  std::vector<int> labels;
  for (std::size_t i = 0; i < dataset.NodeCount(); ++i) {
    for (std::size_t j = 0; j < dataset.NodeCount(); ++j) {
      if (i == j || !dataset.IsKnown(i, j)) {
        continue;
      }
      scores.push_back(model.Predict(i, j));
      labels.push_back(
          datasets::ClassOf(dataset.metric, dataset.Quantity(i, j), tau));
    }
  }
  const auto confusion = eval::ConfusionFromScores(scores, labels);
  common::Table table({"metric", "value"});
  table.AddRow({"pairs", std::to_string(scores.size())});
  table.AddRow({"AUC", common::FormatFixed(eval::Auc(scores, labels), 4)});
  table.AddRow({"accuracy %", common::FormatFixed(confusion.Accuracy() * 100, 1)});
  table.AddRow({"good recall %",
                common::FormatFixed(confusion.GoodRecall() * 100, 1)});
  table.AddRow({"bad recall %",
                common::FormatFixed(confusion.BadRecall() * 100, 1)});
  table.Print(std::cout);
  std::cout << "(evaluated over ALL known pairs; training pairs are not"
               " recorded in snapshots)\n";
  return 0;
}

int Predict(const common::Flags& flags) {
  const std::string in = flags.GetString("in", "");
  const std::string model_path = flags.GetString("model", "");
  if (in.empty() || model_path.empty() || !flags.Has("src") || !flags.Has("dst")) {
    std::cerr << "predict: --in, --model, --src and --dst are required\n";
    return 1;
  }
  const datasets::Dataset dataset = datasets::LoadDataset(in);
  const core::CoordinateSnapshot model = core::LoadSnapshot(model_path);
  const std::size_t src = flags.GetSize("src", 0);
  const std::size_t dst = flags.GetSize("dst", 0);
  const double tau = flags.GetDouble("tau", dataset.MedianValue());
  const double score = model.Predict(src, dst);
  std::cout << "path " << src << " -> " << dst << ": score " << score
            << " => predicted " << (score > 0 ? "good" : "bad");
  if (dataset.IsKnown(src, dst)) {
    std::cout << "; ground truth " << dataset.Quantity(src, dst) << " "
              << (dataset.metric == datasets::Metric::kRtt ? "ms" : "Mbps")
              << " => actually "
              << (datasets::ClassOf(dataset.metric, dataset.Quantity(src, dst),
                                    tau) > 0
                      ? "good"
                      : "bad");
  }
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const common::Flags flags(
        argc, argv,
        common::WithProtocolFlagNames({"dataset", "nodes", "out", "in",
                                       "model", "rounds", "k", "src", "dst"}));
    if (flags.Positional().empty()) {
      std::cerr << "usage: dmfsgd_tool <generate|train|evaluate|predict> ...\n"
                   "see the header comment of examples/dmfsgd_tool.cpp\n";
      return 1;
    }
    const std::string& command = flags.Positional().front();
    if (command == "generate") {
      return Generate(flags);
    }
    if (command == "train") {
      return Train(flags);
    }
    if (command == "evaluate") {
      return Evaluate(flags);
    }
    if (command == "predict") {
      return Predict(flags);
    }
    std::cerr << "unknown command '" << command << "'\n";
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
