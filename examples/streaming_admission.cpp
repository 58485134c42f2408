// Streaming admission control (the paper's introduction scenario).
//
// A video service needs to know whether a client<->server path sustains the
// stream bitrate — the Google-TV example from §3.2: 2.5 Mbps for SD, 10 Mbps
// for HD.  Instead of measuring every pair with expensive bandwidth probes,
// the admission controller is a thin client of a resident coordinate
// service per tier: nodes run ABW-mode DMFSGD (Algorithm 2) with the
// paper's cheap pathload-style class probes at rate τ, and streams are
// admitted based on the service's *predicted* classes (QueryLevel > 0).
//
// Usage: streaming_admission [--hosts=N] [--sd=MBPS] [--hd=MBPS] [--seed=S]
#include <iostream>

#include "common/table.hpp"
#include "dmfsgd.hpp"

namespace {

/// Runs a tier's coordinate service at probing rate tau and reports
/// admission quality on unmeasured pairs.
void RunTier(const dmfsgd::datasets::Dataset& dataset, const char* tier,
             double tau_mbps, std::uint64_t seed, dmfsgd::common::Table& table) {
  using namespace dmfsgd;
  const double good_fraction = dataset.GoodFraction(tau_mbps);
  if (good_fraction <= 0.0 || good_fraction >= 1.0) {
    // Every path is on the same side of the rate: prediction is trivial and
    // ROC analysis is undefined.  Report and move on.
    table.AddRow({tier, common::FormatFixed(tau_mbps, 1),
                  common::FormatFixed(good_fraction * 100.0, 1), "n/a", "n/a",
                  "n/a", "n/a"});
    return;
  }
  svc::ServiceConfig config;
  config.tau = tau_mbps;  // the pathload probing rate IS the threshold
  config.seed = seed;
  svc::CoordinateService service(dataset, config);
  service.IngestRounds(300);

  const auto pairs = eval::CollectScoredPairs(service.engine());
  const auto scores = eval::Scores(pairs);
  const auto labels = eval::Labels(pairs);
  const auto confusion = eval::ConfusionFromScores(scores, labels);

  // Admission semantics: false positives = streams admitted onto paths that
  // cannot carry them (visible stalls); false negatives = capacity wasted.
  table.AddRow({tier, common::FormatFixed(tau_mbps, 1),
                common::FormatFixed(good_fraction * 100.0, 1),
                common::FormatFixed(eval::Auc(scores, labels), 3),
                common::FormatFixed(confusion.Accuracy() * 100.0, 1),
                common::FormatFixed(confusion.Fpr() * 100.0, 1),
                common::FormatFixed((1.0 - confusion.GoodRecall()) * 100.0, 1)});
}

int Run(int argc, char** argv) {
  using namespace dmfsgd;

  const common::Flags flags(argc, argv, {"hosts", "sd", "hd", "seed"});
  const std::size_t hosts = flags.GetSize("hosts", 231);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));

  datasets::HpS3Config dataset_config;
  dataset_config.host_count = hosts;
  dataset_config.seed = seed;
  const datasets::Dataset dataset = datasets::MakeHpS3(dataset_config);

  // Default tier rates adapt to the synthetic capacity distribution: the SD
  // rate admits most paths (75% good), the HD rate is demanding (25% good) —
  // the same roles the 2.5/10 Mbps Google-TV rates play against real
  // broadband paths.  Override with --sd / --hd to use absolute rates.
  const double sd_mbps = flags.GetDouble("sd", dataset.TauForGoodPortion(0.75));
  const double hd_mbps = flags.GetDouble("hd", dataset.TauForGoodPortion(0.25));

  std::cout << "streaming admission over " << hosts
            << " hosts (capacity-tree ABW substrate)\n"
            << "median path ABW: " << dataset.MedianValue() << " Mbps\n\n";

  common::Table table({"tier", "rate Mbps", "good paths %", "AUC", "acc %",
                       "stall-risk %", "wasted %"});
  RunTier(dataset, "SD", sd_mbps, seed, table);
  RunTier(dataset, "HD", hd_mbps, seed, table);
  table.Print(std::cout);
  std::cout << "\nstall-risk: bad paths predicted good (streams that would"
               " stutter)\nwasted: good paths predicted bad (capacity left"
               " unused)\n";
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
