// Main binary of the repository benchmark: runs one workload in this
// process and prints what it measured (README.md).  run.py builds it and
// starts it from the root of a checkout:
//
//   perfbench --workload serve --seed 1 --seconds 10 --trace 0 \
//             --work-dir .bench_build/work [--commit <sha>]
//
// Standard output is two lines: provenance and details, then the result
// {"correct", "attempted", "failed", "metrics"} carrying the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "linalg/kernels.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Both lists mirror BENCHMARK.json; run.py checks the printed set against it.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"measurements_per_s", "1/s"},
    {"auc", "ratio"},
    {"peak_rss_mb", "MB"},
};

// A layer a workload does not run reports 0.
constexpr MetricDef kPerLayer[] = {
    {"ann.build_s", "s"},
    {"ann.search_us_p50", "us"},
    {"ann.search_us_p99", "us"},
    {"ann.score_evals_per_query", "count"},
    {"ann.relinks", "count"},
    {"ann.rebuilds", "count"},
    {"ann.relinks_per_refresh", "count"},
    {"svc.ingest.refresh_calls", "count"},
    {"svc.ingest.refresh_ms_p50", "ms"},
    {"svc.query.calls", "count"},
    {"svc.query.call_ms_p50", "ms"},
    {"svc.query.call_ms_p99", "ms"},
    {"svc.query.queue_ms_p99", "ms"},
    {"svc.query.writer_overlap_frac", "ratio"},
    {"svc.query.writer_overlap_ms_p99", "ms"},
    {"svc.query.quiet_ms_p99", "ms"},
    {"svc.ingest.calls", "count"},
    {"svc.ingest.call_ms_p50", "ms"},
    {"svc.ingest.busy_frac", "ratio"},
    {"svc.staleness_max", "count"},
    {"svc.ingest.epoch_calls", "count"},
    {"svc.ingest.epoch_ms_p50", "ms"},
    {"svc.snapshot.bytes", "bytes"},
    {"svc.setup.construct_s", "s"},
    {"svc.setup.warmup_s", "s"},
    {"core.setup.construct_s", "s"},
    {"netsim.setup.lookahead_s", "s"},
    {"core.round.ms_p50", "ms"},
    {"core.round.ms_p99", "ms"},
    {"core.round.parallel_speedup", "ratio"},
    {"netsim.drain.busy_s", "s"},
    {"netsim.windows", "count"},
    {"netsim.events", "count"},
    {"netsim.events_per_window", "ratio"},
    {"netsim.runtime.send_calls", "count"},
    {"netsim.runtime.send_s", "s"},
    {"netsim.runtime.bytes_sent", "bytes"},
    {"netsim.runtime.recv_calls", "count"},
    {"netsim.runtime.recv_wait_s", "s"},
    {"netsim.runtime.recv_timeouts", "count"},
    {"netsim.compute_s", "s"},
    {"netsim.link.frames", "count"},
    {"netsim.link.bytes", "bytes"},
    {"netsim.reliable.useful_frame_ratio", "ratio"},
    {"netsim.reliable.retransmits", "count"},
    {"netsim.reliable.duplicates", "count"},
    {"netsim.reliable.standalone_acks", "count"},
    {"netsim.reliable.flush_s", "s"},
    {"netsim.fault.dropped", "count"},
    {"netsim.fault.retransmits", "count"},
    {"netsim.fault.steps_s", "s"},
    {"loadgen.lag_ms_p99", "ms"},
    {"loadgen.overloaded", "flag"},
    {"serve.level_p99_ms", "ms"},
    {"serve.ingest_p99_ms", "ms"},
    {"serve.recall_at_10", "ratio"},
    {"latency.samples", "count"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
    {"trace.spans", "count"},
};

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string Quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload serve|train|drain "
               "--seed N --seconds S --trace 0|1 --work-dir DIR [--commit SHA]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string commit = "unknown";
  int trace = 0;
  perfbench::RunOptions options;
  options.work_dir = ".";
  try {
    for (int a = 1; a < argc; a += 2) {
      const std::string flag = argv[a];
      if (a + 1 >= argc) {
        return Usage("missing value for " + flag);
      }
      const std::string value = argv[a + 1];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = std::stoi(value);
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return Usage("malformed flag value");
  }
  if (!(options.seconds > 0.0) || (trace != 0 && trace != 1)) {
    return Usage("--seconds must be positive and --trace 0 or 1");
  }
  try {
    perfbench::RequireRecordableBuild();
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 3;
  }
  options.trace = trace == 1;
  options.run_id = workload + "-" + std::to_string(options.seed) + "-" +
                   std::to_string(static_cast<long>(getpid()));
  options.trace_file = options.work_dir / "traces" / (workload + ".spans.csv");

  perfbench::Outcome outcome;
  try {
    std::filesystem::create_directories(options.work_dir);
    if (workload == "serve") {
      outcome = perfbench::RunServe(options);
    } else if (workload == "train") {
      outcome = perfbench::RunTrain(options);
    } else if (workload == "drain") {
      outcome = perfbench::RunDrain(options);
    } else {
      return Usage("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << workload << " failed: " << error.what() << "\n";
    return 1;
  }
  outcome.metrics["peak_rss_mb"] = perfbench::PeakRssMb();

  std::ostringstream metrics;
  bool first = true;
  for (const MetricDef& def : trace == 1 ? std::span<const MetricDef>(kPerLayer)
                                         : std::span<const MetricDef>(kEndToEnd)) {
    const auto found = outcome.metrics.find(def.name);
    double value = found == outcome.metrics.end() ? 0.0 : found->second;
    if (trace == 0 && found == outcome.metrics.end()) {
      outcome.Check(false, std::string("metric ") + def.name + " was not measured");
    }
    if (!std::isfinite(value)) {
      outcome.Check(false, std::string("metric ") + def.name + " is not finite");
      value = 0.0;
    }
    metrics << (first ? "" : ", ") << Quoted(def.name) << ": {\"value\": "
            << Number(value) << ", \"unit\": " << Quoted(def.unit) << "}";
    first = false;
  }

  std::ostringstream details;
  details << "{\"provenance\": {\"workload\": " << Quoted(workload)
          << ", \"seed\": " << options.seed
          << ", \"seconds\": " << Number(options.seconds)
          << ", \"trace\": " << trace
          << ", \"nproc\": " << std::thread::hardware_concurrency()
          << ", \"kernel_isa\": "
          << Quoted(dmfsgd::linalg::KernelIsaName(dmfsgd::linalg::ActiveKernelIsa()))
          << ", \"build_type\": " << Quoted(perfbench::BuildType())
          << ", \"commit\": " << Quoted(commit) << "}, \"details\": {";
  first = true;
  for (const auto& [name, value] : outcome.details) {
    details << (first ? "" : ", ") << Quoted(name) << ": "
            << Number(std::isfinite(value) ? value : 0.0);
    first = false;
  }
  for (const auto& [name, value] : outcome.notes) {
    details << (first ? "" : ", ") << Quoted(name) << ": " << Quoted(value);
    first = false;
  }
  details << "}, \"failures\": [";
  for (std::size_t f = 0; f < outcome.failures.size(); ++f) {
    details << (f ? ", " : "") << Quoted(outcome.failures[f]);
  }
  details << "]}";
  for (const std::string& failure : outcome.failures) {
    std::cerr << "perfbench: " << failure << "\n";
  }

  std::cout << details.str() << "\n"
            << "{\"correct\": " << (outcome.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(outcome.attempted, 1)
            << ", \"failed\": " << outcome.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return 0;
}
