// Simulated measurement tools.
//
// Stand-ins for the real probing tools the paper relies on (DESIGN.md §3):
//
//  * PingProbe        — ICMP round-trip: cheap, sender-inferred, returns the
//                       RTT *quantity* with small multiplicative noise (the
//                       Harvard generator's measurement).
//  * PathchirpProbe   — coarse ABW *quantity* estimate with an
//                       underestimation bias and lognormal noise, matching
//                       the HP-S3 collection methodology.
//
// The paper's cheap ABW *class* measurement (a constant-rate train at τ
// that reports only congestion or not) is modelled by the engine's error
// injection (core/error_injection.hpp), not by a probe here.
//
// All probes consume entropy from a caller-provided Rng, so experiments stay
// reproducible and nodes can carry independent streams.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace dmfsgd::netsim {

/// Simulates ping: returns an observed RTT given the true current RTT.
class PingProbe {
 public:
  struct Options {
    double noise_sigma = 0.02;  ///< lognormal multiplicative jitter (~2%)
  };

  PingProbe() : PingProbe(Options()) {}
  explicit PingProbe(const Options& options) : options_(options) {}

  /// Observed RTT in ms; requires true_rtt_ms > 0.
  [[nodiscard]] double Measure(double true_rtt_ms, common::Rng& rng) const;

 private:
  Options options_;
};

/// Simulates a pathchirp-style coarse ABW estimator.
class PathchirpProbe {
 public:
  struct Options {
    double underestimation_factor = 0.9;  ///< multiplicative bias (< 1)
    double noise_sigma = 0.15;            ///< lognormal estimation noise
  };

  PathchirpProbe() : PathchirpProbe(Options()) {}
  explicit PathchirpProbe(const Options& options) : options_(options) {}

  /// Estimated ABW in Mbps; requires true_abw_mbps > 0.
  [[nodiscard]] double Measure(double true_abw_mbps, common::Rng& rng) const;

 private:
  Options options_;
};

}  // namespace dmfsgd::netsim
