#include "netsim/probes.hpp"

#include <cmath>
#include <stdexcept>

namespace dmfsgd::netsim {

double PingProbe::Measure(double true_rtt_ms, common::Rng& rng) const {
  if (true_rtt_ms <= 0.0) {
    throw std::invalid_argument("PingProbe::Measure: RTT must be > 0");
  }
  return true_rtt_ms * rng.LogNormal(0.0, options_.noise_sigma);
}

double PathchirpProbe::Measure(double true_abw_mbps, common::Rng& rng) const {
  if (true_abw_mbps <= 0.0) {
    throw std::invalid_argument("PathchirpProbe::Measure: ABW must be > 0");
  }
  return true_abw_mbps * options_.underestimation_factor *
         rng.LogNormal(0.0, options_.noise_sigma);
}

}  // namespace dmfsgd::netsim
