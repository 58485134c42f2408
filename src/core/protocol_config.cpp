#include "core/protocol_config.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace dmfsgd::core {

namespace {

[[noreturn]] void Fail(const char* who, const char* what) {
  throw std::invalid_argument(std::string(who) + ": " + what);
}

}  // namespace

void ValidateProtocolConfig(const ProtocolConfig& config, const char* who) {
  if (config.rank == 0) {
    Fail(who, "rank must be > 0");
  }
  // Written so NaN fails every check: a NaN or infinite η or λ turns the
  // factors NaN on the first step.
  if (!(config.tau > 0.0 && std::isfinite(config.tau))) {
    Fail(who, "tau must be set (finite, > 0)");
  }
  if (!(config.params.eta > 0.0 && std::isfinite(config.params.eta))) {
    Fail(who, "eta must be finite and > 0");
  }
  if (!(config.params.lambda >= 0.0 && std::isfinite(config.params.lambda))) {
    Fail(who, "lambda must be finite and >= 0");
  }
  if (config.probe_burst == 0) {
    Fail(who, "probe_burst must be >= 1");
  }
}

}  // namespace dmfsgd::core
