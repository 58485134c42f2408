#include "common/flags.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/csv.hpp"  // ParseDouble
#include "core/protocol_config.hpp"

namespace dmfsgd::common {

Flags::Flags(int argc, const char* const* argv,
             const std::vector<std::string>& allowed) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    const std::string name = body.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : body.substr(eq + 1);
    if (name.empty()) {
      throw std::invalid_argument("Flags: malformed argument '" + arg + "'");
    }
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      throw std::invalid_argument("Flags: unknown flag '--" + name + "'");
    }
    values_[name] = value;
  }
}

bool Flags::Has(const std::string& name) const { return values_.count(name) > 0; }

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Flags::GetInt(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  std::size_t consumed = 0;
  const std::int64_t value = std::stoll(it->second, &consumed);
  if (consumed != it->second.size()) {
    throw std::invalid_argument("Flags: --" + name + " expects an integer");
  }
  return value;
}

std::size_t Flags::GetSize(const std::string& name, std::size_t fallback) const {
  if (!Has(name)) {
    return fallback;
  }
  const std::int64_t value = GetInt(name, 0);
  if (value < 0) {
    throw std::invalid_argument("Flags: --" + name + " must be >= 0");
  }
  return static_cast<std::size_t>(value);
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  return ParseDouble(it->second);
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return fallback;
  }
  if (it->second.empty() || it->second == "true" || it->second == "1") {
    return true;
  }
  if (it->second == "false" || it->second == "0") {
    return false;
  }
  throw std::invalid_argument("Flags: --" + name + " expects a boolean");
}

std::vector<std::string> ProtocolFlagNames() {
  return {"rank",      "eta",  "lambda",     "loss",    "tau",
          "seed",      "batch-size", "coalesce", "compile-rounds"};
}

std::vector<std::string> WithProtocolFlagNames(std::vector<std::string> base) {
  for (std::string& name : ProtocolFlagNames()) {
    base.push_back(std::move(name));
  }
  return base;
}

void ApplyProtocolFlags(const Flags& flags, core::ProtocolConfig& config,
                        double tau_fallback) {
  config.rank = flags.GetSize("rank", config.rank);
  config.params.eta = flags.GetDouble("eta", config.params.eta);
  config.params.lambda = flags.GetDouble("lambda", config.params.lambda);
  if (flags.Has("loss")) {
    config.params.loss = core::ParseLossName(flags.GetString("loss", ""));
  }
  config.tau = flags.GetDouble("tau",
                               tau_fallback > 0.0 ? tau_fallback : config.tau);
  config.seed = static_cast<std::uint64_t>(
      flags.GetInt("seed", static_cast<std::int64_t>(config.seed)));
  config.probe_burst = flags.GetSize("batch-size", config.probe_burst);
  config.coalesce_delivery =
      flags.GetBool("coalesce", config.coalesce_delivery);
  config.compile_rounds =
      flags.GetBool("compile-rounds", config.compile_rounds);
}

}  // namespace dmfsgd::common
