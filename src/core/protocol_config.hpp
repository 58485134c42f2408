// The protocol knobs every DMFSGD front end shares (DESIGN.md §17).
//
// Three entry points speak the same protocol — the round/async simulation
// drivers (SimulationConfig), the real-socket UDP peer (UdpPeerConfig) and
// the resident coordinate service (svc::ServiceConfig) — and before this
// header each carried its own copy of the shared knobs with its own,
// slightly drifting validation.  ProtocolConfig is the single source for
// those knobs: the other configs embed it (by inheritance, so existing
// field access is unchanged) and every constructor funnels through the one
// ValidateProtocolConfig below.  Front-end-specific knobs (membership size,
// loss model, node id, ...) stay in the embedding config and are validated
// where they are interpreted.
#pragma once

#include <cstdint>
#include <cstddef>

#include "core/node.hpp"

namespace dmfsgd::core {

struct ProtocolConfig {
  std::size_t rank = 10;  ///< r — factor rows u_i, v_i are length r
  UpdateParams params;    ///< η, λ, loss function
  /// Classification threshold in quantity units; also the regression
  /// normalizer (targets are quantity/τ, DESIGN.md §3) and the probing rate
  /// carried in ABW probe requests.  Must be finite and > 0.
  double tau = 0.0;
  std::uint64_t seed = 1;

  // -- batched message plane (DESIGN.md §13) --------------------------------

  /// Exchanges launched per probe slot (per round in the round driver, per
  /// Probe() call at the UDP peer).  Targets are picked independently with
  /// replacement.  Must be >= 1.
  std::size_t probe_burst = 1;

  /// Coalesce delivery into batch envelopes: merge messages a channel would
  /// deliver at the same instant — the async driver's same-arrival events,
  /// the UDP peer's per-target request and per-prober reply datagrams.  It
  /// never changes which updates a node applies or in what order.  The
  /// round driver and the service ignore it: their immediate channel
  /// delivers each message inside Send, so there is nothing to merge.
  bool coalesce_delivery = false;
};

/// The one validation path for the shared knobs; every embedding config's
/// constructor calls it (engine, UDP peer, coordinate service).  `who` names
/// the front end in the error text.  Throws std::invalid_argument.
void ValidateProtocolConfig(const ProtocolConfig& config, const char* who);

}  // namespace dmfsgd::core
