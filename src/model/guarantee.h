// Silo's tenant-facing abstraction (§4.1): every VM of a tenant gets a
// virtual-network guarantee {B, S, d, Bmax} —
//   B    : average send/receive bandwidth (hose model),
//   S    : burst allowance in bytes (not destination-limited),
//   d    : NIC-to-NIC packet delay bound for bandwidth-compliant packets,
//   Bmax : the static rate cap at which a burst may be sent.
// From these a tenant can independently derive the worst-case latency of
// any message between its VMs (the paper's "Calculating latency guarantee").
#pragma once

#include <stdexcept>

#include "util/units.h"

namespace silo {

struct SiloGuarantee {
  RateBps bandwidth {};        ///< B, bits/s
  Bytes burst {};              ///< S, bytes
  TimeNs delay {};             ///< d, ns (0 = no delay guarantee requested)
  RateBps burst_rate {};       ///< Bmax, bits/s (>= bandwidth)

  bool wants_delay_guarantee() const { return delay > TimeNs{0}; }
  friend bool operator==(const SiloGuarantee&, const SiloGuarantee&) = default;
};

/// Tenant service classes used throughout the paper's evaluation.
enum class TenantClass {
  kDelaySensitive,   ///< class-A: needs bandwidth + delay + burst
  kBandwidthOnly,    ///< class-B: needs bandwidth only
  kBestEffort,       ///< no guarantees; deprioritized via 802.1q (§4.4)
};

struct TenantRequest {
  int num_vms = 0;
  SiloGuarantee guarantee;
  TenantClass tenant_class = TenantClass::kBandwidthOnly;
  /// Fault tolerance (§4.2.3): the placement must spread the VMs across
  /// at least this many servers (each server is a fault domain). 1 means
  /// no spreading constraint.
  int min_fault_domains = 1;
  friend bool operator==(const TenantRequest&, const TenantRequest&) = default;
};

/// Worst-case latency of an M-byte message sent by a VM whose burst
/// allowance is unspent (§4.1):
///   M <= S : M/Bmax + d
///   M >  S : S/Bmax + (M-S)/B + d
inline TimeNs max_message_latency(const SiloGuarantee& g, Bytes message) {
  if (message < Bytes{0}) throw std::invalid_argument("negative message size");
  const RateBps bmax = g.burst_rate > RateBps{0} ? g.burst_rate : g.bandwidth;
  if (bmax <= RateBps{0}) throw std::invalid_argument("guarantee has no bandwidth");
  if (message <= g.burst) return transmission_time(message, bmax) + g.delay;
  if (g.bandwidth <= RateBps{0}) throw std::invalid_argument("burst exceeded, B = 0");
  return transmission_time(g.burst, bmax) +
         transmission_time(message - g.burst, g.bandwidth) + g.delay;
}

}  // namespace silo
