// Scalar summary of the traffic admitted through a switch port.
//
// Every tenant's contribution at a port is a two-piece concave curve
//   min(jump + burst_rate * t, burst + rate * t).
// Since sum_i min(f_i, g_i) <= min(sum_i f_i, sum_i g_i), the component
// sums below reconstruct a valid (slightly loose) aggregate arrival bound
// in O(1), which keeps admission control O(ports) per tenant and makes
// tenant removal an exact subtraction.
#pragma once

#include <algorithm>
#include <cmath>

#include "netcalc/curve.h"
#include "util/units.h"

namespace silo::placement {

struct PortContribution {
  double rate_bps = 0;        ///< sustained (hose-tightened) rate
  double burst_bytes = 0;     ///< burst after upstream propagation
  double burst_rate_bps = 0;  ///< rate at which the burst can arrive
  double jump_bytes = 0;      ///< instantaneous packet-granularity jump
  friend bool operator==(const PortContribution&,
                         const PortContribution&) = default;
};

class PortLoad {
 public:
  void add(const PortContribution& c) {
    rate_bps_ += c.rate_bps;
    burst_bytes_ += c.burst_bytes;
    burst_rate_bps_ += c.burst_rate_bps;
    jump_bytes_ += c.jump_bytes;
    ++tenants_;
  }

  void remove(const PortContribution& c) {
    rate_bps_ -= c.rate_bps;
    burst_bytes_ -= c.burst_bytes;
    burst_rate_bps_ -= c.burst_rate_bps;
    jump_bytes_ -= c.jump_bytes;
    --tenants_;
    if (tenants_ == 0) {  // kill accumulated floating-point dust
      rate_bps_ = burst_bytes_ = burst_rate_bps_ = jump_bytes_ = 0;
    }
  }

  bool empty() const { return tenants_ == 0; }
  double rate_bps() const { return rate_bps_; }
  double burst_bytes() const { return burst_bytes_; }
  int tenants() const { return tenants_; }

  /// Closed-form worst-case queuing delay (ns) of the aggregate two-piece
  /// curve min(j + bmax*t, s + b*t) against a constant-rate server — the
  /// allocation-free fast path admission control runs per port. Returns
  /// -1 when the sustained rate overloads the service rate.
  TimeNs queue_bound(RateBps service_rate,
                     const PortContribution* extra = nullptr) const {
    double r = rate_bps_, s = burst_bytes_, br = burst_rate_bps_,
           j = jump_bytes_;
    if (extra) {
      r += extra->rate_bps;
      s += extra->burst_bytes;
      br += extra->burst_rate_bps;
      j += extra->jump_bytes;
    }
    const double c = service_rate.bps() / 8e9;  // bytes per ns
    const double rb = r / 8e9, brb = std::max(br, r) / 8e9;
    if (c <= 0 || rb > c * (1.0 + 1e-9)) return TimeNs{-1};
    if (s <= j || brb <= rb + 1e-15) {
      // Effectively a single token bucket with burst min(s, j)... the
      // tighter intercept bounds the deviation.
      return static_cast<TimeNs>(std::min(s, j) / c) + TimeNs{1};
    }
    // Delay grows while the burst-rate piece exceeds the service rate and
    // peaks at the knee t* = (s - j) / (brb - rb).
    if (brb <= c) return static_cast<TimeNs>(j / c) + TimeNs{1};
    const double knee = (s - j) / (brb - rb);
    const double at_knee = j + brb * knee;
    return static_cast<TimeNs>(at_knee / c - knee) + TimeNs{1};
  }

  /// Aggregate arrival curve of everything admitted through the port,
  /// optionally with one more candidate contribution.
  netcalc::Curve arrival_curve(const PortContribution* extra = nullptr) const {
    double r = rate_bps_, s = burst_bytes_, br = burst_rate_bps_,
           j = jump_bytes_;
    if (extra) {
      r += extra->rate_bps;
      s += extra->burst_bytes;
      br += extra->burst_rate_bps;
      j += extra->jump_bytes;
    }
    if (r <= 0 && s <= 0) return netcalc::Curve{};
    return netcalc::Curve::rate_limited_burst(
        RateBps{r}, static_cast<Bytes>(s + 0.5), RateBps{std::max(br, r)},
        static_cast<Bytes>(j + 0.5));
  }

 private:
  double rate_bps_ = 0;
  double burst_bytes_ = 0;
  double burst_rate_bps_ = 0;
  double jump_bytes_ = 0;
  int tenants_ = 0;
};

}  // namespace silo::placement
