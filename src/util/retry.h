// Bounded retry with jittered exponential backoff, shared by the workload
// drivers (aborted messages) and the control channel (unacked deltas).
#pragma once

#include <algorithm>

#include "util/rng.h"
#include "util/units.h"

namespace silo {

/// `max_attempts` counts every attempt, the first included, so 1 means no
/// retry (the default). Each user sets the shape it needs.
struct RetryPolicy {
  int max_attempts = 1;
  TimeNs base_backoff = 2 * kMsec;  ///< doubled per failed attempt
  TimeNs max_backoff = 200 * kMsec;
  double jitter = 0.5;  ///< +/- fraction of the backoff, uniform
};

/// Backoff before attempt `attempt + 1` (attempt counts from 1).
inline TimeNs retry_delay(const RetryPolicy& p, int attempt, Rng& rng) {
  TimeNs backoff = p.base_backoff;
  for (int i = 1; i < attempt && backoff < p.max_backoff; ++i)
    backoff = backoff * 2;
  backoff = std::min(backoff, p.max_backoff);
  // Full +/- jitter decorrelates retry storms after a shared fault.
  const double factor = 1.0 + p.jitter * (2.0 * rng.uniform() - 1.0);
  return std::max(TimeNs{1},
                  TimeNs{static_cast<std::int64_t>(
                      static_cast<double>(backoff) * factor)});
}

}  // namespace silo
