// Choosing a guarantee: the paper expects tenants to pick {B, S, Bmax}
// with tools like Cicada (§4.1); Table 1 shows why the raw average
// bandwidth is a terrible choice for a bursty workload. This example
// profiles a synthetic OLDI-ish workload and asks the advisor for the
// cheapest guarantee that keeps 99.9% of messages within their bound.
#include <cstdio>

#include "core/advisor.h"
#include "util/rng.h"

using namespace silo;

int main() {
  // Observed workload: ~2000 messages/s, sizes bimodal — mostly small
  // responses with occasional 40 KB result pages.
  Rng rng(17);
  WorkloadProfile profile;
  profile.messages_per_sec = 2000;
  profile.packet_delay = 1 * kMsec;
  profile.burst_rate = 1 * kGbps;
  for (int i = 0; i < 5000; ++i) {
    const bool big = rng.uniform() < 0.1;
    profile.message_sizes.push_back(
        big ? 40 * kKB : static_cast<Bytes>(rng.uniform(1000, 8000)));
  }

  AdvisorOptions opts;
  opts.target_late_fraction = 0.001;

  const auto rec = recommend_guarantee(profile, opts);
  std::printf("workload average bandwidth : %7.1f Mbps\n",
              rec.average_bandwidth / 1e6);
  std::printf("recommended guarantee      : B = %.1f Mbps (%.2fx average), "
              "S = %ld KB, Bmax = %.1f Gbps\n",
              rec.guarantee.bandwidth.bps() / 1e6,
              rec.guarantee.bandwidth.bps() / rec.average_bandwidth,
              static_cast<long>(rec.guarantee.burst / kKB),
              rec.guarantee.burst_rate.bps() / 1e9);
  std::printf("expected late fraction     : %.4f%% (target %.4f%%) — %s\n",
              100 * rec.expected_late_fraction,
              100 * opts.target_late_fraction,
              rec.feasible ? "feasible" : "NOT met by any candidate");

  // For contrast: what Table 1's top-left corner would give this tenant.
  SiloGuarantee naive;
  naive.bandwidth = RateBps{rec.average_bandwidth};
  naive.burst = 40 * kKB;
  naive.delay = profile.packet_delay;
  naive.burst_rate = 1 * kGbps;
  const double naive_late =
      evaluate_late_fraction(profile, naive, 20000, 1);
  std::printf("naive (B = average) choice : %.1f%% of messages late — the\n"
              "paper's Table 1 row-one effect.\n",
              100 * naive_late);
  return 0;
}
