// Flow-level datacenter simulator (§6.3): Poisson tenant arrivals into a
// large multi-rooted tree, jobs that move data between their VMs and then
// finish after a compute time, and three bandwidth regimes —
//   Silo / Oktopus : flows run at their (hose-model) reserved rates
//   Locality (TCP) : ideal TCP emulation, global max-min fairness over
//                    link capacities
// The simulator is event-driven: rates are piecewise-constant between flow
// arrivals and departures, so remaining bytes are integrated analytically
// and the only events are job arrival, predicted transfer completion,
// compute-done, and (optionally) coalesced rate-update grid points.
// On each flow add/remove only the affected connected
// component of the flow<->port sharing graph (locality) or the affected
// tenant's hose (Silo/Oktopus) is re-solved; a reference mode re-solves
// globally and is pinned bit-identical by cross-mode tests.
#pragma once

#include <cstdint>

#include "obs/metrics.h"
#include "placement/placement.h"
#include "topology/topology.h"
#include "util/units.h"

namespace silo::flowsim {

/// How rates are re-solved when the active flow set changes. Both modes
/// share the event-driven timeline and produce bit-identical results; they
/// differ only in how much of the rate problem is recomputed per event
/// (cf. placement::AdmissionMode, where kFullRescan plays the same role).
enum class SolverMode {
  /// Re-solve only the connected component(s) of the flow<->port sharing
  /// graph touched by the change (locality), or only the affected tenant's
  /// hose allocation (Silo/Oktopus).
  kIncremental,
  /// Reference: globally re-solve every open flow (locality) or every live
  /// tenant (Silo/Oktopus) on each change.
  kReference,
};

struct FlowSimConfig {
  topology::TopologyConfig topo;
  placement::Policy policy = placement::Policy::kSilo;
  SolverMode solver = SolverMode::kIncremental;

  double occupancy = 0.75;       ///< target average VM-slot occupancy
  double class_a_fraction = 0.5;
  double permutation_x = 1.0;    ///< class-B pattern; <= 0 means all-to-all
  /// Geometric tenant size (finite, >= 2). Keep this above
  /// vm_slots_per_server so tenants actually span servers and exercise the
  /// fabric.
  double mean_vms = 12.0;

  // Class-A (delay-sensitive, all-to-one) guarantee means — Table 3.
  RateBps a_bandwidth_mean = 0.25 * kGbps;
  Bytes a_burst = 15 * kKB;
  TimeNs a_delay = 1 * kMsec;
  RateBps a_burst_rate = 1 * kGbps;

  // Class-B (bandwidth-only) guarantee means — Table 3.
  RateBps b_bandwidth_mean = 2 * kGbps;
  Bytes b_burst {1500};

  /// Flow volumes are sized as (reserved per-flow rate) x (job transfer
  /// duration), so a job's network time is the sampled duration no matter
  /// what bandwidth it drew — occupancy stays the controlled variable,
  /// matching the paper's methodology. OLDI (class-A) jobs move little
  /// data; data-parallel (class-B) jobs are transfer-dominated.
  double a_transfer_time_mean_s = 5.0;
  double b_transfer_time_mean_s = 60.0;

  double compute_time_mean_s = 20.0;
  double sim_duration_s = 1500.0;
  double warmup_s = 150.0;
  /// Rate re-solve coalescing grid (seconds, finite, >= 0). 0 = re-solve
  /// on every flow add/remove (pure event-driven). > 0 = queue flow-set
  /// changes and re-solve once per grid point — the granularity the
  /// fixed-step fluid simulator used — which bounds the number of solves
  /// under saturation, where changes arrive far faster than the grid. At
  /// 32K servers and 90% locality occupancy one 1 s grid solve covers
  /// ~430-660 components of at most ~190 flows until ~345 s; from ~415 s
  /// the sharing graph percolates into one giant component that grows to
  /// ~173K flows by 1500 s. Queued flows run at rate 0 until their first
  /// grid solve, so they can never complete early. The grid applies
  /// identically in both solver modes: cross-mode bit-equivalence holds at
  /// any value.
  double rate_update_s = 0.0;
  std::uint64_t seed = 1;
};

/// Solver-side work counters — the basis of the flowsim.* metric family
/// and of the bench_flowsim_scale speedup measurement. These are *not*
/// part of the cross-mode equivalence contract (the reference mode does
/// strictly more solver work by design).
struct FlowSimPerf {
  std::int64_t events = 0;             ///< arrival/flow-done/compute events
  std::int64_t solves = 0;             ///< solver invocations
  std::int64_t solved_flows = 0;       ///< flows passed through a solve
  std::int64_t rate_changes = 0;       ///< solve outputs that moved a rate
  std::int64_t maxmin_rounds = 0;      ///< waterfill freeze rounds (locality)
  std::int64_t stale_predictions = 0;  ///< lazily discarded heap entries
};

struct FlowSimResult {
  int arrivals = 0, admitted = 0;
  int arrivals_a = 0, admitted_a = 0;
  int arrivals_b = 0, admitted_b = 0;
  double admitted_frac() const {
    return arrivals ? static_cast<double>(admitted) / arrivals : 0;
  }
  double admitted_frac_a() const {
    return arrivals_a ? static_cast<double>(admitted_a) / arrivals_a : 0;
  }
  double admitted_frac_b() const {
    return arrivals_b ? static_cast<double>(admitted_b) / arrivals_b : 0;
  }
  /// Time-averaged fabric throughput over the aggregate server access
  /// capacity (intra-server flows carry no fabric traffic).
  double network_utilization = 0;
  double avg_occupancy = 0;
  double avg_job_duration_s = 0;
  int completed_jobs = 0;
  FlowSimPerf perf;
};

/// Run one simulation. When `metrics` is non-null the run's perf counters
/// are published once at the end under the flowsim.* family — pass a fresh
/// registry per run (counter names, like all registry names, are
/// register-once). Throws std::invalid_argument unless mean_vms is finite
/// and >= 2, occupancy is finite and > 0, and sim_duration_s and
/// rate_update_s are finite and >= 0 (a zero horizon runs nothing).
FlowSimResult run_flow_sim(const FlowSimConfig& cfg,
                           obs::MetricsRegistry* metrics = nullptr);

}  // namespace silo::flowsim
