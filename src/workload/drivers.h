// Workload drivers that exercise ClusterSim with the paper's traffic:
//  - EtcDriver: memcached running Facebook's ETC workload (Fig 1, Fig 11)
//  - BulkDriver: netperf-style backlogged transfers (shuffle phase)
//  - BurstDriver: class-A OLDI tenants, synchronized all-to-one message
//    bursts at Poisson epochs (Fig 12-14)
//  - PoissonMessageDriver: single-pair Poisson messages (Table 1)
#pragma once

#include <functional>
#include <vector>

#include "sim/cluster.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/patterns.h"

namespace silo::workload {

// Drivers retry transport-aborted messages under set_retry() (no retry by
// default), deliberately past the `until` cutoff: an accepted request is
// driven to completion or abandonment even after new load stops, which is
// what lets fault tests prove "every message eventually completes".

/// Where delivered-message latency went, aggregated over a driver's run:
/// one Stats series per MessageBreakdown component (us), plus the worst
/// |sum(components) - latency| seen (ns). The attribution layer guarantees
/// exact sums, so max_sum_error_ns staying at 0 is the invariant
/// bench_breakdown and test_obs assert.
struct BreakdownAgg {
  Stats pacing_us;
  Stats queueing_us;
  Stats serialization_us;
  Stats retransmit_us;
  TimeNs max_sum_error_ns {};
  std::int64_t messages = 0;

  void add(const sim::ClusterSim::MessageResult& r);
};

/// Facebook ETC-like key-value traffic (Atikoglu et al., SIGMETRICS 2012):
/// small fixed-size GET requests, generalized-Pareto value sizes. Latency
/// recorded per transaction: request sent -> response delivered.
class EtcDriver {
 public:
  struct Config {
    double ops_per_sec = 10'000;
    Bytes request_size {50};
    /// Generalized-Pareto value-size parameters from the ETC trace fit.
    double value_mu = 0.0;
    double value_sigma = 214.48;
    double value_xi = 0.348;
    Bytes max_value = 1 * kKB;   ///< the paper's observed max value size
    Bytes min_value {1};
    /// End-host stack + cache lookup time, exponential mean. The paper's
    /// testbed measures this inside transaction latency (its isolated p99
    /// of ~270 us is stack-dominated), so the driver models it; Silo's
    /// *network* guarantee of course excludes it.
    TimeNs server_processing_mean = 60 * kUsec;
  };

  EtcDriver(sim::ClusterSim& cluster, int tenant, int server_vm,
            std::vector<int> client_vms, Config cfg, std::uint64_t seed);

  /// Begin issuing transactions; stops scheduling new ones after `until`.
  void start(TimeNs until);

  void set_retry(const RetryPolicy& p) { retry_ = p; }

  const Stats& latencies_us() const { return latencies_us_; }
  /// Per-message latency attribution over both transaction legs.
  const BreakdownAgg& breakdown() const { return breakdown_; }
  std::int64_t completed_ops() const { return completed_; }
  std::int64_t issued_ops() const { return issued_; }
  std::int64_t aborted_messages() const { return aborted_; }
  std::int64_t retried_messages() const { return retried_; }
  std::int64_t abandoned_ops() const { return abandoned_; }

 private:
  void schedule_next();
  void on_arrival();
  void send_request(int client, Bytes value, TimeNs sent, int attempt);
  void send_response(int client, Bytes value, TimeNs sent, int attempt);
  Bytes sample_value_size();

  sim::ClusterSim& cluster_;
  int tenant_;
  int server_vm_;
  std::vector<int> client_vms_;
  Config cfg_;
  Rng rng_;
  RetryPolicy retry_;
  TimeNs until_ {};
  Stats latencies_us_;
  BreakdownAgg breakdown_;
  std::int64_t completed_ = 0;
  std::int64_t issued_ = 0;
  std::int64_t aborted_ = 0;
  std::int64_t retried_ = 0;
  std::int64_t abandoned_ = 0;
};

/// Backlogged bulk transfers over a set of VM pairs (netperf / shuffle):
/// closed-loop chunks keep every flow busy for the whole run.
class BulkDriver {
 public:
  BulkDriver(sim::ClusterSim& cluster, int tenant, std::vector<Pair> pairs,
             Bytes chunk = 256 * kKB, std::uint64_t seed = 1);

  void start(TimeNs until);

  void set_retry(const RetryPolicy& p) { retry_ = p; }

  /// Aggregate delivered goodput in bits/s over [start, now].
  double goodput_bps() const;

  /// Completion latency of each chunk-sized message (us).
  const Stats& chunk_latencies_us() const { return chunk_latencies_us_; }
  const BreakdownAgg& breakdown() const { return breakdown_; }
  Bytes chunk_size() const { return chunk_; }
  std::int64_t completed_chunks() const { return completed_; }
  std::int64_t aborted_messages() const { return aborted_; }
  std::int64_t retried_messages() const { return retried_; }
  std::int64_t abandoned_chunks() const { return abandoned_; }

 private:
  void pump(std::size_t pair_idx, int attempt);

  Stats chunk_latencies_us_;
  BreakdownAgg breakdown_;

  sim::ClusterSim& cluster_;
  int tenant_;
  std::vector<Pair> pairs_;
  Bytes chunk_;
  Rng rng_;
  RetryPolicy retry_;
  TimeNs until_ {};
  TimeNs started_ {};
  std::int64_t completed_ = 0;
  std::int64_t aborted_ = 0;
  std::int64_t retried_ = 0;
  std::int64_t abandoned_ = 0;
};

/// Class-A OLDI tenant: at Poisson epochs every worker VM simultaneously
/// sends an `message_size` response toward the aggregator (VM 0).
class BurstDriver {
 public:
  struct Config {
    double epochs_per_sec = 100;
    Bytes message_size = 15 * kKB;
    int receiver = 0;  ///< tenant-local VM id of the aggregator
  };

  BurstDriver(sim::ClusterSim& cluster, int tenant, int n_vms, Config cfg,
              std::uint64_t seed);

  void start(TimeNs until);

  void set_retry(const RetryPolicy& p) { retry_ = p; }

  const Stats& latencies_us() const { return latencies_us_; }
  const BreakdownAgg& breakdown() const { return breakdown_; }
  std::int64_t messages_with_rto() const { return rto_messages_; }
  std::int64_t completed_messages() const { return completed_; }
  std::int64_t issued_messages() const { return issued_; }
  std::int64_t aborted_messages() const { return aborted_; }
  std::int64_t retried_messages() const { return retried_; }
  std::int64_t abandoned_messages() const { return abandoned_; }

 private:
  void schedule_next();
  void on_arrival();
  void send_one(int worker, TimeNs sent, int attempt);

  sim::ClusterSim& cluster_;
  int tenant_;
  int n_vms_;
  Config cfg_;
  Rng rng_;
  RetryPolicy retry_;
  TimeNs until_ {};
  Stats latencies_us_;
  BreakdownAgg breakdown_;
  std::int64_t rto_messages_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t issued_ = 0;
  std::int64_t aborted_ = 0;
  std::int64_t retried_ = 0;
  std::int64_t abandoned_ = 0;
};

/// Poisson-arrival fixed-size messages on one VM pair (Table 1).
class PoissonMessageDriver {
 public:
  PoissonMessageDriver(sim::ClusterSim& cluster, int tenant, int src, int dst,
                       double msgs_per_sec, Bytes size, std::uint64_t seed);

  void start(TimeNs until);

  void set_retry(const RetryPolicy& p) { retry_ = p; }

  const Stats& latencies_us() const { return latencies_us_; }
  const BreakdownAgg& breakdown() const { return breakdown_; }
  std::int64_t completed() const { return completed_; }
  std::int64_t issued() const { return issued_; }
  std::int64_t aborted_messages() const { return aborted_; }
  std::int64_t retried_messages() const { return retried_; }
  std::int64_t abandoned_messages() const { return abandoned_; }

 private:
  void schedule_next();
  void on_arrival();
  void send_one(TimeNs sent, int attempt);

  sim::ClusterSim& cluster_;
  int tenant_, src_, dst_;
  double rate_;
  Bytes size_;
  Rng rng_;
  RetryPolicy retry_;
  TimeNs until_ {};
  Stats latencies_us_;
  BreakdownAgg breakdown_;
  std::int64_t completed_ = 0;
  std::int64_t issued_ = 0;
  std::int64_t aborted_ = 0;
  std::int64_t retried_ = 0;
  std::int64_t abandoned_ = 0;
};

}  // namespace silo::workload
