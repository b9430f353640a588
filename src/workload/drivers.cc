#include "workload/drivers.h"

#include <algorithm>
#include <cstdlib>

namespace silo::workload {

void BreakdownAgg::add(const sim::ClusterSim::MessageResult& r) {
  const auto& b = r.breakdown;
  const auto us = [](TimeNs ns) {
    return static_cast<double>(ns) / static_cast<double>(kUsec);
  };
  pacing_us.add(us(b.pacing_ns));
  queueing_us.add(us(b.queueing_ns));
  serialization_us.add(us(b.serialization_ns));
  retransmit_us.add(us(b.retransmit_ns));
  max_sum_error_ns = std::max(
      max_sum_error_ns, TimeNs{std::abs((b.sum() - r.latency).count())});
  ++messages;
}

// ---------------------------------------------------------------- EtcDriver

EtcDriver::EtcDriver(sim::ClusterSim& cluster, int tenant, int server_vm,
                     std::vector<int> client_vms, Config cfg,
                     std::uint64_t seed)
    : cluster_(cluster),
      tenant_(tenant),
      server_vm_(server_vm),
      client_vms_(std::move(client_vms)),
      cfg_(cfg),
      rng_(seed) {}

Bytes EtcDriver::sample_value_size() {
  const double v =
      rng_.generalized_pareto(cfg_.value_mu, cfg_.value_sigma, cfg_.value_xi);
  return std::clamp(static_cast<Bytes>(v), cfg_.min_value, cfg_.max_value);
}

void EtcDriver::start(TimeNs until) {
  until_ = until;
  schedule_next();
}

void EtcDriver::schedule_next() {
  const double gap_s = rng_.exponential(1.0 / cfg_.ops_per_sec);
  const TimeNs t = cluster_.tenant_events(tenant_).now() +
                   static_cast<TimeNs>(gap_s * static_cast<double>(kSec));
  if (t > until_) return;
  // Arrivals ride typed raw events; the per-transaction response chain below
  // stays on std::function callbacks (cold, message-granularity).
  const auto arrive = [](void* self, std::uint32_t) {
    static_cast<EtcDriver*>(self)->on_arrival();
  };
  cluster_.tenant_events(tenant_).raw_at(t, arrive, this);
}

void EtcDriver::on_arrival() {
  const auto client = client_vms_[static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(client_vms_.size()) - 1))];
  const Bytes value = sample_value_size();
  ++issued_;
  send_request(client, value, cluster_.tenant_events(tenant_).now(), 1);
  schedule_next();
}

// GET: request to the cache server; on arrival the server replies with
// the value; transaction latency is request-send -> response-delivered.
// Either leg may be aborted by the transport under faults; the client
// retries the whole transaction (request leg) or the server re-sends the
// response, both after jittered backoff.
void EtcDriver::send_request(int client, Bytes value, TimeNs sent,
                             int attempt) {
  cluster_.send_message(
      tenant_, client, server_vm_, cfg_.request_size,
      [this, client, value, sent,
       attempt](const sim::ClusterSim::MessageResult& r) {
        if (r.aborted) {
          ++aborted_;
          if (attempt >= retry_.max_attempts) {
            ++abandoned_;
            return;
          }
          ++retried_;
          cluster_.tenant_events(tenant_).after(
              retry_delay(retry_, attempt, rng_), [this, client, value, sent,
                                                   attempt] {
                send_request(client, value, sent, attempt + 1);
              });
          return;
        }
        breakdown_.add(r);
        const auto think = static_cast<TimeNs>(rng_.exponential(
            static_cast<double>(cfg_.server_processing_mean)));
        cluster_.tenant_events(tenant_).after(
            think, [this, client, value, sent] {
              send_response(client, value, sent, 1);
            });
      });
}

void EtcDriver::send_response(int client, Bytes value, TimeNs sent,
                              int attempt) {
  cluster_.send_message(
      tenant_, server_vm_, client, value,
      [this, client, value, sent,
       attempt](const sim::ClusterSim::MessageResult& r) {
        if (r.aborted) {
          ++aborted_;
          if (attempt >= retry_.max_attempts) {
            ++abandoned_;
            return;
          }
          ++retried_;
          cluster_.tenant_events(tenant_).after(
              retry_delay(retry_, attempt, rng_), [this, client, value, sent,
                                                   attempt] {
                send_response(client, value, sent, attempt + 1);
              });
          return;
        }
        ++completed_;
        breakdown_.add(r);
        const TimeNs now = cluster_.tenant_events(tenant_).now();
        latencies_us_.add(static_cast<double>(now - sent) /
                          static_cast<double>(kUsec));
      });
}

// --------------------------------------------------------------- BulkDriver

BulkDriver::BulkDriver(sim::ClusterSim& cluster, int tenant,
                       std::vector<Pair> pairs, Bytes chunk, std::uint64_t seed)
    : cluster_(cluster), tenant_(tenant), pairs_(std::move(pairs)),
      chunk_(chunk), rng_(seed) {}

void BulkDriver::start(TimeNs until) {
  until_ = until;
  started_ = cluster_.tenant_events(tenant_).now();
  for (std::size_t i = 0; i < pairs_.size(); ++i) pump(i, 1);
}

void BulkDriver::pump(std::size_t pair_idx, int attempt) {
  // Fresh chunks stop at the cutoff; a retried chunk (attempt > 1) is
  // driven to completion regardless, so faulted transfers finish.
  if (attempt == 1 && cluster_.tenant_events(tenant_).now() >= until_) return;
  const auto [src, dst] = pairs_[pair_idx];
  cluster_.send_message(
      tenant_, src, dst, chunk_,
      [this, pair_idx, attempt](const sim::ClusterSim::MessageResult& r) {
        if (r.aborted) {
          ++aborted_;
          if (attempt >= retry_.max_attempts) {
            ++abandoned_;
            pump(pair_idx, 1);  // abandon this chunk, move on
            return;
          }
          ++retried_;
          cluster_.tenant_events(tenant_).after(
              retry_delay(retry_, attempt, rng_), [this, pair_idx, attempt] {
                pump(pair_idx, attempt + 1);
              });
          return;
        }
        ++completed_;
        breakdown_.add(r);
        chunk_latencies_us_.add(static_cast<double>(r.latency) /
                                static_cast<double>(kUsec));
        pump(pair_idx, 1);
      });
}

double BulkDriver::goodput_bps() const {
  std::int64_t bytes = 0;
  for (const auto& [src, dst] : pairs_)
    bytes += cluster_.pair_delivered_bytes(tenant_, src, dst);
  const TimeNs elapsed = cluster_.tenant_events(tenant_).now() - started_;
  if (elapsed <= TimeNs{0}) return 0.0;
  return static_cast<double>(bytes) * 8e9 / static_cast<double>(elapsed);
}

// -------------------------------------------------------------- BurstDriver

BurstDriver::BurstDriver(sim::ClusterSim& cluster, int tenant, int n_vms,
                         Config cfg, std::uint64_t seed)
    : cluster_(cluster), tenant_(tenant), n_vms_(n_vms), cfg_(cfg),
      rng_(seed) {}

void BurstDriver::start(TimeNs until) {
  until_ = until;
  schedule_next();
}

void BurstDriver::schedule_next() {
  const double gap_s = rng_.exponential(1.0 / cfg_.epochs_per_sec);
  const TimeNs t = cluster_.tenant_events(tenant_).now() +
                   static_cast<TimeNs>(gap_s * static_cast<double>(kSec));
  if (t > until_) return;
  const auto arrive = [](void* self, std::uint32_t) {
    static_cast<BurstDriver*>(self)->on_arrival();
  };
  cluster_.tenant_events(tenant_).raw_at(t, arrive, this);
}

void BurstDriver::on_arrival() {
  // Partition-aggregate: every worker responds to the aggregator at once.
  for (int v = 0; v < n_vms_; ++v) {
    if (v == cfg_.receiver) continue;
    ++issued_;
    send_one(v, cluster_.tenant_events(tenant_).now(), 1);
  }
  schedule_next();
}

void BurstDriver::send_one(int worker, TimeNs sent, int attempt) {
  cluster_.send_message(
      tenant_, worker, cfg_.receiver, cfg_.message_size,
      [this, worker, sent, attempt](const sim::ClusterSim::MessageResult& r) {
        if (r.aborted) {
          ++aborted_;
          if (attempt >= retry_.max_attempts) {
            ++abandoned_;
            return;
          }
          ++retried_;
          cluster_.tenant_events(tenant_).after(
              retry_delay(retry_, attempt, rng_),
              [this, worker, sent, attempt] {
                send_one(worker, sent, attempt + 1);
              });
          return;
        }
        ++completed_;
        breakdown_.add(r);
        // Latency from the first issue, so retried messages surface as the
        // long tail they are rather than resetting the clock.
        latencies_us_.add(
            static_cast<double>(cluster_.tenant_events(tenant_).now() - sent) /
            static_cast<double>(kUsec));
        if (r.had_rto || attempt > 1) ++rto_messages_;
      });
}

// ----------------------------------------------------- PoissonMessageDriver

PoissonMessageDriver::PoissonMessageDriver(sim::ClusterSim& cluster,
                                           int tenant, int src, int dst,
                                           double msgs_per_sec, Bytes size,
                                           std::uint64_t seed)
    : cluster_(cluster), tenant_(tenant), src_(src), dst_(dst),
      rate_(msgs_per_sec), size_(size), rng_(seed) {}

void PoissonMessageDriver::start(TimeNs until) {
  until_ = until;
  schedule_next();
}

void PoissonMessageDriver::schedule_next() {
  const double gap_s = rng_.exponential(1.0 / rate_);
  const TimeNs t = cluster_.tenant_events(tenant_).now() +
                   static_cast<TimeNs>(gap_s * static_cast<double>(kSec));
  if (t > until_) return;
  cluster_.tenant_events(tenant_).raw_at(
      t,
      [](void* self, std::uint32_t) {
        static_cast<PoissonMessageDriver*>(self)->on_arrival();
      },
      this);
}

void PoissonMessageDriver::on_arrival() {
  ++issued_;
  send_one(cluster_.tenant_events(tenant_).now(), 1);
  schedule_next();
}

void PoissonMessageDriver::send_one(TimeNs sent, int attempt) {
  cluster_.send_message(
      tenant_, src_, dst_, size_,
      [this, sent, attempt](const sim::ClusterSim::MessageResult& r) {
        if (r.aborted) {
          ++aborted_;
          if (attempt >= retry_.max_attempts) {
            ++abandoned_;
            return;
          }
          ++retried_;
          cluster_.tenant_events(tenant_).after(
              retry_delay(retry_, attempt, rng_), [this, sent, attempt] {
                send_one(sent, attempt + 1);
              });
          return;
        }
        ++completed_;
        breakdown_.add(r);
        const TimeNs now = cluster_.tenant_events(tenant_).now();
        latencies_us_.add(static_cast<double>(now - sent) /
                          static_cast<double>(kUsec));
      });
}

}  // namespace silo::workload
