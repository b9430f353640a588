#include "flowsim/flow_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "flowsim/flow_table.h"
#include "flowsim/maxmin.h"
#include "pacer/hose_allocator.h"
#include "util/rng.h"
#include "workload/patterns.h"

namespace silo::flowsim {
namespace {

struct Job {
  placement::TenantId placement_id = -1;
  bool class_a = false;
  int n_vms = 0;
  SiloGuarantee guarantee;
  std::vector<int> vm_server;
  std::vector<int> flow_ids;
  int open_flows = 0;
  double arrive_s = 0;
  double compute_end_s = 0;
  bool departed = false;
  bool counted = false;  ///< arrived after warmup
};

enum class EvKind : std::uint8_t {
  kArrival,
  kFlowDone,
  kComputeDone,
  kRateUpdate,  ///< coalesced re-solve grid point (rate_update_s > 0)
};

/// Heap entry. `seq` breaks time ties FIFO; because rate changes (the only
/// conditional pushes) are bit-identical across solver modes, the push
/// sequence — and therefore the whole event order — is identical too.
struct Ev {
  double t = 0;
  std::uint64_t seq = 0;
  std::int32_t id = 0;    ///< arrival index / flow id / job id
  std::uint32_t gen = 0;  ///< flow generation at prediction time
  EvKind kind = EvKind::kArrival;
};

/// 4-ary min-heap of events on (t, seq). The key is a strict total order
/// (seq is unique), so the pop sequence is that of any correct priority
/// queue; four children per node halve the depth a pop sifts through,
/// which is where a saturated run spends its event time (a 1500 s run at
/// 90% locality occupancy pops ~65M events).
class EventHeap {
 public:
  bool empty() const { return v_.empty(); }
  const Ev& top() const { return v_.front(); }

  void push(const Ev& e) {
    std::size_t i = v_.size();
    v_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!earlier(e, v_[parent])) break;
      v_[i] = v_[parent];
      i = parent;
    }
    v_[i] = e;
  }

  void pop() {
    const Ev last = v_.back();
    v_.pop_back();
    const std::size_t n = v_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      const std::size_t end = std::min(first + 4, n);
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c)
        if (earlier(v_[c], v_[best])) best = c;
      if (!earlier(v_[best], last)) break;
      v_[i] = v_[best];
      i = best;
    }
    v_[i] = last;
  }

 private:
  static bool earlier(const Ev& a, const Ev& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  std::vector<Ev> v_;
};

/// Event-driven fluid simulation: rates are piecewise-constant between
/// flow-set changes, so each flow's remaining bytes are integrated
/// analytically from its last touch point (`updated_s`) whenever its rate
/// changes or it completes.
///
/// Cross-mode equivalence invariant: every floating-point accumulation
/// (util_acc_, occupancy_acc_, per-flow remaining) happens in an order
/// fully determined by the event sequence plus the sorted-by-flow-id apply
/// order, and a rate write only happens when the solved value differs from
/// the current one. Untouched components/tenants re-solve to bit-identical
/// rates, so kReference performs exactly the same sequence of writes and
/// accumulations as kIncremental — only more (discarded) solver arithmetic.
class Sim {
 public:
  Sim(const FlowSimConfig& cfg, obs::MetricsRegistry* metrics)
      : cfg_(cfg),
        metrics_(metrics),
        topo_(cfg.topo),
        placer_(topo_, cfg.policy),
        table_(topo_.num_ports()),
        solver_(topo_, table_),
        rng_(cfg.seed),
        total_slots_(topo_.total_vm_slots()) {}

  FlowSimResult run();

 private:
  // --- event plumbing --------------------------------------------------
  /// An event at or past the horizon would never pop, so it is not stored
  /// (saturated runs predict many completions beyond it). It still takes
  /// its seq, so every stored event's key is what it would have been.
  void push_event(double t, EvKind kind, std::int32_t id,
                  std::uint32_t gen = 0) {
    const std::uint64_t seq = seq_++;
    if (t < cfg_.sim_duration_s) heap_.push(Ev{t, seq, id, gen, kind});
  }

  void on_arrival(int index);
  void on_flow_done(int f, std::uint32_t gen);
  void on_compute_done(int job_id);
  void depart(int job_id);

  // --- analytic integration --------------------------------------------
  /// Portion of [a, b] inside the measurement window.
  double measured_overlap(double a, double b) const {
    const double lo = std::max(a, cfg_.warmup_s);
    const double hi = std::min(b, cfg_.sim_duration_s);
    return hi > lo ? hi - lo : 0.0;
  }

  /// Advance flow f's remaining bytes (and fabric bit-seconds) from its
  /// last touch point to the current time under its current rate.
  void integrate(int f) {
    SimFlow& fl = table_.flow(f);
    if (fl.updated_s >= t_) return;
    if (fl.rate > 0) {
      fl.remaining -= fl.rate * (t_ - fl.updated_s) / 8.0;
      if (fl.n_ports > 0)
        util_acc_ += fl.rate * measured_overlap(fl.updated_s, t_);
    }
    fl.updated_s = t_;
  }

  /// Integrate occupied slot-seconds up to `t`; call before any placement
  /// mutation so the interval is charged at the pre-change occupancy.
  void occupancy_advance(double t) {
    occupancy_acc_ += used_slots_ * measured_overlap(occupancy_mark_s_, t);
    occupancy_mark_s_ = t;
  }

  // --- rate solving ----------------------------------------------------
  /// The apply gate: write a rate only when it actually changed. Untouched
  /// flows re-solved by kReference take this branch and leave no trace.
  void set_rate(int f, double rate_bps) {
    SimFlow& fl = table_.flow(f);
    if (fl.rate == rate_bps) return;
    integrate(f);
    fl.rate = rate_bps;
    ++fl.generation;
    ++perf_.rate_changes;
    predict_completion(f);
  }

  void predict_completion(int f) {
    const SimFlow& fl = table_.flow(f);
    if (fl.rate <= 0) return;
    double done_s = fl.updated_s + fl.remaining * 8.0 / fl.rate;
    if (done_s < t_) done_s = t_;  // clamp FP residue from integration
    push_event(done_s, EvKind::kFlowDone, f, fl.generation);
  }

  /// Re-solve after the fabric flow set changed. `job_id` is the affected
  /// tenant (reserved policies); `ports` are the path ports of the added/
  /// removed flows (locality component seeds). With rate_update_s > 0 the
  /// change is queued and solved at the next grid point instead (see
  /// on_rate_update); a queued new flow runs at rate 0 until that solve,
  /// so it has no prediction event and cannot complete early.
  void solve_for_change(int job_id, const std::vector<int>& ports) {
    const bool locality = cfg_.policy == placement::Policy::kLocality;
    if (locality && ports.empty()) return;  // intra-server: no fabric change
    if (cfg_.rate_update_s > 0) {
      if (locality)
        pending_ports_.insert(pending_ports_.end(), ports.begin(),
                              ports.end());
      else
        pending_jobs_.push_back(job_id);
      if (!update_scheduled_) {
        update_scheduled_ = true;
        const double g = cfg_.rate_update_s;
        push_event((std::floor(t_ / g) + 1.0) * g, EvKind::kRateUpdate, 0);
      }
      return;
    }
    solve_now(job_id, ports);
  }

  void solve_now(int job_id, const std::vector<int>& ports) {
    if (cfg_.policy == placement::Policy::kLocality) {
      ++perf_.solves;
      const auto& rates = cfg_.solver == SolverMode::kIncremental
                              ? solver_.solve_touching(ports)
                              : solver_.solve_all();
      for (const auto& [f, r] : rates) set_rate(f, r);
    } else if (cfg_.solver == SolverMode::kIncremental) {
      solve_job(job_id);
    } else {
      for (const int j : live_jobs_) solve_job(j);
    }
  }

  /// Drain queued changes at a grid point. Both modes queue the same
  /// changes and schedule the same grid events (the decisions depend only
  /// on the shared event timeline), the incremental solve covers the union
  /// of every touched component — closed flows' ports are queued too, so
  /// residual components are seeded — and the apply order stays ascending
  /// flow/job id. Coalescing therefore preserves the cross-mode
  /// write-sequence equivalence.
  void on_rate_update() {
    update_scheduled_ = false;
    if (cfg_.policy == placement::Policy::kLocality) {
      std::sort(pending_ports_.begin(), pending_ports_.end());
      pending_ports_.erase(
          std::unique(pending_ports_.begin(), pending_ports_.end()),
          pending_ports_.end());
      solve_now(-1, pending_ports_);
      pending_ports_.clear();
    } else if (cfg_.solver == SolverMode::kIncremental) {
      std::sort(pending_jobs_.begin(), pending_jobs_.end());
      pending_jobs_.erase(
          std::unique(pending_jobs_.begin(), pending_jobs_.end()),
          pending_jobs_.end());
      for (const int j : pending_jobs_) solve_job(j);  // departed: no-op
      pending_jobs_.clear();
    } else {
      pending_jobs_.clear();
      for (const int j : live_jobs_) solve_job(j);
    }
  }

  /// Reserved-rate sharing for Silo/Oktopus: the tenant's open flows split
  /// its hose guarantee max-min fairly (no sharing across tenants, so one
  /// tenant is always a complete component).
  void solve_job(int job_id) {
    const Job& job = jobs_[static_cast<std::size_t>(job_id)];
    if (job.open_flows == 0) return;
    ++perf_.solves;
    hose_demands_.clear();
    hose_ids_.clear();
    for (const int f : job.flow_ids) {
      const SimFlow& fl = table_.flow(f);
      if (!fl.open || fl.job != job_id) continue;
      hose_demands_.push_back(
          {fl.src_local, fl.dst_local, job.guarantee.bandwidth});
      hose_ids_.push_back(f);
    }
    const std::vector<RateBps> caps(static_cast<std::size_t>(job.n_vms),
                                    job.guarantee.bandwidth);
    const auto rates = pacer::hose_allocate(hose_demands_, caps, caps);
    perf_.solved_flows += static_cast<std::int64_t>(hose_ids_.size());
    for (std::size_t i = 0; i < hose_ids_.size(); ++i)
      set_rate(hose_ids_[i], rates[i].bps());
  }

  // --- workload sampling (draw order is part of the seed contract) ------
  int sample_vms() {
    // Geometric around the mean, at least 2 (a tenant needs VM pairs).
    const double p = 1.0 / std::max(1.0, cfg_.mean_vms - 1.0);
    int n = 2;
    while (rng_.uniform() > p && n < 8 * cfg_.mean_vms) ++n;
    return n;
  }
  RateBps sample_bw(RateBps mean) {
    return RateBps{std::clamp(rng_.exponential(mean.bps()),
                              cfg_.topo.server_link_rate.bps() / 100.0,
                              cfg_.topo.server_link_rate.bps() / 2.0)};
  }

  const FlowSimConfig& cfg_;
  obs::MetricsRegistry* metrics_;
  topology::Topology topo_;
  placement::PlacementEngine placer_;
  FlowTable table_;
  MaxMinSolver solver_;
  Rng rng_;
  FlowSimResult result_;
  FlowSimPerf perf_;

  std::vector<double> arrivals_;
  std::vector<Job> jobs_;
  std::vector<int> live_jobs_;  ///< non-departed job ids, ascending
  EventHeap heap_;
  std::uint64_t seq_ = 0;
  double t_ = 0;

  const int total_slots_;
  int used_slots_ = 0;
  double util_acc_ = 0;          ///< bit-seconds carried by the fabric
  double occupancy_acc_ = 0;     ///< slot-seconds occupied
  double occupancy_mark_s_ = 0;  ///< occupancy integrated up to here
  double job_duration_acc_ = 0;

  // Coalesced-mode queues (rate_update_s > 0): flow-set changes
  // accumulated since the last grid solve.
  std::vector<int> pending_ports_, pending_jobs_;
  bool update_scheduled_ = false;

  // Scratch reused across events.
  std::vector<int> touched_ports_;
  std::vector<pacer::HoseDemand> hose_demands_;
  std::vector<int> hose_ids_;
};

void Sim::on_arrival(int index) {
  if (static_cast<std::size_t>(index) + 1 < arrivals_.size())
    push_event(arrivals_[static_cast<std::size_t>(index) + 1],
               EvKind::kArrival, index + 1);
  const double at = t_;
  const bool measuring = at >= cfg_.warmup_s;

  const bool class_a = rng_.uniform() < cfg_.class_a_fraction;
  TenantRequest req;
  req.num_vms = sample_vms();
  req.tenant_class =
      class_a ? TenantClass::kDelaySensitive : TenantClass::kBandwidthOnly;
  if (class_a) {
    req.guarantee = {sample_bw(cfg_.a_bandwidth_mean), cfg_.a_burst,
                     cfg_.a_delay, cfg_.a_burst_rate};
    req.guarantee.burst_rate =
        std::max(req.guarantee.burst_rate, req.guarantee.bandwidth);
  } else {
    req.guarantee = {sample_bw(cfg_.b_bandwidth_mean), cfg_.b_burst,
                     TimeNs{0}, RateBps{0}};
  }
  if (measuring) {
    ++result_.arrivals;
    (class_a ? result_.arrivals_a : result_.arrivals_b)++;
  }
  occupancy_advance(at);
  auto admitted = placer_.place(req);
  used_slots_ = total_slots_ - placer_.free_slots();
  if (!admitted) return;
  if (measuring) {
    ++result_.admitted;
    (class_a ? result_.admitted_a : result_.admitted_b)++;
  }

  const int job_id = static_cast<int>(jobs_.size());
  Job job;
  job.placement_id = admitted->id;
  job.class_a = class_a;
  job.n_vms = req.num_vms;
  job.guarantee = req.guarantee;
  job.vm_server = admitted->vm_to_server;
  job.arrive_s = at;
  job.compute_end_s = at + rng_.exponential(cfg_.compute_time_mean_s);
  job.counted = measuring;

  std::vector<workload::Pair> pairs;
  if (class_a) {
    pairs = workload::all_to_one(req.num_vms);
  } else if (cfg_.permutation_x <= 0 ||
             cfg_.permutation_x >= req.num_vms - 1) {
    pairs = workload::all_to_all(req.num_vms);
  } else {
    pairs = workload::permutation(req.num_vms, cfg_.permutation_x, rng_);
  }
  // One transfer-duration draw per job; each flow carries the bytes its
  // reserved share moves in that time (class-A flows share the
  // aggregator's hose, class-B flows get the full per-VM rate).
  const double duration_s = rng_.exponential(
      class_a ? cfg_.a_transfer_time_mean_s : cfg_.b_transfer_time_mean_s);
  const double per_flow_rate =
      class_a ? req.guarantee.bandwidth.bps() / (req.num_vms - 1)
              : req.guarantee.bandwidth.bps();
  const double flow_bytes = std::max(1.0, per_flow_rate / 8.0 * duration_s);

  touched_ports_.clear();
  for (const auto& [src, dst] : pairs) {
    const int ss = job.vm_server[static_cast<std::size_t>(src)];
    const int ds = job.vm_server[static_cast<std::size_t>(dst)];
    const topology::PortSpan span = topo_.path_span(ss, ds);
    const int fid = table_.allocate(span);
    SimFlow& fl = table_.flow(fid);
    fl.job = job_id;
    fl.src_local = src;
    fl.dst_local = dst;
    fl.remaining = flow_bytes;
    fl.updated_s = at;
    job.flow_ids.push_back(fid);
    ++job.open_flows;
    for (const topology::PortId p : span) touched_ports_.push_back(p.value);
  }
  jobs_.push_back(std::move(job));
  live_jobs_.push_back(job_id);  // ids are monotonic: stays sorted
  push_event(jobs_.back().compute_end_s, EvKind::kComputeDone, job_id);

  if (cfg_.policy == placement::Policy::kLocality) {
    // Intra-server flows never touch the fabric: access-link rate, fixed.
    for (const int f : jobs_.back().flow_ids)
      if (table_.flow(f).n_ports == 0)
        set_rate(f, cfg_.topo.server_link_rate.bps());
  }
  solve_for_change(job_id, touched_ports_);
}

void Sim::on_flow_done(int f, std::uint32_t gen) {
  SimFlow& fl = table_.flow(f);
  if (!fl.open || fl.generation != gen) {
    ++perf_.stale_predictions;
    return;
  }
  integrate(f);  // final fabric bit-seconds under the closing rate
  fl.remaining = 0;
  const int job_id = fl.job;
  touched_ports_.clear();
  for (int i = 0; i < fl.n_ports; ++i)
    touched_ports_.push_back(fl.ports[static_cast<std::size_t>(i)]);
  table_.close(f);
  Job& job = jobs_[static_cast<std::size_t>(job_id)];
  --job.open_flows;
  solve_for_change(job_id, touched_ports_);
  if (job.open_flows == 0 && job.compute_end_s <= t_) depart(job_id);
}

void Sim::on_compute_done(int job_id) {
  const Job& job = jobs_[static_cast<std::size_t>(job_id)];
  if (!job.departed && job.open_flows == 0) depart(job_id);
}

void Sim::depart(int job_id) {
  Job& job = jobs_[static_cast<std::size_t>(job_id)];
  job.departed = true;
  occupancy_advance(t_);
  placer_.remove(job.placement_id);
  used_slots_ = total_slots_ - placer_.free_slots();
  live_jobs_.erase(
      std::lower_bound(live_jobs_.begin(), live_jobs_.end(), job_id));
  if (job.counted) {
    ++result_.completed_jobs;
    job_duration_acc_ += t_ - job.arrive_s;
  }
}

FlowSimResult Sim::run() {
  // Pre-generate Poisson arrivals. Residence = max(compute, transfer
  // duration) per class, both of which are sampled directly, so the
  // arrival rate that realizes the occupancy target is predictable across
  // policies.
  const double res_a =
      std::max(cfg_.compute_time_mean_s, cfg_.a_transfer_time_mean_s) * 1.15;
  const double res_b =
      std::max(cfg_.compute_time_mean_s, cfg_.b_transfer_time_mean_s) * 1.15;
  const double residence_est = cfg_.class_a_fraction * res_a +
                               (1.0 - cfg_.class_a_fraction) * res_b;
  const double lambda =
      cfg_.occupancy * total_slots_ / (cfg_.mean_vms * residence_est);
  for (double t = rng_.exponential(1.0 / lambda); t < cfg_.sim_duration_s;
       t += rng_.exponential(1.0 / lambda))
    arrivals_.push_back(t);
  if (!arrivals_.empty()) push_event(arrivals_[0], EvKind::kArrival, 0);

  while (!heap_.empty() && heap_.top().t < cfg_.sim_duration_s) {
    const Ev ev = heap_.top();
    heap_.pop();
    t_ = ev.t;
    ++perf_.events;
    switch (ev.kind) {
      case EvKind::kArrival:
        on_arrival(ev.id);
        break;
      case EvKind::kFlowDone:
        on_flow_done(ev.id, ev.gen);
        break;
      case EvKind::kComputeDone:
        on_compute_done(ev.id);
        break;
      case EvKind::kRateUpdate:
        on_rate_update();
        break;
    }
  }

  // Close the measurement window: charge open flows and occupied slots up
  // to the horizon. Ascending flow id, the canonical apply order.
  t_ = cfg_.sim_duration_s;
  const int n_slots = table_.size();
  for (int f = 0; f < n_slots; ++f)
    if (table_.flow(f).open) integrate(f);
  occupancy_advance(t_);

  const double measured_s =
      std::max(0.0, cfg_.sim_duration_s - cfg_.warmup_s);
  const double fabric_capacity = static_cast<double>(topo_.num_servers()) *
                                 cfg_.topo.server_link_rate.bps();
  if (measured_s > 0) {
    result_.network_utilization = util_acc_ / (fabric_capacity * measured_s);
    result_.avg_occupancy = occupancy_acc_ / (total_slots_ * measured_s);
  }
  if (result_.completed_jobs > 0)
    result_.avg_job_duration_s = job_duration_acc_ / result_.completed_jobs;

  perf_.maxmin_rounds = solver_.waterfill_rounds();
  if (cfg_.policy == placement::Policy::kLocality)
    perf_.solved_flows = solver_.solved_flows();
  result_.perf = perf_;
  if (metrics_) {
    metrics_->counter("flowsim.events", "events", "flowsim")
        .inc(perf_.events);
    metrics_->counter("flowsim.solves", "solves", "flowsim")
        .inc(perf_.solves);
    metrics_->counter("flowsim.solved_flows", "flows", "flowsim")
        .inc(perf_.solved_flows);
    metrics_->counter("flowsim.rate_changes", "changes", "flowsim")
        .inc(perf_.rate_changes);
    metrics_->counter("flowsim.maxmin_rounds", "rounds", "flowsim")
        .inc(perf_.maxmin_rounds);
    metrics_->counter("flowsim.stale_predictions", "events", "flowsim")
        .inc(perf_.stale_predictions);
  }
  return result_;
}

}  // namespace

FlowSimResult run_flow_sim(const FlowSimConfig& cfg,
                           obs::MetricsRegistry* metrics) {
  // The arrival rate is occupancy x slots / (mean_vms x residence). An
  // infinite rate makes every inter-arrival gap 0 and an infinite horizon
  // never ends the arrival loop; a NaN grid step would poison the event
  // order. Reject those along with the values no run can mean.
  const auto reject = [](const char* what) {
    throw std::invalid_argument(std::string("FlowSimConfig: ") + what);
  };
  if (!(cfg.mean_vms >= 2) || !std::isfinite(cfg.mean_vms))
    reject("mean_vms must be finite and >= 2");
  if (!(cfg.occupancy > 0) || !std::isfinite(cfg.occupancy))
    reject("occupancy must be finite and > 0");
  if (!(cfg.sim_duration_s >= 0) || !std::isfinite(cfg.sim_duration_s))
    reject("sim_duration_s must be finite and >= 0");
  if (!(cfg.rate_update_s >= 0) || !std::isfinite(cfg.rate_update_s))
    reject("rate_update_s must be finite and >= 0");
  Sim sim(cfg, metrics);
  return sim.run();
}

}  // namespace silo::flowsim
