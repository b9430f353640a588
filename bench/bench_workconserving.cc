// Work-conserving headroom lending: utilization recovered from idle
// guaranteed reservations vs. the guarantee-violation rate it costs
// (docs/WORKCONSERVING.md).
//
// One antagonistic-churn workload, three runs:
//   1. Silo, lending off — the reference. Run twice; the delivered-packet
//      trace checksums must be bit-identical (the lending-off path
//      schedules zero lease events) and every pacer.lease.* counter zero.
//   2. Silo, lending on — the owner's on/off duty cycle forces the lender
//      through continuous grant -> revoke -> re-grant churn. Gates: the
//      delay-guaranteed owner's late-message rate stays exactly 0 and the
//      borrower recovers >= 30% of the owner's stranded reservation.
//   3. TCP, no pacing, no priority — the SWP-style work-conserving
//      baseline. It recovers utilization too, but with nothing protecting
//      the owner's §4.1 bound; its violation rate is reported for the
//      comparison table (no gate — it is *expected* to be late).
//
// The workload is fully deterministic (fixed schedules, no RNG): the owner
// (delay-sensitive, B = 300 Mbps, S = 15 KB, d = 1300 us) bursts one
// 15 KB message every 500 us during alternating 4 ms phases and sleeps in
// between; the borrower (bandwidth-only, B = 500 Mbps) keeps four 64 KB
// message chains outstanding on a colocated VM pair. Server links are
// 1 Gbps, so the borrower's lease actually displaces owner headroom on the
// shared uplink — the interesting regime for the safety argument.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/cluster.h"
#include "util/stats.h"

using namespace silo;

namespace {

struct WorkloadSpec {
  TimeNs horizon {};        ///< run length; sends stop 5 ms before it
  TimeNs phase = 4 * kMsec; ///< owner on/off phase length
  TimeNs burst_gap = 500 * kUsec;  ///< owner inter-message gap while on
  Bytes owner_msg = 15 * kKB;      ///< = S, rides the burst allowance
  Bytes borrower_msg = 64 * kKB;
  int borrower_chains = 4;  ///< closed-loop chains kept outstanding
};

struct RunStats {
  std::int64_t owner_completed = 0;
  std::int64_t owner_violations = 0;
  std::int64_t owner_bytes = 0;
  std::int64_t borrower_bytes = 0;
  std::uint64_t trace_checksum = 0;    ///< canonical delivery trace
  std::uint64_t arrival_checksum = 0;  ///< the trace in arrival order
  std::int64_t trace_packets = 0;
  std::int64_t lease_granted = 0, lease_revoked = 0, lease_expired = 0;
  std::int64_t lease_applied = 0, lease_active_end = 0;
  std::vector<obs::MetricSample> metrics;
};

sim::ClusterConfig make_config(sim::Scheme scheme, bool lending) {
  sim::ClusterConfig cfg;
  cfg.topo.pods = 1;
  cfg.topo.racks_per_pod = 1;
  cfg.topo.servers_per_rack = 2;
  cfg.topo.vm_slots_per_server = 4;
  cfg.topo.server_link_rate = 1 * kGbps;
  cfg.scheme = scheme;
  cfg.lending.enabled = lending;
  cfg.lending.epoch = 500 * kUsec;
  return cfg;
}

RunStats run_case(sim::Scheme scheme, bool lending, const WorkloadSpec& w) {
  sim::ClusterSim sim(make_config(scheme, lending));

  TenantRequest owner_req;
  owner_req.num_vms = 2;
  owner_req.tenant_class = TenantClass::kDelaySensitive;
  owner_req.guarantee = {300 * kMbps, 15 * kKB, 1300 * kUsec, 1 * kGbps};
  const int owner = sim.add_tenant_pinned(owner_req, {0, 1});

  TenantRequest borrower_req;
  borrower_req.num_vms = 2;
  borrower_req.tenant_class = TenantClass::kBandwidthOnly;
  borrower_req.guarantee = {500 * kMbps, 15 * kKB, TimeNs{0}, 1 * kGbps};
  const int borrower = sim.add_tenant_pinned(borrower_req, {0, 1});

  RunStats r;
  sim.enable_delivery_trace();

  const TimeNs stop = w.horizon - 5 * kMsec;

  // Owner: bursts during even phases, silent during odd ones. The flapping
  // demand is the antagonistic churn — every phase edge forces the lender
  // to re-grant or reclaim within an epoch.
  for (TimeNs ps {0}; ps < stop; ps = ps + 2 * w.phase) {
    for (TimeNs t = ps; t < ps + w.phase && t < stop; t = t + w.burst_gap) {
      sim.events().at(t, [&sim, owner, &w] {
        sim.send_message(owner, 0, 1, w.owner_msg);
      });
    }
  }

  // Borrower: closed-loop chains on one pair keep its backlog (and so the
  // lender's demand signal) continuously nonzero.
  std::function<void()> pump = [&] {
    if (sim.events().now() >= stop) return;
    sim.send_message(borrower, 0, 1, w.borrower_msg,
                     [&pump](const sim::ClusterSim::MessageResult&) {
                       pump();
                     });
  };
  for (int c = 0; c < w.borrower_chains; ++c) sim.events().at(TimeNs{0}, pump);

  sim.run_until(w.horizon);

  r.owner_completed = sim.tenant_counters(owner).completed;
  r.owner_violations = sim.tenant_counters(owner).slo_violations;
  r.owner_bytes = sim.pair_delivered_bytes(owner, 0, 1);
  r.borrower_bytes = sim.pair_delivered_bytes(borrower, 0, 1);
  r.trace_checksum = sim.delivery_trace_checksum();
  r.arrival_checksum = sim.island_trace_checksum();
  r.trace_packets = sim.delivery_trace_size();
  r.metrics = sim.merged_metrics();
  const auto value = [&r](const char* name) {
    return obs::metric_value(r.metrics, name);
  };
  r.lease_granted = value("pacer.lease.granted");
  r.lease_revoked = value("pacer.lease.revoked");
  r.lease_expired = value("pacer.lease.expired");
  r.lease_applied = value("pacer.lease.applied");
  r.lease_active_end = value("pacer.lease.active");
  return r;
}

double mbps(std::int64_t bytes, TimeNs horizon) {
  return static_cast<double>(bytes) * 8e3 /
         static_cast<double>(horizon.count());
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const bool quick = flags.has("quick");

  WorkloadSpec w;
  w.horizon = TimeNs{flags.geti("horizon-ms", quick ? 60 : 200) * kMsec};

  bench::print_header(
      "bench_workconserving",
      "headroom lending: recovered utilization vs guarantee violations\n"
      "owner: delay-SLO bursts on a 50% duty cycle; borrower: backlogged\n"
      "colocated streams; 1 Gbps links; SWP-style TCP baseline");
  std::printf("horizon: %lld ms%s\n\n",
              static_cast<long long>(w.horizon.count() / kMsec.count()),
              quick ? " (--quick)" : "");

  const auto off = run_case(sim::Scheme::kSilo, false, w);
  const auto off2 = run_case(sim::Scheme::kSilo, false, w);
  const auto on = run_case(sim::Scheme::kSilo, true, w);
  const auto tcp = run_case(sim::Scheme::kTcp, false, w);

  // Gate 1: lending off is bit-identical across executions and lease-free.
  const bool determinism_ok =
      off.trace_checksum == off2.trace_checksum &&
      off.arrival_checksum == off2.arrival_checksum &&
      off.trace_packets == off2.trace_packets &&
      off.lease_granted == 0 && off.lease_applied == 0 &&
      off.lease_active_end == 0;

  // Gate 2: lending on never costs the owner its §4.1 bound, completes the
  // identical owner schedule, and actually exercised the churn machinery.
  const bool guarantee_ok =
      on.owner_violations == 0 && on.owner_completed > 0 &&
      on.owner_completed == off.owner_completed;
  const bool churn_ok =
      on.lease_granted >= 1 && on.lease_revoked + on.lease_expired >= 1;

  // Gate 3: the borrower recovers >= 30% of the stranded reservation
  // (owner's admitted B minus what the owner actually used).
  const double owner_used = mbps(on.owner_bytes, w.horizon);
  const double stranded = (300 * kMbps).bps() / 1e6 - owner_used;
  const double recovered =
      mbps(on.borrower_bytes, w.horizon) - mbps(off.borrower_bytes, w.horizon);
  const double recovered_fraction = stranded > 0 ? recovered / stranded : 0;
  const bool recovery_ok = recovered_fraction >= 0.30;

  const bool all_golden =
      determinism_ok && guarantee_ok && churn_ok && recovery_ok;

  TextTable table({"case", "owner msgs", "late", "late %", "borrower Mb/s",
                   "granted", "revoked+expired"});
  const auto row = [&](const char* name, const RunStats& r) {
    const double late_pct =
        r.owner_completed > 0
            ? 100.0 * static_cast<double>(r.owner_violations) /
                  static_cast<double>(r.owner_completed)
            : 0;
    table.add_row({name, std::to_string(r.owner_completed),
                   std::to_string(r.owner_violations),
                   TextTable::fmt(late_pct, 2),
                   TextTable::fmt(mbps(r.borrower_bytes, w.horizon), 1),
                   std::to_string(r.lease_granted),
                   std::to_string(r.lease_revoked + r.lease_expired)});
  };
  row("silo lending off", off);
  row("silo lending on", on);
  row("tcp no-priority", tcp);
  std::printf("%s\n", table.to_string().c_str());

  std::printf(
      "stranded %s Mb/s of the owner's 300 Mb/s reservation;\n"
      "lending recovered %s Mb/s for the borrower (%.0f%%, gate 30%%)\n",
      TextTable::fmt(stranded, 1).c_str(), TextTable::fmt(recovered, 1).c_str(),
      recovered_fraction * 100);
  std::printf("golden: %s (determinism %s, guarantee %s, churn %s, "
              "recovery %s)\n",
              all_golden ? "ok" : "FAIL", determinism_ok ? "ok" : "FAIL",
              guarantee_ok ? "ok" : "FAIL", churn_ok ? "ok" : "FAIL",
              recovery_ok ? "ok" : "FAIL");

  if (flags.has("json")) {
    const auto case_json = [&](const RunStats& r) {
      bench::JsonObject e;
      e.put("owner_completed", r.owner_completed)
          .put("owner_violations", r.owner_violations)
          .put("owner_mbps", mbps(r.owner_bytes, w.horizon))
          .put("borrower_mbps", mbps(r.borrower_bytes, w.horizon))
          .put("trace_checksum", r.trace_checksum)
          .put("trace_packets", r.trace_packets)
          .put("lease_granted", r.lease_granted)
          .put("lease_revoked", r.lease_revoked)
          .put("lease_expired", r.lease_expired)
          .put("lease_applied", r.lease_applied);
      return e;
    };
    bench::JsonObject json;
    json.put("bench", std::string("workconserving"))
        .put("horizon_ms", w.horizon.count() / kMsec.count())
        .put("lending_off", case_json(off))
        .put("lending_on", case_json(on))
        .put("tcp_baseline", case_json(tcp))
        .put("stranded_mbps", stranded)
        .put("recovered_mbps", recovered)
        .put("recovered_fraction", recovered_fraction)
        .put("determinism_ok", std::string(determinism_ok ? "true" : "false"))
        .put("guarantee_ok", std::string(guarantee_ok ? "true" : "false"))
        .put("churn_ok", std::string(churn_ok ? "true" : "false"))
        .put("recovery_ok", std::string(recovery_ok ? "true" : "false"))
        .put("all_golden", std::string(all_golden ? "true" : "false"));
    bench::write_json_file("BENCH_workconserving.json", json);
  }

  obs::RunManifest m;
  m.bench = "workconserving";
  m.seed = 0;  // fixed deterministic schedules, no RNG
  m.topology = {{"pods", 1},
                {"racks_per_pod", 1},
                {"servers_per_rack", 2},
                {"vm_slots_per_server", 4}};
  m.params = {{"horizon_ms",
               std::to_string(w.horizon.count() / kMsec.count())},
              {"lease_epoch_us", "500"},
              {"owner_phase_ms", "4"}};
  bench::maybe_write_manifest(flags, m, on.metrics);

  return all_golden ? 0 : 1;
}
