// Figures 12-14 and Table 4 (§6.2, ns2-scale packet simulations):
// a multi-rooted-tree datacenter at ~90% VM occupancy shared by
//   class-A tenants: delay-sensitive, all-to-one 15 KB message bursts,
//                    guarantees {B~exp(0.25G), S=15KB, d=1ms, Bmax=1G}
//   class-B tenants: bandwidth-only, all-to-all bulk, B~exp(2G), S=1.5KB
// compared across Silo, TCP, DCTCP, HULL, Oktopus and Okto+ (Oktopus
// placement plus burst allowance).
//
// Outputs:
//   Fig 12  - class-A message latency (median / 95th / 99th) per scheme
//   Fig 13  - CDF of class-A tenants by fraction of messages with RTOs
//   Table 4 - outlier tenants whose p99 latency exceeds the §4.1 estimate
//             by >1x / >2x / >8x
//   Fig 14  - class-B message latency normalized to its estimate
//
// Scaled from the paper's 3,200 VMs (10 racks x 40 servers x 8 VMs, 1:5
// oversubscription) to ExpConfig's fixed fabric: 2 pods x 2 racks x 8
// servers x 4 slots = 128 slots, oversubscription 2.5, 312 KB port
// buffers. No flag changes the topology (a paper-scale preset is an open
// ROADMAP.md item); the comparison shape, not absolute scale, is the
// target.
#include <chrono>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "model/guarantee.h"
#include "sim/cluster.h"
#include "util/rng.h"
#include "workload/drivers.h"
#include "workload/patterns.h"

using namespace silo;
using namespace silo::bench;

namespace {

struct SchemeResult {
  Stats class_a_latency_us;              // all class-A messages
  std::vector<double> tenant_rto_frac;   // per class-A tenant
  std::vector<double> tenant_p99_ratio;  // p99 / estimate per class-A tenant
  std::vector<double> b_ratio;           // avg chunk latency / estimate
  int admitted_a = 0, admitted_b = 0, requested = 0;
  // Engine throughput for --json reporting (BENCH_fig12_14.json).
  std::uint64_t events = 0;
  double wall_s = 0;
  std::vector<obs::MetricSample> metrics;  ///< end-of-run snapshot
};

struct ExpConfig {
  // Tenant sizes deliberately do not divide the slot count: servers host
  // VMs of several tenants, so tenants contend on shared NICs and ToR
  // ports exactly as in the paper's 90%-occupancy fabric. Class-A tenants
  // are large enough that a synchronized all-to-one burst
  // ((a_vms-1) x 15 KB = 255 KB) stresses a 312 KB shallow buffer that
  // bulk traffic has already partly filled — the incast regime the
  // paper's Figure 12 runs in.
  int pods = 2, racks_per_pod = 2, servers_per_rack = 8, slots = 4;
  int a_vms = 18, b_vms = 8;
  double occupancy = 0.9;
  double load_factor = 0.12;  ///< aggregator load / hose guarantee
  Bytes a_message = 15 * kKB;
  Bytes b_chunk = 256 * kKB;
  TimeNs duration = 300 * kMsec;
  std::uint64_t seed = 21;
};

SchemeResult run_scheme(sim::Scheme scheme, const ExpConfig& ec) {
  sim::ClusterConfig cfg;
  cfg.topo.pods = ec.pods;
  cfg.topo.racks_per_pod = ec.racks_per_pod;
  cfg.topo.servers_per_rack = ec.servers_per_rack;
  cfg.topo.vm_slots_per_server = ec.slots;
  cfg.topo.oversubscription = 2.5;
  cfg.scheme = scheme;
  cfg.tcp.min_rto = 10 * kMsec;  // ns2-style
  sim::ClusterSim cluster(cfg);
  Rng rng(ec.seed);

  const int total_slots = cfg.topo.pods * cfg.topo.racks_per_pod *
                          cfg.topo.servers_per_rack * cfg.topo.vm_slots_per_server;
  const int target = static_cast<int>(ec.occupancy * total_slots);

  struct ATenant {
    int id;
    SiloGuarantee g;
    std::unique_ptr<workload::BurstDriver> driver;
  };
  struct BTenant {
    int id;
    SiloGuarantee g;
    std::unique_ptr<workload::BulkDriver> driver;
  };
  std::vector<ATenant> as;
  std::vector<BTenant> bs;
  SchemeResult res;

  int placed_vms = 0;
  bool next_is_a = true;
  while (placed_vms + (next_is_a ? ec.a_vms : ec.b_vms) <= target) {
    ++res.requested;
    TenantRequest req;
    req.num_vms = next_is_a ? ec.a_vms : ec.b_vms;
    if (next_is_a) {
      req.tenant_class = TenantClass::kDelaySensitive;
      req.guarantee = {RateBps{std::clamp(rng.exponential(0.25e9), 0.1e9, 0.5e9)},
                       ec.a_message, 1 * kMsec, 1 * kGbps};
    } else {
      req.tenant_class = TenantClass::kBandwidthOnly;
      req.guarantee = {RateBps{std::clamp(rng.exponential(2e9), 0.5e9, 4e9)},
                       Bytes{1500}, TimeNs{0}, RateBps{0}};
      req.guarantee.burst_rate = req.guarantee.bandwidth;
    }
    const auto t = cluster.add_tenant(req);
    if (t) {
      placed_vms += req.num_vms;
      if (next_is_a) {
        as.push_back({*t, req.guarantee, nullptr});
        ++res.admitted_a;
      } else {
        bs.push_back({*t, req.guarantee, nullptr});
        ++res.admitted_b;
      }
    }
    next_is_a = !next_is_a;
  }

  // Drivers: class-A synchronized all-to-one bursts at Poisson epochs,
  // class-B backlogged all-to-all bulk. Each class-A tenant's epoch rate
  // is sized so the aggregator's average load is a fixed fraction of its
  // sampled hose guarantee; the aggregator is the tenant's *last* VM so
  // that (under locality packing) it shares its server and ToR downlink
  // with neighbouring tenants, as fragmentation causes at 90% occupancy.
  std::uint64_t seed = ec.seed * 977;
  for (auto& a : as) {
    workload::BurstDriver::Config bc;
    bc.receiver = ec.a_vms - 1;
    bc.message_size = ec.a_message;
    bc.epochs_per_sec =
        ec.load_factor * a.g.bandwidth.bps() /
        (8.0 * static_cast<double>(ec.a_vms - 1) *
         static_cast<double>(ec.a_message));
    a.driver = std::make_unique<workload::BurstDriver>(cluster, a.id,
                                                       ec.a_vms, bc, ++seed);
    a.driver->start(ec.duration);
  }
  for (auto& b : bs) {
    b.driver = std::make_unique<workload::BulkDriver>(
        cluster, b.id, workload::all_to_all(ec.b_vms), ec.b_chunk);
    b.driver->start(ec.duration);
  }
  const auto wall0 = std::chrono::steady_clock::now();
  cluster.run_until(ec.duration + 100 * kMsec);
  const auto wall1 = std::chrono::steady_clock::now();
  res.events = cluster.events().processed();
  res.wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  res.metrics = cluster.metrics().snapshot();

  for (auto& a : as) {
    res.class_a_latency_us.merge(a.driver->latencies_us());
    const auto done = a.driver->completed_messages();
    res.tenant_rto_frac.push_back(
        done > 0 ? 100.0 * static_cast<double>(a.driver->messages_with_rto()) /
                       static_cast<double>(done)
                 : 0.0);
    const double est_us =
        static_cast<double>(max_message_latency(a.g, ec.a_message)) /
        static_cast<double>(kUsec);
    if (done > 0)
      res.tenant_p99_ratio.push_back(
          a.driver->latencies_us().percentile(99) / est_us);
  }
  for (auto& b : bs) {
    // Per-pair achieved rate vs the hose-fair estimate B/(n-1), counting
    // only fabric-crossing pairs (intra-server pairs ride the vswitch and
    // are not network-bound under any scheme).
    const double est_rate = b.g.bandwidth.bps() / (ec.b_vms - 1);
    Stats ratios;
    for (int s = 0; s < ec.b_vms; ++s) {
      for (int d = 0; d < ec.b_vms; ++d) {
        if (s == d || cluster.vm_server(b.id, s) == cluster.vm_server(b.id, d))
          continue;
        const double measured =
            static_cast<double>(cluster.pair_delivered_bytes(b.id, s, d)) *
            8e9 / static_cast<double>(ec.duration);
        if (measured > 0) ratios.add(est_rate / measured);
      }
    }
    if (!ratios.empty()) res.b_ratio.push_back(ratios.mean());
  }
  return res;
}

double frac_above(const std::vector<double>& v, double threshold) {
  if (v.empty()) return 0.0;
  int n = 0;
  for (double x : v) n += x > threshold;
  return 100.0 * n / static_cast<double>(v.size());
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  ExpConfig ec;
  ec.duration = TimeNs{static_cast<std::int64_t>(
      flags.get("duration-ms", 600.0) * static_cast<double>(kMsec))};
  ec.load_factor = flags.get("load-factor", 0.12);
  ec.seed = static_cast<std::uint64_t>(flags.geti("seed", 21));

  print_header(
      "Figures 12-14 + Table 4: message latency across schemes",
      "Class-A: all-to-one 15 KB bursts with {B,S,d,Bmax} guarantees;\n"
      "class-B: all-to-all bulk. Scaled-down ns2-style packet simulation.");

  const std::vector<sim::Scheme> schemes{
      sim::Scheme::kSilo,    sim::Scheme::kTcp,
      sim::Scheme::kDctcp,   sim::Scheme::kHull,
      sim::Scheme::kOktopus, sim::Scheme::kOktopusPlus,
      sim::Scheme::kQjump,   sim::Scheme::kPfabric};

  std::vector<SchemeResult> results;
  for (auto s : schemes) results.push_back(run_scheme(s, ec));

  TextTable fig12({"Scheme", "Median (ms)", "95th (ms)", "99th (ms)",
                   "messages", "admitted A/B"});
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const auto& r = results[i];
    fig12.add_row(
        {sim::scheme_name(schemes[i]),
         TextTable::fmt(r.class_a_latency_us.percentile(50) / 1e3, 3),
         TextTable::fmt(r.class_a_latency_us.percentile(95) / 1e3, 3),
         TextTable::fmt(r.class_a_latency_us.percentile(99) / 1e3, 3),
         std::to_string(r.class_a_latency_us.count()),
         std::to_string(r.admitted_a) + "/" + std::to_string(r.admitted_b)});
  }
  std::printf("Figure 12: class-A message latency\n%s\n",
              fig12.to_string().c_str());

  TextTable fig13({"Scheme", ">0% msgs w/ RTO", ">1%", ">5%", ">10%"});
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const auto& v = results[i].tenant_rto_frac;
    fig13.add_row({sim::scheme_name(schemes[i]),
                   TextTable::fmt(frac_above(v, 0.0), 0) + " %",
                   TextTable::fmt(frac_above(v, 1.0), 0) + " %",
                   TextTable::fmt(frac_above(v, 5.0), 0) + " %",
                   TextTable::fmt(frac_above(v, 10.0), 0) + " %"});
  }
  std::printf("Figure 13: class-A tenants whose messages incur RTOs\n%s\n",
              fig13.to_string().c_str());

  TextTable t4({"Scheme", "Outliers-1x %", "Outliers-2x %", "Outliers-8x %"});
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const auto& v = results[i].tenant_p99_ratio;
    t4.add_row({sim::scheme_name(schemes[i]),
                TextTable::fmt(frac_above(v, 1.0), 1),
                TextTable::fmt(frac_above(v, 2.0), 1),
                TextTable::fmt(frac_above(v, 8.0), 1)});
  }
  std::printf("Table 4: class-A tenants whose p99 exceeds the estimate\n%s\n",
              t4.to_string().c_str());

  TextTable fig14({"Scheme", "<=1x estimate %", "mean ratio", "p95 ratio"});
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const auto& v = results[i].b_ratio;
    Stats s;
    for (double x : v) s.add(x);
    fig14.add_row({sim::scheme_name(schemes[i]),
                   TextTable::fmt(100.0 - frac_above(v, 1.0), 0) + " %",
                   s.empty() ? "-" : TextTable::fmt(s.mean(), 2),
                   s.empty() ? "-" : TextTable::fmt(s.percentile(95), 2)});
  }
  std::printf("Figure 14: class-B message latency / estimate\n%s\n",
              fig14.to_string().c_str());

  std::printf(
      "Paper reference shape: Silo holds ~1 ms class-A latency even at the\n"
      "99th with zero outliers and zero RTO-affected tenants; DCTCP/HULL\n"
      "are ~22x worse at the 99th (2.5x at 95th); Okto (no bursts) is ~60x\n"
      "worse at the median; TCP suffers RTOs for ~21%% of tenants (14%% for\n"
      "HULL). Class-B: Silo/Okto finish exactly at the estimate; TCP/HULL\n"
      "vary around it with a long tail.\n");

  if (flags.has("json")) {
    JsonObject out;
    out.put("bench", std::string("fig12_14"))
        .put("duration_ms", static_cast<std::int64_t>(ec.duration / kMsec))
        .put("load_factor", ec.load_factor)
        .put("seed", static_cast<std::int64_t>(ec.seed));
    JsonObject per_scheme;
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      const auto& r = results[i];
      JsonObject s;
      s.put("median_ms", r.class_a_latency_us.percentile(50) / 1e3)
          .put("p95_ms", r.class_a_latency_us.percentile(95) / 1e3)
          .put("p99_ms", r.class_a_latency_us.percentile(99) / 1e3)
          .put("messages", static_cast<std::int64_t>(r.class_a_latency_us.count()))
          .put("admitted_a", r.admitted_a)
          .put("admitted_b", r.admitted_b)
          .put("events", r.events)
          .put("wall_s", r.wall_s)
          .put("events_per_sec", r.events / r.wall_s);
      per_scheme.put(sim::scheme_name(schemes[i]), s);
    }
    out.put("schemes", per_scheme);
    write_json_file("BENCH_fig12_14.json", out);
  }

  obs::RunManifest m;
  m.bench = "fig12_14";
  m.seed = ec.seed;
  m.topology = {{"pods", ec.pods},
                {"racks_per_pod", ec.racks_per_pod},
                {"servers_per_rack", ec.servers_per_rack},
                {"vm_slots_per_server", ec.slots}};
  m.params = {{"duration_ms", std::to_string(ec.duration / kMsec)},
              {"load_factor", TextTable::fmt(ec.load_factor, 3)},
              {"metrics", "Silo run"}};
  maybe_write_manifest(flags, m, results[0].metrics);
  return 0;
}
