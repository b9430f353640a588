// Latency-breakdown bench: where does a delay-sensitive message's latency
// go under each scheme?
//
// A Fig-12-style shared fabric runs one class-A OLDI tenant (all-to-one
// 15 KB bursts, guarantee {B, S=15KB, d=1ms, Bmax=1G}) next to class-B
// bulk neighbors, under Silo, DCTCP and TCP. Every delivered message
// carries a MessageBreakdown whose components sum to the observed latency
// exactly (integer ns); this bench prints the paper-style attribution
// table and enforces three claims:
//   1. exact-sum: max |pacing+queueing+serialization+retransmit - latency|
//      is <= 1 ns across every delivered message (class A and B),
//   2. Silo's p99 class-A queueing stays within the configured delay
//      budget d — pacing plus admission-bounded queues is the mechanism
//      behind the §4.1 guarantee,
//   3. TCP's p99 class-A queueing blows the same budget — its latency is
//      queueing-dominated, which is the paper's motivation (§2.1).
//
// Flags: --duration-ms=300 --load-factor=0.3 --seed=33 --json
//        --metrics-json[=path] --trace-out=<path> --trace-capacity=8192
#include <cstdlib>
#include <fstream>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "model/guarantee.h"
#include "sim/cluster.h"
#include "workload/drivers.h"
#include "workload/patterns.h"

using namespace silo;
using namespace silo::bench;

namespace {

struct ExpConfig {
  int pods = 1, racks_per_pod = 2, servers_per_rack = 8, slots = 4;
  int a_vms = 18, b_vms = 8;
  Bytes a_message = 15 * kKB;
  Bytes b_chunk = 256 * kKB;
  TimeNs delay_budget = 1 * kMsec;  ///< class-A guarantee d
  double load_factor = 0.3;         ///< aggregator load / hose guarantee
  TimeNs duration = 300 * kMsec;
  std::uint64_t seed = 33;
};

struct SchemeResult {
  workload::BreakdownAgg class_a;
  workload::BreakdownAgg class_b;
  Stats class_a_latency_us;
  std::vector<obs::MetricSample> metrics;
};

SchemeResult run_scheme(sim::Scheme scheme, const ExpConfig& ec,
                        const Flags& flags) {
  sim::ClusterConfig cfg;
  cfg.topo.pods = ec.pods;
  cfg.topo.racks_per_pod = ec.racks_per_pod;
  cfg.topo.servers_per_rack = ec.servers_per_rack;
  cfg.topo.vm_slots_per_server = ec.slots;
  cfg.topo.oversubscription = 2.5;
  cfg.scheme = scheme;
  cfg.tcp.min_rto = 10 * kMsec;  // ns2-style
  sim::ClusterSim cluster(cfg);

  TenantRequest a;
  a.num_vms = ec.a_vms;
  a.tenant_class = TenantClass::kDelaySensitive;
  a.guarantee = {RateBps{0.3e9}, ec.a_message, ec.delay_budget, 1 * kGbps};
  const auto ta = cluster.add_tenant(a);

  TenantRequest b;
  b.num_vms = ec.b_vms;
  b.tenant_class = TenantClass::kBandwidthOnly;
  b.guarantee = {RateBps{1e9}, Bytes{1500}, TimeNs{0}, RateBps{0}};
  b.guarantee.burst_rate = b.guarantee.bandwidth;
  std::vector<int> tbs;
  for (int i = 0; i < 2; ++i) {
    if (const auto t = cluster.add_tenant(b)) tbs.push_back(*t);
  }
  SchemeResult res;
  if (!ta) return res;

  // --trace-out: record the class-A tenant's packet flight on the Silo
  // run and dump a Chrome trace (plus JSONL alongside).
  const bool trace = flags.has("trace-out") && scheme == sim::Scheme::kSilo;
  if (trace) {
    auto& rec = cluster.enable_flight_recorder(
        static_cast<std::size_t>(flags.geti("trace-capacity", 8192)));
    rec.enable_tenant(*ta);
  }

  workload::BurstDriver::Config bc;
  bc.receiver = ec.a_vms - 1;
  bc.message_size = ec.a_message;
  bc.epochs_per_sec = ec.load_factor * a.guarantee.bandwidth.bps() /
                      (8.0 * static_cast<double>(ec.a_vms - 1) *
                       static_cast<double>(ec.a_message));
  workload::BurstDriver bursts(cluster, *ta, ec.a_vms, bc, ec.seed * 31);
  bursts.start(ec.duration);

  std::vector<std::unique_ptr<workload::BulkDriver>> bulks;
  for (const int t : tbs) {
    bulks.push_back(std::make_unique<workload::BulkDriver>(
        cluster, t, workload::all_to_all(ec.b_vms), ec.b_chunk));
    bulks.back()->start(ec.duration);
  }
  cluster.run_until(ec.duration + 100 * kMsec);

  res.class_a = bursts.breakdown();
  res.class_a_latency_us = bursts.latencies_us();
  for (const auto& bd : bulks) {
    res.class_b.pacing_us.merge(bd->breakdown().pacing_us);
    res.class_b.queueing_us.merge(bd->breakdown().queueing_us);
    res.class_b.serialization_us.merge(bd->breakdown().serialization_us);
    res.class_b.retransmit_us.merge(bd->breakdown().retransmit_us);
    res.class_b.max_sum_error_ns = std::max(
        res.class_b.max_sum_error_ns, bd->breakdown().max_sum_error_ns);
    res.class_b.messages += bd->breakdown().messages;
  }
  res.metrics = cluster.merged_metrics();

  if (trace) {
    const std::string path =
        flags.gets("trace-out", "BENCH_breakdown.trace.json");
    std::ofstream tf(path);
    cluster.flight_recorder()->dump_chrome_trace(tf);
    std::printf("wrote %s (%zu flight events, %llu recorded)\n", path.c_str(),
                cluster.flight_recorder()->size(),
                static_cast<unsigned long long>(
                    cluster.flight_recorder()->total_recorded()));
    std::ofstream jf(path + "l");  // .json -> .jsonl
    cluster.flight_recorder()->dump_jsonl(jf);
    std::printf("wrote %sl\n", path.c_str());
  }
  return res;
}

double share_pct(const Stats& component, const workload::BreakdownAgg& b) {
  const double total = b.pacing_us.sum() + b.queueing_us.sum() +
                       b.serialization_us.sum() + b.retransmit_us.sum();
  return total > 0 ? 100.0 * component.sum() / total : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  ExpConfig ec;
  ec.duration = TimeNs{static_cast<std::int64_t>(
      flags.get("duration-ms", 300.0) * static_cast<double>(kMsec))};
  ec.load_factor = flags.get("load-factor", 0.3);
  ec.seed = static_cast<std::uint64_t>(flags.geti("seed", 33));

  print_header(
      "Latency breakdown: where class-A message latency goes, per scheme",
      "Components (pacing / queueing / serialization / retransmit) sum to\n"
      "the observed latency exactly; Silo spends the budget on pacing and\n"
      "bounded queueing, TCP on unbounded queueing.");

  const std::vector<sim::Scheme> schemes{
      sim::Scheme::kSilo, sim::Scheme::kDctcp, sim::Scheme::kTcp};
  std::vector<SchemeResult> results;
  for (auto s : schemes) results.push_back(run_scheme(s, ec, flags));

  TextTable table({"Scheme", "mean (us)", "p99 (us)", "pacing %",
                   "queueing %", "serial %", "rtx %", "p99 queue (us)"});
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    const auto& r = results[i];
    table.add_row({sim::scheme_name(schemes[i]),
                   TextTable::fmt(r.class_a_latency_us.mean(), 1),
                   TextTable::fmt(r.class_a_latency_us.percentile(99), 1),
                   TextTable::fmt(share_pct(r.class_a.pacing_us, r.class_a), 1),
                   TextTable::fmt(
                       share_pct(r.class_a.queueing_us, r.class_a), 1),
                   TextTable::fmt(
                       share_pct(r.class_a.serialization_us, r.class_a), 1),
                   TextTable::fmt(
                       share_pct(r.class_a.retransmit_us, r.class_a), 1),
                   TextTable::fmt(r.class_a.queueing_us.percentile(99), 1)});
  }
  std::printf("Class-A attribution (all components sum to latency)\n%s\n",
              table.to_string().c_str());

  const double budget_us =
      static_cast<double>(ec.delay_budget) / static_cast<double>(kUsec);
  std::printf("Class-A delay budget d = %.0f us\n\n", budget_us);

  // ---- invariants -----------------------------------------------------
  bool ok = true;
  TimeNs worst_err {};
  std::int64_t messages = 0;
  for (const auto& r : results) {
    worst_err = std::max({worst_err, r.class_a.max_sum_error_ns,
                          r.class_b.max_sum_error_ns});
    messages += r.class_a.messages + r.class_b.messages;
  }
  const bool sum_ok = worst_err <= TimeNs{1} && messages > 0;
  std::printf("[%s] exact-sum: max |sum(components) - latency| = %lld ns "
              "over %lld messages (must be <= 1)\n",
              sum_ok ? "PASS" : "FAIL", static_cast<long long>(worst_err),
              static_cast<long long>(messages));
  ok = ok && sum_ok;

  const double silo_p99q = results[0].class_a.queueing_us.percentile(99);
  const double tcp_p99q = results[2].class_a.queueing_us.percentile(99);
  const bool silo_ok = silo_p99q <= budget_us;
  const bool tcp_ok = tcp_p99q > budget_us;
  std::printf("[%s] Silo p99 class-A queueing %.1f us <= budget %.0f us\n",
              silo_ok ? "PASS" : "FAIL", silo_p99q, budget_us);
  std::printf("[%s] TCP  p99 class-A queueing %.1f us >  budget %.0f us\n",
              tcp_ok ? "PASS" : "FAIL", tcp_p99q, budget_us);
  ok = ok && silo_ok && tcp_ok;

  if (flags.has("json")) {
    JsonObject out;
    out.put("bench", std::string("breakdown"))
        .put("duration_ms", static_cast<std::int64_t>(ec.duration / kMsec))
        .put("load_factor", ec.load_factor)
        .put("seed", static_cast<std::int64_t>(ec.seed))
        .put("budget_us", budget_us)
        .put("max_sum_error_ns", static_cast<std::int64_t>(worst_err));
    JsonObject per_scheme;
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      const auto& r = results[i];
      JsonObject s;
      s.put("mean_us", r.class_a_latency_us.mean())
          .put("p99_us", r.class_a_latency_us.percentile(99))
          .put("pacing_share_pct", share_pct(r.class_a.pacing_us, r.class_a))
          .put("queueing_share_pct",
               share_pct(r.class_a.queueing_us, r.class_a))
          .put("serialization_share_pct",
               share_pct(r.class_a.serialization_us, r.class_a))
          .put("retransmit_share_pct",
               share_pct(r.class_a.retransmit_us, r.class_a))
          .put("p99_queueing_us", r.class_a.queueing_us.percentile(99))
          .put("messages", r.class_a.messages);
      per_scheme.put(sim::scheme_name(schemes[i]), s);
    }
    out.put("schemes", per_scheme);
    write_json_file("BENCH_breakdown.json", out);
  }

  obs::RunManifest m;
  m.bench = "breakdown";
  m.seed = ec.seed;
  m.topology = {{"pods", ec.pods},
                {"racks_per_pod", ec.racks_per_pod},
                {"servers_per_rack", ec.servers_per_rack},
                {"vm_slots_per_server", ec.slots}};
  m.params = {{"duration_ms", std::to_string(ec.duration / kMsec)},
              {"load_factor", std::to_string(ec.load_factor)},
              {"schemes", "silo,dctcp,tcp (metrics: silo run)"}};
  maybe_write_manifest(flags, m, results[0].metrics);

  return ok ? 0 : 1;
}
