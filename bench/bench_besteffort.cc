// §4.4 ablation: tenants without guarantees ride 802.1q low priority and
// soak residual capacity. This bench verifies the two claims that make
// that design safe and useful:
//   1. adding a best-effort tenant does NOT disturb a guaranteed tenant's
//      message latency (isolation via strict priority), and
//   2. the best-effort tenant picks up most of the capacity the
//      guarantees leave on the table (work conservation across classes).
#include "bench/bench_util.h"
#include "sim/cluster.h"
#include "workload/drivers.h"
#include "workload/patterns.h"

using namespace silo;
using namespace silo::bench;

namespace {

struct Result {
  double guaranteed_p99_us = 0;
  double besteffort_gbps = 0;
  double guaranteed_gbps = 0;
  std::vector<obs::MetricSample> metrics;  ///< end-of-run snapshot
};

Result run(bool with_besteffort, TimeNs duration) {
  sim::ClusterConfig cfg;
  cfg.topo.pods = 1;
  cfg.topo.racks_per_pod = 1;
  cfg.topo.servers_per_rack = 5;
  cfg.topo.vm_slots_per_server = 4;
  cfg.topo.oversubscription = 1.0;
  cfg.scheme = sim::Scheme::kSilo;
  sim::ClusterSim cluster(cfg);

  // A guaranteed, delay-sensitive tenant using only a fraction of the
  // fabric.
  TenantRequest g;
  g.num_vms = 10;
  g.tenant_class = TenantClass::kDelaySensitive;
  g.guarantee = {500 * kMbps, 15 * kKB, 1 * kMsec, 1 * kGbps};
  const auto tg = cluster.add_tenant(g);

  // A bandwidth-guaranteed bulk tenant.
  TenantRequest b;
  b.num_vms = 6;
  b.tenant_class = TenantClass::kBandwidthOnly;
  b.guarantee = {1 * kGbps, Bytes{1500}, TimeNs{0}, 1 * kGbps};
  const auto tb = cluster.add_tenant(b);

  Result res;
  if (!tg || !tb) return res;

  std::optional<int> te;
  if (with_besteffort) {
    TenantRequest e;
    e.num_vms = 4;
    e.tenant_class = TenantClass::kBestEffort;
    e.guarantee = {1 * kGbps, Bytes{1500}, TimeNs{0}, 1 * kGbps};  // ignored
    te = cluster.add_tenant(e);
  }

  workload::BurstDriver::Config bc;
  bc.receiver = 9;
  bc.message_size = 15 * kKB;
  bc.epochs_per_sec = 60;
  workload::BurstDriver msgs(cluster, *tg, 10, bc, 5);
  msgs.start(duration);

  workload::BulkDriver bulk(cluster, *tb, workload::all_to_all(6),
                            Bytes{128 * kKB});
  bulk.start(duration);

  std::optional<workload::BulkDriver> filler;
  if (te) {
    filler.emplace(cluster, *te, workload::all_to_all(4), Bytes{256 * kKB});
    filler->start(duration);
  }
  cluster.run_until(duration + 50 * kMsec);

  res.guaranteed_p99_us = msgs.latencies_us().percentile(99);
  res.guaranteed_gbps = bulk.goodput_bps() / 1e9;
  if (filler) res.besteffort_gbps = filler->goodput_bps() / 1e9;
  res.metrics = cluster.merged_metrics();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto duration = TimeNs{static_cast<std::int64_t>(
      flags.get("duration-ms", 300.0) * static_cast<double>(kMsec))};

  print_header("Best-effort tenants (§4.4): isolation + work conservation",
               "Silo guarantees active; a best-effort tenant rides 802.1q\n"
               "low priority and may only use what the guarantees leave.");

  const auto without = run(false, duration);
  const auto with = run(true, duration);

  TextTable t({"Metric", "no best-effort", "with best-effort"});
  t.add_row({"guaranteed tenant p99 (us)",
             TextTable::fmt(without.guaranteed_p99_us, 0),
             TextTable::fmt(with.guaranteed_p99_us, 0)});
  t.add_row({"guaranteed bulk goodput (Gbps)",
             TextTable::fmt(without.guaranteed_gbps, 2),
             TextTable::fmt(with.guaranteed_gbps, 2)});
  t.add_row({"best-effort goodput (Gbps)", "-",
             TextTable::fmt(with.besteffort_gbps, 2)});
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "Expected: the guaranteed tenant's tail latency and bulk goodput are\n"
      "essentially unchanged, while the best-effort tenant soaks residual\n"
      "capacity — the utilization recovery §4.4 promises for Silo's\n"
      "non-work-conserving guarantees.\n");

  if (flags.has("json")) {
    JsonObject out;
    out.put("bench", std::string("besteffort"))
        .put("duration_ms", static_cast<std::int64_t>(duration / kMsec))
        .put("p99_without_us", without.guaranteed_p99_us)
        .put("p99_with_us", with.guaranteed_p99_us)
        .put("guaranteed_gbps", with.guaranteed_gbps)
        .put("besteffort_gbps", with.besteffort_gbps);
    write_json_file("BENCH_besteffort.json", out);
  }

  obs::RunManifest m;
  m.bench = "besteffort";
  m.seed = 5;
  m.topology = {{"servers", 5}, {"vm_slots_per_server", 4}};
  m.params = {{"duration_ms", std::to_string(duration / kMsec)},
              {"metrics", "with-best-effort run"}};
  maybe_write_manifest(flags, m, with.metrics);
  return 0;
}
