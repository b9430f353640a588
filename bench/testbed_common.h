// Shared harness for the paper's testbed experiments (§2.1 Fig 1 and
// §6.1 Fig 11): five 10 GbE servers, six VM slots each; tenant A runs
// memcached with a Facebook-ETC-like workload (one cache server VM, 14
// clients), tenant B runs netperf-style all-to-all bulk TCP. VMs are
// pinned three-per-tenant-per-server exactly like the testbed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/cluster.h"
#include "util/stats.h"
#include "workload/drivers.h"
#include "workload/patterns.h"

namespace silo::bench {

struct TestbedScenario {
  sim::Scheme scheme = sim::Scheme::kTcp;
  bool with_bulk = true;           ///< tenant B present?
  bool memcached_active = true;    ///< tenant A driving requests?
  RateBps a_bandwidth {};         ///< tenant A guarantee (paced schemes)
  RateBps b_bandwidth {};         ///< tenant B guarantee (paced schemes)
  double ops_per_sec = 40000;
  TimeNs duration = 600 * kMsec;
  std::uint64_t seed = 11;
};

struct TestbedResult {
  Stats latency_us;        ///< memcached transaction latencies
  double mem_ops_per_sec = 0;
  double bulk_gbps = 0;
  workload::BreakdownAgg breakdown;          ///< memcached message legs
  std::vector<obs::MetricSample> metrics;    ///< end-of-run snapshot
};

/// The fixed testbed shape, for --metrics-json manifests.
inline std::vector<std::pair<std::string, std::int64_t>> testbed_topology() {
  return {{"servers", 5}, {"vm_slots_per_server", 6}};
}

inline TestbedResult run_testbed(const TestbedScenario& sc) {
  sim::ClusterConfig cfg;
  cfg.topo.pods = 1;
  cfg.topo.racks_per_pod = 1;
  cfg.topo.servers_per_rack = 5;
  cfg.topo.vm_slots_per_server = 6;
  cfg.topo.oversubscription = 1.0;
  cfg.scheme = sc.scheme;
  cfg.tcp.min_rto = 200 * kMsec;  // testbed OS stack, not ns2 tuning
  sim::ClusterSim cluster(cfg);

  // Paper layout: three VMs of each tenant on every server. Tenant A's
  // memcached server VM is local VM 0 (on server 0).
  std::vector<int> layout;
  for (int v = 0; v < 15; ++v) layout.push_back(v / 3);

  TenantRequest a;
  a.num_vms = 15;
  a.tenant_class = TenantClass::kDelaySensitive;
  a.guarantee = {sc.a_bandwidth > RateBps{0} ? sc.a_bandwidth : 210 * kMbps,
                 Bytes{1500}, 1 * kMsec, 1 * kGbps};
  const int ta = cluster.add_tenant_pinned(a, layout);

  std::optional<int> tb;
  if (sc.with_bulk) {
    TenantRequest b;
    b.num_vms = 15;
    b.tenant_class = TenantClass::kBandwidthOnly;
    b.guarantee = {sc.b_bandwidth > RateBps{0} ? sc.b_bandwidth : 3 * kGbps,
                   Bytes{1500}, TimeNs{0},
                   sc.b_bandwidth > RateBps{0} ? sc.b_bandwidth : RateBps{0}};
    tb = cluster.add_tenant_pinned(b, layout);
  }

  std::vector<int> clients;
  for (int v = 1; v < 15; ++v) clients.push_back(v);
  workload::EtcDriver::Config etc_cfg;
  etc_cfg.ops_per_sec = sc.ops_per_sec;
  workload::EtcDriver etc(cluster, ta, 0, clients, etc_cfg, sc.seed);

  std::optional<workload::BulkDriver> bulk;
  if (tb) {
    bulk.emplace(cluster, *tb, workload::all_to_all(15), Bytes{256 * kKB});
    bulk->start(sc.duration);
  }
  if (sc.memcached_active) etc.start(sc.duration);
  cluster.run_until(sc.duration + 100 * kMsec);

  TestbedResult res;
  res.latency_us = etc.latencies_us();
  res.mem_ops_per_sec =
      static_cast<double>(etc.completed_ops()) /
      (static_cast<double>(sc.duration) / static_cast<double>(kSec));
  if (bulk) res.bulk_gbps = bulk->goodput_bps() / 1e9;
  res.breakdown = etc.breakdown();
  res.metrics = cluster.merged_metrics();
  return res;
}

}  // namespace silo::bench
