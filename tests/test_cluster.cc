#include <gtest/gtest.h>

#include "core/controller.h"
#include "sim/cluster.h"
#include "workload/drivers.h"
#include "workload/patterns.h"

namespace silo::sim {
namespace {

ClusterConfig small_cluster(Scheme scheme) {
  ClusterConfig cfg;
  cfg.topo.pods = 1;
  cfg.topo.racks_per_pod = 1;
  cfg.topo.servers_per_rack = 5;
  cfg.topo.vm_slots_per_server = 6;
  cfg.topo.server_link_rate = 10 * kGbps;
  cfg.topo.oversubscription = 1.0;
  cfg.scheme = scheme;
  cfg.tcp.min_rto = 10 * kMsec;
  return cfg;
}

TenantRequest silo_tenant(int vms, RateBps bw, Bytes burst = 15 * kKB,
                          TimeNs delay = 1 * kMsec) {
  TenantRequest r;
  r.num_vms = vms;
  r.guarantee = {bw, burst, delay, 1 * kGbps};
  r.tenant_class = TenantClass::kDelaySensitive;
  return r;
}

TEST(ClusterSim, AdmitsAndPlacesTenant) {
  ClusterSim sim(small_cluster(Scheme::kSilo));
  const auto t = sim.add_tenant(silo_tenant(10, 300 * kMbps));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(sim.tenant_vm_count(*t), 10);
  for (int v = 0; v < 10; ++v) {
    EXPECT_GE(sim.vm_server(*t, v), 0);
    EXPECT_LT(sim.vm_server(*t, v), 5);
  }
}

TEST(ClusterSim, ConfigDeltaApplicationConsumesSimulatedTime) {
  ClusterSim sim(small_cluster(Scheme::kSilo));
  SiloController ctl(small_cluster(Scheme::kSilo).topo);
  const auto h = ctl.admit(silo_tenant(4, 300 * kMbps));
  ASSERT_TRUE(h.has_value());
  const auto deltas = ctl.drain_config_deltas();
  ASSERT_FALSE(deltas.empty());

  sim.apply_config_deltas(deltas);
  // The cost is charged up front; the table lands only after the shipping
  // latency, so just before the first landing nothing is applied yet.
  EXPECT_EQ(obs::metric_value(sim.merged_metrics(), "controller.diff.applied"),
            0);
  std::int64_t expected_ns = 0;
  for (const auto& d : deltas)
    expected_ns +=
        (sim.config().config_apply_delay +
         sim.config().config_record_apply_cost *
             static_cast<std::int64_t>(d.removes.size() + d.upserts.size()))
            .count();
  EXPECT_EQ(obs::metric_value(sim.merged_metrics(), "controller.diff.apply_ns"),
            expected_ns);

  sim.run_until(1 * kSec);
  EXPECT_EQ(obs::metric_value(sim.merged_metrics(), "controller.diff.applied"),
            static_cast<std::int64_t>(deltas.size()));
  // Each server's applied table now reproduces the controller snapshot.
  for (const auto& d : deltas) {
    const auto snapshot = ctl.server_config(d.server);
    EXPECT_EQ(sim.host(d.server).pacer_config().checksum(),
              pacer_config_checksum(snapshot));
  }
}

TEST(ClusterSim, MessageDelivery) {
  ClusterSim sim(small_cluster(Scheme::kTcp));
  TenantRequest req;
  req.num_vms = 2;
  req.guarantee = {1 * kGbps, 15 * kKB, TimeNs{0}, 1 * kGbps};
  const auto t = sim.add_tenant(req);
  ASSERT_TRUE(t);
  bool done = false;
  TimeNs latency {};
  sim.send_message(*t, 0, 1, 10 * kKB,
                   [&](const ClusterSim::MessageResult& r) {
                     done = true;
                     latency = r.latency;
                   });
  sim.run_until(1 * kSec);
  ASSERT_TRUE(done);
  EXPECT_GT(latency, TimeNs{0});
  EXPECT_LT(latency, 1 * kMsec);
  EXPECT_EQ(sim.pair_delivered_bytes(*t, 0, 1), (10 * kKB).count());
  // Drained run: every pool packet was returned (exactly-one-owner).
  EXPECT_EQ(sim.events().pool().live(), 0);
}

// Intra-server traffic rides the vswitch and is deliberately unpaced (the
// paper's guarantees are NIC-to-NIC); tests about pacing therefore pin one
// VM per server to force fabric paths.
ClusterConfig spread_cluster(Scheme scheme) {
  auto cfg = small_cluster(scheme);
  cfg.topo.vm_slots_per_server = 1;
  return cfg;
}

TEST(ClusterSim, SiloMessageMeetsGuarantee) {
  // One paced tenant alone: message latency must stay within the §4.1
  // bound M/Bmax + d (single burst-compliant message).
  ClusterSim sim(spread_cluster(Scheme::kSilo));
  const auto g = SiloGuarantee{500 * kMbps, 15 * kKB, 1 * kMsec, 1 * kGbps};
  TenantRequest req;
  req.num_vms = 2;
  req.guarantee = g;
  req.tenant_class = TenantClass::kDelaySensitive;
  const auto t = sim.add_tenant(req);
  ASSERT_TRUE(t);
  ASSERT_NE(sim.vm_server(*t, 0), sim.vm_server(*t, 1));
  std::vector<TimeNs> latencies;
  for (int i = 0; i < 5; ++i) {
    sim.events().at(i * 100 * kMsec, [&, t] {
      sim.send_message(*t, 0, 1, 10 * kKB,
                       [&](const ClusterSim::MessageResult& r) {
                         latencies.push_back(r.latency);
                       });
    });
  }
  sim.run_until(1 * kSec);
  ASSERT_EQ(latencies.size(), 5u);
  const TimeNs bound = max_message_latency(g, 10 * kKB);
  for (TimeNs l : latencies) {
    EXPECT_LE(l, bound);
    // Physics floor: the first MTU leaves on a full bucket, the rest are
    // paced at Bmax.
    EXPECT_GT(l, transmission_time(10 * kKB - kMtu, 1 * kGbps));
  }
  EXPECT_EQ(sim.events().pool().live(), 0);  // all five messages drained
}

TEST(ClusterSim, PacingThrottlesAboveGuarantee) {
  // A backlogged Silo flow must be capped near its bandwidth guarantee.
  ClusterSim sim(spread_cluster(Scheme::kSilo));
  const auto t = sim.add_tenant(silo_tenant(2, 500 * kMbps, 15 * kKB));
  ASSERT_TRUE(t);
  ASSERT_NE(sim.vm_server(*t, 0), sim.vm_server(*t, 1));
  workload::BulkDriver bulk(sim, *t, {{0, 1}}, 128 * kKB);
  bulk.start(500 * kMsec);
  sim.run_until(500 * kMsec);
  const double gbps = bulk.goodput_bps() / 1e9;
  EXPECT_LT(gbps, 0.55);
  EXPECT_GT(gbps, 0.40);
}

TEST(ClusterSim, AdmissionAfterRunIsPaced) {
  // A tenant admitted mid-run gets its pacers and rebalance timer exactly
  // like one admitted before the first run: one 1 MB message on a
  // {B = 100 Mbps, S = 15 KB} guarantee needs at least (size - S) / B.
  ClusterSim sim(spread_cluster(Scheme::kSilo));
  sim.run_until(10 * kMsec);
  const auto t = sim.add_tenant(silo_tenant(2, 100 * kMbps, 15 * kKB));
  ASSERT_TRUE(t);
  ASSERT_NE(sim.vm_server(*t, 0), sim.vm_server(*t, 1));
  std::optional<TimeNs> latency;
  sim.send_message(*t, 0, 1, kMB, [&](const ClusterSim::MessageResult& r) {
    latency = r.latency;
  });
  sim.run_until(1 * kSec);
  ASSERT_TRUE(latency.has_value());
  EXPECT_GE(*latency, transmission_time(kMB - 15 * kKB, 100 * kMbps));
}

TEST(ClusterSim, VmIndexOutsideTenantThrows) {
  // Flows are keyed src * num_vms + dst, so (0, num_vms) would alias the
  // (1, 0) flow if the index were not range-checked first.
  ClusterSim sim(small_cluster(Scheme::kTcp));
  TenantRequest req;
  req.num_vms = 2;
  req.guarantee = {1 * kGbps, 15 * kKB, TimeNs{0}, 1 * kGbps};
  const auto t = sim.add_tenant(req);
  ASSERT_TRUE(t);
  sim.send_message(*t, 1, 0, 10 * kKB);
  sim.run_until(10 * kMsec);
  ASSERT_EQ(sim.pair_delivered_bytes(*t, 1, 0), (10 * kKB).count());

  EXPECT_THROW(sim.send_message(*t, 0, 2, 10 * kKB), std::out_of_range);
  EXPECT_THROW(sim.pair_delivered_bytes(*t, 0, 2), std::out_of_range);
  EXPECT_THROW(sim.debug_flow(*t, 0, 2), std::out_of_range);
  EXPECT_THROW(sim.send_message(*t, -1, 0, 10 * kKB), std::out_of_range);
  // A tenant's island is read off its first VM, so it must have one.
  req.num_vms = 0;
  EXPECT_THROW(sim.add_tenant_pinned(req, {}), std::invalid_argument);
}

TEST(ClusterSim, TcpUsesFullLink) {
  ClusterSim sim(small_cluster(Scheme::kTcp));
  TenantRequest req;
  req.num_vms = 2;
  req.guarantee = {500 * kMbps, Bytes{1500}, TimeNs{0}, RateBps{0}};
  const auto t = sim.add_tenant(req);
  ASSERT_TRUE(t);
  workload::BulkDriver bulk(sim, *t, {{0, 1}}, 256 * kKB);
  bulk.start(200 * kMsec);
  sim.run_until(200 * kMsec);
  // No pacing: TCP grabs (most of) the 10G link regardless of guarantee.
  EXPECT_GT(bulk.goodput_bps() / 1e9, 5.0);
}

TEST(ClusterSim, HoseShareSplitsAcrossSenders) {
  // Three senders blast one receiver: EyeQ-style coordination caps the
  // receiver at its hose bandwidth B, shared among the senders.
  ClusterSim sim(spread_cluster(Scheme::kSilo));
  const auto t = sim.add_tenant(silo_tenant(4, 900 * kMbps));
  ASSERT_TRUE(t);
  for (int v = 1; v < 4; ++v)
    ASSERT_NE(sim.vm_server(*t, v), sim.vm_server(*t, 0));
  workload::BulkDriver bulk(sim, *t, {{1, 0}, {2, 0}, {3, 0}}, 128 * kKB);
  bulk.start(500 * kMsec);
  sim.run_until(500 * kMsec);
  const double total = bulk.goodput_bps() / 1e9;
  EXPECT_LT(total, 1.0);   // <= B (plus slack)
  EXPECT_GT(total, 0.65);  // but the guarantee is actually delivered
}

TEST(ClusterSim, ContentionHurtsTcpButNotSilo) {
  // Miniature Fig 1 / Fig 11: a small-message tenant shares the cluster
  // with an all-to-all bulk tenant.
  auto run = [&](Scheme scheme) {
    auto cfg = small_cluster(scheme);
    cfg.topo.vm_slots_per_server = 3;  // tenants must span servers
    ClusterSim sim(cfg);
    TenantRequest a;
    a.num_vms = 4;
    a.guarantee = {300 * kMbps, 3 * kKB, 1 * kMsec, 1 * kGbps};
    a.tenant_class = TenantClass::kDelaySensitive;
    TenantRequest b;
    b.num_vms = 8;
    b.guarantee = {1 * kGbps, Bytes{1500}, TimeNs{0}, 1 * kGbps};
    const auto ta = sim.add_tenant(a);
    const auto tb = sim.add_tenant(b);
    EXPECT_TRUE(ta && tb);
    // Pick a cross-server VM pair of tenant A for the latency probe.
    int src = 1;
    for (int v = 1; v < a.num_vms; ++v)
      if (sim.vm_server(*ta, v) != sim.vm_server(*ta, 0)) src = v;
    EXPECT_NE(sim.vm_server(*ta, src), sim.vm_server(*ta, 0));
    workload::BulkDriver bulk(sim, *tb, workload::all_to_all(8), 256 * kKB);
    bulk.start(400 * kMsec);
    workload::PoissonMessageDriver msgs(sim, *ta, src, 0, 500.0, 2 * kKB, 42);
    msgs.start(400 * kMsec);
    sim.run_until(420 * kMsec);
    EXPECT_GT(msgs.completed(), 50);
    return msgs.latencies_us().percentile(99);
  };
  const double tcp99 = run(Scheme::kTcp);
  const double silo99 = run(Scheme::kSilo);
  EXPECT_LT(silo99, tcp99);  // predictability under contention
}

TEST(ClusterSim, PlacementRejectionPropagates) {
  ClusterSim sim(small_cluster(Scheme::kSilo));
  // Demand far beyond the cluster: 31 VMs > 30 slots.
  EXPECT_FALSE(sim.add_tenant(silo_tenant(31, 100 * kMbps)).has_value());
  // Bandwidth overload: 6 VMs per server * 3 Gbps > 10 G access links.
  int admitted = 0;
  for (int i = 0; i < 5; ++i)
    if (sim.add_tenant(silo_tenant(6, 3 * kGbps, Bytes{1500}))) ++admitted;
  EXPECT_LT(admitted, 5);
}

TEST(ClusterSim, RtoTrackingPerTenant) {
  ClusterSim sim(small_cluster(Scheme::kTcp));
  TenantRequest req;
  req.num_vms = 6;
  req.guarantee = {1 * kGbps, Bytes{1500}, TimeNs{0}, RateBps{0}};
  const auto t = sim.add_tenant(req);
  ASSERT_TRUE(t);
  EXPECT_EQ(sim.tenant_rto_count(*t), 0);
  // All-to-one incast of large bursts across tenants: drops are expected
  // with TCP; we only assert the counter plumbing works (>= 0 and bounded).
  workload::BurstDriver bursts(sim, *t, 6, {2000.0, 64 * kKB}, 7);
  bursts.start(100 * kMsec);
  sim.run_until(150 * kMsec);
  EXPECT_GT(bursts.completed_messages(), 0);
  EXPECT_GE(sim.tenant_rto_count(*t), 0);
}

TEST(ClusterSim, EtcDriverRoundTrips) {
  ClusterSim sim(small_cluster(Scheme::kSilo));
  const auto t =
      sim.add_tenant(silo_tenant(5, 210 * kMbps, 3 * kKB, 2 * kMsec));
  ASSERT_TRUE(t);
  workload::EtcDriver etc(sim, *t, 0, {1, 2, 3, 4}, {}, 13);
  etc.start(200 * kMsec);
  sim.run_until(250 * kMsec);
  EXPECT_GT(etc.completed_ops(), 100);
  EXPECT_GE(etc.issued_ops(), etc.completed_ops());
  // Transactions complete in sane time (well under a second each).
  EXPECT_LT(etc.latencies_us().percentile(99), 1e5);
}

TEST(ClusterSim, BestEffortRidesLowPriority) {
  ClusterSim sim(small_cluster(Scheme::kSilo));
  TenantRequest be;
  be.num_vms = 2;
  be.guarantee = {1 * kGbps, Bytes{1500}, TimeNs{0}, 1 * kGbps};
  be.tenant_class = TenantClass::kBestEffort;
  const auto t = sim.add_tenant(be);
  ASSERT_TRUE(t);
  bool done = false;
  sim.send_message(*t, 0, 1, 100 * kKB,
                   [&](const ClusterSim::MessageResult&) { done = true; });
  sim.run_until(1 * kSec);
  EXPECT_TRUE(done);  // unreserved but functional
}


TEST(ClusterSim, QjumpLevelsAndPriorities) {
  // QJUMP (§7): delay-sensitive tenants get one packet per network epoch
  // at high priority; bulk tenants are unpaced at low priority.
  ClusterSim sim(spread_cluster(Scheme::kQjump));
  TenantRequest a;
  a.num_vms = 2;
  a.tenant_class = TenantClass::kDelaySensitive;
  a.guarantee = {500 * kMbps, 15 * kKB, 1 * kMsec, 1 * kGbps};
  const auto ta = sim.add_tenant(a);
  ASSERT_TRUE(ta);
  // A backlogged "latency level" flow is throttled to ~1 MTU per epoch,
  // far below the nominal guarantee.
  workload::BulkDriver bulk(sim, *ta, {{0, 1}}, 64 * kKB);
  bulk.start(300 * kMsec);
  sim.run_until(300 * kMsec);
  const double epoch_rate =
      static_cast<double>(kMtu) * 8e9 / static_cast<double>(sim.qjump_epoch());
  EXPECT_LT(bulk.goodput_bps(), 1.5 * epoch_rate);
  EXPECT_GT(bulk.goodput_bps(), 0.3 * epoch_rate);
}

TEST(ClusterSim, QjumpSmallMessagesBeatTcpUnderContention) {
  // The property QJUMP is built for: tiny high-priority messages keep a
  // low tail even next to bulk traffic (at the price of tiny bandwidth).
  auto cfg = small_cluster(Scheme::kQjump);
  cfg.topo.vm_slots_per_server = 3;
  ClusterSim sim(cfg);
  TenantRequest a;
  a.num_vms = 4;
  a.tenant_class = TenantClass::kDelaySensitive;
  a.guarantee = {300 * kMbps, 3 * kKB, 1 * kMsec, 1 * kGbps};
  TenantRequest b;
  b.num_vms = 8;
  b.tenant_class = TenantClass::kBandwidthOnly;
  b.guarantee = {1 * kGbps, Bytes{1500}, TimeNs{0}, 1 * kGbps};
  const auto ta = sim.add_tenant(a);
  const auto tb = sim.add_tenant(b);
  ASSERT_TRUE(ta && tb);
  int src = 1;
  for (int v = 1; v < a.num_vms; ++v)
    if (sim.vm_server(*ta, v) != sim.vm_server(*ta, 0)) src = v;
  workload::BulkDriver bulk(sim, *tb, workload::all_to_all(8), 256 * kKB);
  bulk.start(300 * kMsec);
  // Single-packet messages: the regime QJUMP guarantees.
  workload::PoissonMessageDriver msgs(sim, *ta, src, 0, 300.0, Bytes{1200}, 42);
  msgs.start(300 * kMsec);
  sim.run_until(350 * kMsec);
  EXPECT_GT(msgs.completed(), 50);
  // High-priority single packets cross a loaded fabric in well under a
  // millisecond at the tail.
  EXPECT_LT(msgs.latencies_us().percentile(99), 1000.0);
}
// Every scheme must deliver messages correctly; only timing differs.
class SchemeMatrix : public ::testing::TestWithParam<Scheme> {};

TEST_P(SchemeMatrix, DeliversUnderLoad) {
  ClusterSim sim(small_cluster(GetParam()));
  TenantRequest req;
  req.num_vms = 6;
  req.guarantee = {500 * kMbps, 15 * kKB, 1 * kMsec, 1 * kGbps};
  req.tenant_class = TenantClass::kDelaySensitive;
  const auto t = sim.add_tenant(req);
  ASSERT_TRUE(t);
  workload::BurstDriver bursts(sim, *t, 6, {200.0, 10 * kKB}, 3);
  bursts.start(200 * kMsec);
  sim.run_until(400 * kMsec);
  EXPECT_GT(bursts.completed_messages(),
            bursts.issued_messages() * 9 / 10);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeMatrix,
                         ::testing::Values(Scheme::kSilo, Scheme::kTcp,
                                           Scheme::kDctcp, Scheme::kHull,
                                           Scheme::kOktopus,
                                           Scheme::kOktopusPlus,
                                           Scheme::kQjump,
                                           Scheme::kPfabric),
                         [](const auto& info) {
                           const std::string n = scheme_name(info.param);
                           return n == "Okto+" ? std::string("OktoPlus") : n;
                         });

}  // namespace
}  // namespace silo::sim
