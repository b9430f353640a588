// Regression tests for defects found while bringing the system up. Each
// test documents the failure mode it pins down.
#include <gtest/gtest.h>

#include "netcalc/curve.h"
#include "pacer/token_bucket.h"
#include "pacer/vm_pacer.h"
#include "placement/port_load.h"
#include "sim/cluster.h"
#include "sim/network.h"
#include "workload/drivers.h"

namespace silo {
namespace {

// A conformance query at a chained (future) time must not disturb the
// bucket: shared middle/bottom buckets otherwise inherit one
// destination's wait and serialize all destinations behind it.
TEST(Regression, TokenBucketConformanceIsPure) {
  pacer::TokenBucket tb(1 * kGbps, 15 * kKB);
  tb.consume(TimeNs{0}, 15 * kKB);  // empty at t=0
  const TimeNs far = tb.earliest_conformance(TimeNs{0}, 15 * kKB);
  EXPECT_GT(far, 100 * kUsec);
  // Querying for the far future must not change what a query "now" sees.
  const TimeNs near1 = tb.earliest_conformance(TimeNs{0}, Bytes{1500});
  (void)tb.earliest_conformance(1 * kSec, 15 * kKB);
  const TimeNs near2 = tb.earliest_conformance(TimeNs{0}, Bytes{1500});
  EXPECT_EQ(near1, near2);
  EXPECT_DOUBLE_EQ(tb.tokens(TimeNs{0}), tb.tokens(TimeNs{0}));
}

TEST(Regression, VmPacerPeekDoesNotConsume) {
  pacer::VmPacer pacer({1 * kGbps, 15 * kKB, TimeNs{0}, 1 * kGbps});
  const TimeNs p1 = pacer.peek(TimeNs{0}, 1, Bytes{1500});
  const TimeNs p2 = pacer.peek(TimeNs{0}, 1, Bytes{1500});
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(pacer.stamp(TimeNs{0}, 1, Bytes{1500}), p1);
}

// One slow destination must not starve the others: the host's release
// scheduler has to stay work-conserving across destination queues
// (release-order charging + round-robin tie breaking).
TEST(Regression, HostSchedulerIsFairAcrossDestinations) {
  sim::EventQueue ev;
  topology::TopologyConfig tc;
  tc.pods = 1;
  tc.racks_per_pod = 1;
  tc.servers_per_rack = 5;
  tc.vm_slots_per_server = 1;
  topology::Topology topo(tc);
  sim::Fabric fabric(topo, sim::PortConfig{},
                     std::vector<int>(topo.num_ports(), 0), {&ev});
  std::int64_t recv[5] = {0, 0, 0, 0, 0};
  fabric.set_island_deliver([&](int, sim::EventQueue&, sim::PacketHandle h) {
    const sim::Packet& p = ev.pool().get(h);
    recv[p.dst_vm] += p.payload.count();
    ev.pool().free(h);
  });
  sim::Host::Config hc;
  hc.nic_mode = pacer::NicMode::kPacedVoid;
  sim::Host host(ev, fabric, 0, hc);
  pacer::VmPacer pacer({2 * kGbps, Bytes{1500}, TimeNs{0}, 2 * kGbps});
  host.attach_pacer(0, &pacer);
  for (int d = 1; d <= 3; ++d)
    pacer.set_destination_rate(TimeNs{0}, d, RateBps{2e9 / 3});

  // Continuous backlog toward three destinations.
  std::function<void()> refill = [&] {
    for (int d = 1; d <= 3; ++d) {
      for (int i = 0; i < 10; ++i) {
        sim::Packet p;
        p.id = 1;
        p.src_vm = 0;
        p.dst_vm = d;
        p.src_server = 0;
        p.dst_server = d;
        p.payload = Bytes{1460};
        p.wire_bytes = Bytes{1500};
        host.send(ev.pool().clone(p));
      }
    }
    if (ev.now() < 50 * kMsec) ev.after(100 * kUsec, refill);
  };
  ev.after(TimeNs{0}, refill);
  ev.run_until(50 * kMsec);

  const double total = static_cast<double>(recv[1] + recv[2] + recv[3]);
  EXPECT_GT(total * 8 / 50e-3 / 1e9, 1.7);  // aggregate near B = 2G
  for (int d = 1; d <= 3; ++d) {
    const double share = static_cast<double>(recv[d]) / total;
    EXPECT_NEAR(share, 1.0 / 3.0, 0.05) << "dst " << d;
  }
}

// Destination-rate coordination must address the buckets the data path
// stamps with (global VM ids), not tenant-local indices — a second
// tenant (vm_base > 0) would otherwise be coordinated into phantom
// buckets while real traffic ran unthrottled at the default rate.
TEST(Regression, SecondTenantHoseCoordinationUsesGlobalIds) {
  sim::ClusterConfig cfg;
  cfg.topo.pods = 1;
  cfg.topo.racks_per_pod = 1;
  cfg.topo.servers_per_rack = 5;
  cfg.topo.vm_slots_per_server = 1;  // force cross-server pairs
  cfg.scheme = sim::Scheme::kSilo;
  sim::ClusterSim cluster(cfg);

  TenantRequest first;  // occupies vm id 0 so tenant 2 has a base > 0
  first.num_vms = 1;
  first.guarantee = {100 * kMbps, Bytes{1500}, TimeNs{0}, 100 * kMbps};
  ASSERT_TRUE(cluster.add_tenant(first).has_value());

  TenantRequest second;
  second.num_vms = 4;
  second.guarantee = {400 * kMbps, Bytes{1500}, TimeNs{0}, 400 * kMbps};
  const auto t = cluster.add_tenant(second);
  ASSERT_TRUE(t.has_value());

  // Three senders blast VM 0 of tenant 2: receiver hose must cap the
  // aggregate near 400 Mbps (plus bounded slack), not 3x the default.
  workload::BulkDriver bulk(cluster, *t, {{1, 0}, {2, 0}, {3, 0}},
                            Bytes{128 * kKB});
  bulk.start(400 * kMsec);
  cluster.run_until(400 * kMsec);
  EXPECT_LT(bulk.goodput_bps() / 1e9, 0.5);
  EXPECT_GT(bulk.goodput_bps() / 1e9, 0.3);
}

// The O(1) admission fast path must agree with the full network-calculus
// analysis it replaces.
class QueueBoundParity : public ::testing::TestWithParam<int> {};

TEST_P(QueueBoundParity, ClosedFormMatchesCurveAnalysis) {
  const int k = GetParam();
  placement::PortLoad load;
  for (int i = 0; i < k; ++i) {
    placement::PortContribution c;
    c.rate_bps = 0.4e9 + 0.1e9 * i;
    c.burst_bytes = 20e3 * (i + 1);
    c.burst_rate_bps = 2e9;
    c.jump_bytes = 1500;
    load.add(c);
  }
  const RateBps service = 10 * kGbps;
  const TimeNs fast = load.queue_bound(service);
  const auto slow = netcalc::analyze_queue(
      load.arrival_curve(), netcalc::Curve::constant_rate(service));
  ASSERT_TRUE(slow.queue_bound.has_value());
  ASSERT_GE(fast, TimeNs{0});
  EXPECT_NEAR(static_cast<double>(fast),
              static_cast<double>(*slow.queue_bound),
              2.0 + 0.001 * static_cast<double>(*slow.queue_bound));
}

INSTANTIATE_TEST_SUITE_P(Loads, QueueBoundParity,
                         ::testing::Values(1, 2, 4, 6, 8));

TEST(Regression, QueueBoundOverloadReturnsNegative) {
  placement::PortLoad load;
  placement::PortContribution c;
  c.rate_bps = 11e9;
  c.burst_rate_bps = 11e9;
  load.add(c);
  EXPECT_EQ(load.queue_bound(10 * kGbps), TimeNs{-1});
}

TEST(Regression, ShiftedLeftSemantics) {
  const auto a =
      netcalc::Curve::rate_limited_burst(1 * kGbps, 100 * kKB, 10 * kGbps);
  const TimeNs delta = 30 * kUsec;
  const auto s = a.shifted_left(delta);
  for (TimeNs t : {TimeNs{0}, TimeNs{20 * kUsec}, TimeNs{57 * kUsec},
                   TimeNs{500 * kUsec}}) {
    EXPECT_NEAR(s.value(t), a.value(t + delta), 1.0) << t;
  }
  // Shift by zero (or on the zero curve) is the identity.
  EXPECT_NEAR(a.shifted_left(TimeNs{0}).value(kUsec), a.value(kUsec), 1e-9);
  EXPECT_TRUE(netcalc::Curve{}.shifted_left(delta).is_zero());
}

TEST(Regression, SustainedInterceptIsTokenBucketBurst) {
  const auto a =
      netcalc::Curve::rate_limited_burst(1 * kGbps, 100 * kKB, 10 * kGbps);
  EXPECT_NEAR(a.sustained_intercept(), 100e3, 20.0);
  const auto tb = netcalc::Curve::token_bucket(2 * kGbps, 5 * kKB);
  EXPECT_NEAR(tb.sustained_intercept(), 5e3, 1e-6);
}

}  // namespace
}  // namespace silo
