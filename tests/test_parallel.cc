// Deterministic parallel execution: partition invariants, the zero-
// lookahead edge case, and the determinism matrix — the same scenario run
// sequentially, under the parallel engine's serial fallback, and under the
// threaded executor at 1/2/4/8 threads must produce bit-identical delivery
// traces and merged metrics. See DESIGN.md "Parallel execution &
// conservative synchronization".
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "par/thread_executor.h"
#include "sim/cluster.h"
#include "sim/faults.h"
#include "sim/parallel.h"
#include "util/fnv.h"
#include "workload/drivers.h"
#include "workload/patterns.h"

namespace silo {
namespace {

using sim::IslandPartition;

topology::TopologyConfig two_pod_topo() {
  topology::TopologyConfig t;
  t.pods = 2;
  t.racks_per_pod = 2;
  t.servers_per_rack = 4;
  t.vm_slots_per_server = 2;
  return t;
}

// ------------------------------------------------------ partition builder

TEST(IslandPartition, TenantRacksShareOneIsland) {
  const topology::Topology topo(two_pod_topo());
  // Tenant 0 spans racks 0 and 2 (across pods); tenant 1 lives in rack 1.
  const auto part = IslandPartition::build(topo, TimeNs{500},
                                           {{0, 8}, {4, 5}});
  EXPECT_EQ(part.rack_island[0], part.rack_island[2]);
  EXPECT_NE(part.rack_island[0], part.rack_island[1]);
  EXPECT_EQ(part.island_of_server(topo, 8), part.rack_island[0]);
  EXPECT_EQ(part.island_of_server(topo, 5), part.rack_island[1]);
  // Rack-level queues belong to their rack's island.
  EXPECT_EQ(part.port_island[static_cast<std::size_t>(topo.rack_up(1).value)],
            part.rack_island[1]);
  EXPECT_EQ(
      part.port_island[static_cast<std::size_t>(topo.server_down(4).value)],
      part.rack_island[1]);
}

TEST(IslandPartition, SharedPodQueuesBecomeDedicatedIslands) {
  const topology::Topology topo(two_pod_topo());
  // Two pod-spanning tenants from different rack groups: both send through
  // pod 0's and pod 1's aggregation queues, so those become their own
  // islands and every crossing has positive lookahead.
  const auto part = IslandPartition::build(topo, TimeNs{500},
                                           {{0, 8}, {4, 12}});
  const int a = part.island_of_server(topo, 0);
  const int b = part.island_of_server(topo, 4);
  EXPECT_EQ(part.island_of_server(topo, 8), a);
  EXPECT_EQ(part.island_of_server(topo, 12), b);
  EXPECT_NE(a, b);
  const int up0 =
      part.port_island[static_cast<std::size_t>(topo.pod_up(0).value)];
  EXPECT_NE(up0, a);
  EXPECT_NE(up0, b);
  EXPECT_EQ(part.num_islands, 6);  // 2 rack groups + 4 pod queues
  EXPECT_GT(part.crossing_edges, 0);
  EXPECT_EQ(part.merged_zero_latency, 0);
  // All six islands exchange traffic: one component, lookahead = the link.
  EXPECT_EQ(part.num_components, 1);
  EXPECT_EQ(part.component_lookahead[0], TimeNs{500});
}

TEST(IslandPartition, RackLocalTenantsAreIsolatedComponents) {
  const topology::Topology topo(two_pod_topo());
  const auto part = IslandPartition::build(topo, TimeNs{500},
                                           {{0, 1}, {4, 5}, {8, 9}});
  // No pod-spanning tenant: no crossings, every island runs to the
  // deadline unconstrained (infinite lookahead).
  EXPECT_EQ(part.crossing_edges, 0);
  EXPECT_EQ(part.num_components, part.num_islands);
  for (const TimeNs la : part.component_lookahead)
    EXPECT_EQ(la, sim::kTimeInfinity);
}

TEST(IslandPartition, ZeroLookaheadCrossingsAreMergedAway) {
  const topology::Topology topo(two_pod_topo());
  // Degenerate 0 ns fabric: a conservative window can never advance past a
  // zero-latency crossing, so the would-be neighbors are merged at build
  // time instead — the deadlock/livelock case is unrepresentable.
  const auto part = IslandPartition::build(topo, TimeNs{0},
                                           {{0, 8}, {4, 12}});
  EXPECT_GT(part.merged_zero_latency, 0);
  EXPECT_EQ(part.crossing_edges, 0);
  EXPECT_EQ(part.island_of_server(topo, 0), part.island_of_server(topo, 4));
}

// -------------------------------------------------- determinism scenarios

struct Outcome {
  std::uint64_t delivery_checksum = 0;
  std::uint64_t island_checksum = 0;
  std::int64_t deliveries = 0;
  std::int64_t ties = 0;
  std::int64_t rounds = 0;
  int islands = 0;
  std::int64_t completed = 0;
  std::vector<obs::MetricSample> metrics;
  // Flap scenario only.
  std::int64_t loss_drops = 0;  ///< fault drops at the loss-window port
  std::int64_t unfinished = 0;  ///< abandoned messages + unacked bytes
  std::uint64_t configs = 0;    ///< every server's applied pacer state
};

/// threads == -1: the one-island partition. threads == 0: parallel engine,
/// serial fallback. threads >= 1: parallel engine, thread-pool executor.
Outcome run_flap_scenario(int threads) {
  sim::ClusterConfig cfg;
  cfg.topo = two_pod_topo();
  cfg.scheme = sim::Scheme::kSilo;
  cfg.tcp.min_rto = 2 * kMsec;
  cfg.parallel.enabled = threads >= 0;
  sim::ClusterSim cluster(cfg);
  std::unique_ptr<par::ThreadPoolExecutor> pool;
  if (threads >= 1) {
    pool = std::make_unique<par::ThreadPoolExecutor>(threads);
    cluster.set_island_executor(pool.get());
  }
  cluster.enable_delivery_trace();

  const auto ds = [] {
    TenantRequest r;
    r.num_vms = 2;
    r.tenant_class = TenantClass::kDelaySensitive;
    r.guarantee = {RateBps{0.3e9}, 15 * kKB, 1 * kMsec, 1 * kGbps};
    return r;
  }();
  const auto bulk = [] {
    TenantRequest r;
    r.num_vms = 2;
    r.tenant_class = TenantClass::kBandwidthOnly;
    r.guarantee = {RateBps{1e9}, Bytes{1500}, TimeNs{0}, RateBps{1e9}};
    return r;
  }();
  // Two pod-spanning tenants (cross-island traffic through the shared pod
  // queues) and two rack-local ones (island-internal load).
  const int ta = cluster.add_tenant_pinned(ds, {0, 8});
  const int tb = cluster.add_tenant_pinned(ds, {4, 12});
  const int tc = cluster.add_tenant_pinned(bulk, {1, 2});
  const int td = cluster.add_tenant_pinned(bulk, {5, 6});

  RetryPolicy rp;
  rp.max_attempts = 6;
  workload::PoissonMessageDriver pa(cluster, ta, 0, 1, 4000, 15 * kKB, 11);
  workload::PoissonMessageDriver pb(cluster, tb, 0, 1, 4000, 15 * kKB, 12);
  workload::BulkDriver bc(cluster, tc, workload::all_to_all(2), 64 * kKB, 13);
  workload::BulkDriver bd(cluster, td, workload::all_to_all(2), 64 * kKB, 14);
  pa.set_retry(rp);
  pb.set_retry(rp);
  bc.set_retry(rp);
  bd.set_retry(rp);
  pa.start(30 * kMsec);
  pb.start(30 * kMsec);
  bc.start(30 * kMsec);
  bd.start(30 * kMsec);

  // Faults: flap rack 0's ToR uplink mid-run (the downed link kills
  // tenant A's cross-pod traffic; retries recover it), and open a loss
  // window on pod 0's uplink, its own island, which both pod-spanning
  // tenants cross.
  const topology::PortId lossy = cluster.topo().pod_up(0);
  sim::FaultPlan plan;
  plan.link_flap(10 * kMsec, cluster.topo().rack_up(0), 8 * kMsec);
  plan.loss_window(12 * kMsec, 20 * kMsec, lossy, 0.05);
  sim::FaultInjector chaos(cluster, plan);
  chaos.arm();

  cluster.run_until(20 * kMsec);
  // Control plane between runs: pacer records for the pod-spanning
  // tenants' servers (islands in both pods), and a lease that raises
  // tenant D's VM 0 by 200 Mbps on its server.
  std::vector<PacerConfigDelta> deltas;
  for (const int t : {ta, tb}) {
    for (int v = 0; v < 2; ++v) {
      PacerConfigDelta d;
      d.server = cluster.vm_server(t, v);
      const int peer = 1 - v;
      d.upserts.push_back({t, v, d.server, ds.guarantee,
                           {{peer, cluster.vm_server(t, peer)}}});
      deltas.push_back(std::move(d));
    }
  }
  PacerConfigDelta lease;
  lease.server = cluster.vm_server(td, 0);
  lease.lease_epoch = 1;
  lease.lease_upserts.push_back(
      {/*id=*/1, /*owner=*/tc, /*borrower=*/td, /*vm_index=*/0, lease.server,
       200 * kMbps, /*issued_epoch=*/1, /*expiry_epoch=*/100});
  deltas.push_back(std::move(lease));
  cluster.apply_config_deltas(deltas);
  cluster.run_until(80 * kMsec);

  Outcome out;
  out.loss_drops = cluster.fabric().port(lossy).stats().fault_drops;
  out.unfinished = pa.abandoned_messages() + pb.abandoned_messages() +
                   bc.abandoned_chunks() + bd.abandoned_chunks();
  for (const int t : {ta, tb, tc, td}) {
    for (const auto& [src, dst] : {std::pair{0, 1}, std::pair{1, 0}}) {
      if (const sim::TcpFlow* f = cluster.debug_flow(t, src, dst))
        out.unfinished += f->bytes_written() - f->bytes_acked();
    }
  }
  out.configs = kFnvTruncatedBasis;
  for (int s = 0; s < cluster.topo().num_servers(); ++s) {
    const PacerConfigTable& table = cluster.host(s).pacer_config();
    out.configs = fnv1a_word(out.configs, table.checksum());
    out.configs = fnv1a_word(out.configs, table.lease_checksum());
  }
  out.delivery_checksum = cluster.delivery_trace_checksum();
  out.island_checksum = cluster.island_trace_checksum();
  out.deliveries = cluster.delivery_trace_size();
  out.ties = cluster.cross_tie_collisions();
  out.rounds = cluster.parallel_rounds();
  out.islands = cluster.num_islands();
  out.completed = cluster.total_completed_messages();
  out.metrics = cluster.merged_metrics();
  return out;
}

/// Churn-storm-sized scenario: every rack also runs local all-to-all bulk
/// while both pod-spanning tenants stream, unpaced TCP this time.
Outcome run_storm_scenario(int threads) {
  sim::ClusterConfig cfg;
  cfg.topo = two_pod_topo();
  cfg.scheme = sim::Scheme::kTcp;
  cfg.tcp.min_rto = 10 * kMsec;
  cfg.parallel.enabled = threads >= 0;
  sim::ClusterSim cluster(cfg);
  std::unique_ptr<par::ThreadPoolExecutor> pool;
  if (threads >= 1) {
    pool = std::make_unique<par::ThreadPoolExecutor>(threads);
    cluster.set_island_executor(pool.get());
  }
  cluster.enable_delivery_trace();

  TenantRequest quad;
  quad.num_vms = 4;
  quad.tenant_class = TenantClass::kBandwidthOnly;
  quad.guarantee = {RateBps{1e9}, Bytes{1500}, TimeNs{0}, RateBps{1e9}};
  std::vector<std::unique_ptr<workload::BulkDriver>> drivers;
  // One all-to-all tenant per rack...
  for (int r = 0; r < 4; ++r) {
    const int base = r * 4;
    const int t = cluster.add_tenant_pinned(
        quad, {base, base + 1, base + 2, base + 3});
    drivers.push_back(std::make_unique<workload::BulkDriver>(
        cluster, t, workload::all_to_all(4), 64 * kKB,
        static_cast<std::uint64_t>(20 + r)));
  }
  // ...plus two pod-spanning tenants sharing the aggregation queues. One
  // saturating bulk stream and one Poisson message source: two identical
  // streams started together phase-lock on the batch-windowed NICs and
  // land same-ns arrivals in the shared pod queues (cross-island ties);
  // exponential inter-arrivals land off the other stream's MTU grid, so
  // the scenario stays tie-free and the matrix can assert ties == 0.
  TenantRequest pair = quad;
  pair.num_vms = 2;
  const int tx = cluster.add_tenant_pinned(pair, {3, 11});
  const int ty = cluster.add_tenant_pinned(pair, {7, 15});
  drivers.push_back(std::make_unique<workload::BulkDriver>(
      cluster, tx, workload::all_to_all(2), 64 * kKB, 30));
  workload::PoissonMessageDriver dy(cluster, ty, 0, 1, 3000, 15 * kKB, 31);
  for (auto& d : drivers) d->start(25 * kMsec);
  dy.start(25 * kMsec);

  cluster.run_until(40 * kMsec);

  Outcome out;
  out.delivery_checksum = cluster.delivery_trace_checksum();
  out.island_checksum = cluster.island_trace_checksum();
  out.deliveries = cluster.delivery_trace_size();
  out.ties = cluster.cross_tie_collisions();
  out.rounds = cluster.parallel_rounds();
  out.islands = cluster.num_islands();
  out.completed = cluster.total_completed_messages();
  out.metrics = cluster.merged_metrics();
  return out;
}

/// exact_hist_sum: histogram sums are double accumulators, so a merged
/// multi-island snapshot matches a sequential one only up to fp addition
/// order; across parallel runs of the same partition they are bit-equal.
///
/// skip_boundary_samples: under equal-rate store-and-forward links a cross-
/// island arrival can land at the exact nanosecond the destination port's
/// in-flight packet finishes transmitting. Enqueue-before-tx-done and
/// tx-done-before-enqueue commute for FIFO delivery (the delivery trace is
/// bit-identical either way) but the enqueue-side queue-depth *sample* sees
/// the departing packet or not. The sequential engine orders the pair by
/// global schedule seq, which a mailbox re-injection cannot reproduce, so a
/// saturating scenario compares queue-depth sample metrics only among
/// parallel runs (where they are bit-equal) and skips them vs sequential.
void expect_metrics_equal(const std::vector<obs::MetricSample>& a,
                          const std::vector<obs::MetricSample>& b,
                          bool exact_hist_sum = true,
                          bool skip_boundary_samples = false) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    if (skip_boundary_samples &&
        a[i].name.find("queue_bytes") != std::string::npos)
      continue;
    EXPECT_EQ(a[i].value, b[i].value) << a[i].name;
    ASSERT_EQ(a[i].hist.has_value(), b[i].hist.has_value()) << a[i].name;
    if (a[i].hist) {
      EXPECT_EQ(a[i].hist->counts, b[i].hist->counts) << a[i].name;
      if (exact_hist_sum)
        EXPECT_EQ(a[i].hist->sum, b[i].hist->sum) << a[i].name;
      else
        EXPECT_NEAR(a[i].hist->sum, b[i].hist->sum,
                    1e-9 * (1.0 + std::abs(a[i].hist->sum)))
            << a[i].name;
    }
  }
}

// The tentpole acceptance test. Baseline: the one-island partition.
// Every parallel run — serial fallback and thread pool at 1/2/4/8 — must
// reproduce its delivery trace bit-for-bit, agree on the merged metric
// snapshot (the loss window's fault drops and the deltas' controller.diff.*
// and pacer.lease.applied included) and on every server's applied pacer
// state, and never hit a cross-island tie (which certifies the checksum
// equality is structural, not a lucky tie-break).
TEST(ParallelDeterminism, FlapMatrixBitIdenticalAcrossThreadCounts) {
  const Outcome seq = run_flap_scenario(-1);
  ASSERT_GT(seq.deliveries, 1000);
  EXPECT_GT(seq.completed, 0);
  EXPECT_GT(seq.loss_drops, 0);
  EXPECT_EQ(seq.unfinished, 0);
  EXPECT_EQ(obs::metric_value(seq.metrics, "controller.diff.applied"), 5);
  EXPECT_EQ(obs::metric_value(seq.metrics, "pacer.lease.applied"), 1);

  const Outcome serial = run_flap_scenario(0);
  EXPECT_EQ(serial.islands, 6);
  EXPECT_GT(serial.rounds, 0);
  EXPECT_EQ(serial.ties, 0);
  EXPECT_EQ(serial.delivery_checksum, seq.delivery_checksum);
  EXPECT_EQ(serial.deliveries, seq.deliveries);
  EXPECT_EQ(serial.completed, seq.completed);
  EXPECT_EQ(serial.loss_drops, seq.loss_drops);
  EXPECT_EQ(serial.unfinished, 0);
  EXPECT_EQ(serial.configs, seq.configs);
  expect_metrics_equal(serial.metrics, seq.metrics, /*exact_hist_sum=*/false);

  for (const int threads : {1, 2, 4, 8}) {
    const Outcome par = run_flap_scenario(threads);
    EXPECT_EQ(par.delivery_checksum, seq.delivery_checksum) << threads;
    EXPECT_EQ(par.island_checksum, serial.island_checksum) << threads;
    EXPECT_EQ(par.deliveries, seq.deliveries) << threads;
    EXPECT_EQ(par.rounds, serial.rounds) << threads;
    EXPECT_EQ(par.ties, 0) << threads;
    EXPECT_EQ(par.completed, seq.completed) << threads;
    EXPECT_EQ(par.loss_drops, seq.loss_drops) << threads;
    EXPECT_EQ(par.unfinished, 0) << threads;
    EXPECT_EQ(par.configs, seq.configs) << threads;
    expect_metrics_equal(par.metrics, serial.metrics);
  }
}

TEST(ParallelDeterminism, StormMatrixBitIdenticalAcrossThreadCounts) {
  const Outcome seq = run_storm_scenario(-1);
  ASSERT_GT(seq.deliveries, 1000);

  const Outcome serial = run_storm_scenario(0);
  EXPECT_EQ(serial.islands, 6);
  EXPECT_EQ(serial.ties, 0);
  EXPECT_EQ(serial.delivery_checksum, seq.delivery_checksum);
  EXPECT_EQ(serial.deliveries, seq.deliveries);
  // Saturated equal-rate links: same-ns boundary coincidences shift a few
  // queue-depth samples vs the sequential engine (see expect_metrics_equal);
  // everything else, including the full delivery trace, matches exactly.
  expect_metrics_equal(serial.metrics, seq.metrics, /*exact_hist_sum=*/false,
                       /*skip_boundary_samples=*/true);

  for (const int threads : {1, 2, 4, 8}) {
    const Outcome par = run_storm_scenario(threads);
    EXPECT_EQ(par.delivery_checksum, seq.delivery_checksum) << threads;
    EXPECT_EQ(par.island_checksum, serial.island_checksum) << threads;
    EXPECT_EQ(par.rounds, serial.rounds) << threads;
    EXPECT_EQ(par.ties, 0) << threads;
    expect_metrics_equal(par.metrics, serial.metrics);
  }
}

// Zero-lookahead regression (satellite): a 0 ns fabric merges the would-be
// neighbors into one island, and the run terminates with the sequential
// engine's exact trace instead of deadlocking or livelocking.
TEST(ParallelDeterminism, ZeroLatencyFabricRunsToCompletion) {
  const auto run = [](bool parallel) {
    sim::ClusterConfig cfg;
    cfg.topo = two_pod_topo();
    cfg.scheme = sim::Scheme::kTcp;
    cfg.link_delay = TimeNs{0};
    cfg.parallel.enabled = parallel;
    sim::ClusterSim cluster(cfg);
    cluster.enable_delivery_trace();
    TenantRequest r;
    r.num_vms = 2;
    r.tenant_class = TenantClass::kBandwidthOnly;
    r.guarantee = {RateBps{1e9}, Bytes{1500}, TimeNs{0}, RateBps{1e9}};
    const int ta = cluster.add_tenant_pinned(r, {0, 8});
    const int tb = cluster.add_tenant_pinned(r, {4, 12});
    workload::BulkDriver da(cluster, ta, workload::all_to_all(2), 64 * kKB, 5);
    workload::BulkDriver db(cluster, tb, workload::all_to_all(2), 64 * kKB, 6);
    da.start(5 * kMsec);
    db.start(5 * kMsec);
    cluster.run_until(10 * kMsec);
    return std::pair<std::uint64_t, std::int64_t>{
        cluster.delivery_trace_checksum(), cluster.delivery_trace_size()};
  };
  const auto seq = run(false);
  const auto par = run(true);
  ASSERT_GT(seq.second, 100);
  EXPECT_EQ(par.first, seq.first);
  EXPECT_EQ(par.second, seq.second);
}

// Identical rack-local tenants that start at the same instant: every
// island delivers at the same instants, so the canonical checksum's
// equal-time groups span islands, and every island records over a
// thousand deliveries (many deque blocks). Sequential and islands runs at
// any thread count agree on the canonical checksum and size, and a
// run_until sliced at an odd step reproduces the one-shot island checksum.
TEST(ParallelDeterminism, SymmetricRacksAgreeOnDeliveryTrace) {
  struct Result {
    std::uint64_t canonical = 0;
    std::uint64_t island = 0;
    std::int64_t size = 0;
  };
  // threads as in run_flap_scenario; slice 0 runs in one shot.
  const auto run = [](int threads, TimeNs slice) {
    sim::ClusterConfig cfg;
    cfg.topo = two_pod_topo();
    cfg.scheme = sim::Scheme::kTcp;
    cfg.parallel.enabled = threads >= 0;
    sim::ClusterSim cluster(cfg);
    std::unique_ptr<par::ThreadPoolExecutor> pool;
    if (threads >= 1) {
      pool = std::make_unique<par::ThreadPoolExecutor>(threads);
      cluster.set_island_executor(pool.get());
    }
    cluster.enable_delivery_trace();
    TenantRequest r;
    r.num_vms = 2;
    r.tenant_class = TenantClass::kBandwidthOnly;
    r.guarantee = {RateBps{1e9}, Bytes{1500}, TimeNs{0}, RateBps{1e9}};
    const int racks = cfg.topo.pods * cfg.topo.racks_per_pod;
    std::vector<int> tenants;
    for (int rack = 0; rack < racks; ++rack) {
      const int s0 = rack * cfg.topo.servers_per_rack;
      tenants.push_back(cluster.add_tenant_pinned(r, {s0, s0 + 1}));
    }
    std::vector<std::unique_ptr<workload::BulkDriver>> drivers;
    for (const int t : tenants) {
      drivers.push_back(std::make_unique<workload::BulkDriver>(
          cluster, t, workload::all_to_all(2), 64 * kKB, 7));
      drivers.back()->start(3 * kMsec);
    }
    const TimeNs horizon = 4 * kMsec;
    if (slice > TimeNs{0}) {
      for (TimeNs t = slice; t < horizon; t = t + slice) cluster.run_until(t);
    }
    cluster.run_until(horizon);
    if (threads >= 0) {
      EXPECT_EQ(cluster.num_islands(), racks);
      const sim::DeliveryTrace& first = cluster.island_trace(0);
      for (int i = 0; i < cluster.num_islands(); ++i) {
        const sim::DeliveryTrace& t = cluster.island_trace(i);
        EXPECT_GE(t.size(), 1000u) << i;
        if (t.empty() || first.empty()) continue;  // failed just above
        EXPECT_EQ(t.front().at_ns, first.front().at_ns) << i;
      }
    }
    return Result{cluster.delivery_trace_checksum(),
                  cluster.island_trace_checksum(),
                  cluster.delivery_trace_size()};
  };
  const Result seq = run(-1, TimeNs{0});
  ASSERT_GT(seq.size, 4000);
  for (const int threads : {0, 1, 2, 4}) {
    const Result par = run(threads, TimeNs{0});
    EXPECT_EQ(par.canonical, seq.canonical) << threads;
    EXPECT_EQ(par.size, seq.size) << threads;
  }
  const Result one_shot = run(2, TimeNs{0});
  const Result sliced = run(2, TimeNs{37'013});
  EXPECT_EQ(sliced.island, one_shot.island);
  EXPECT_EQ(sliced.canonical, seq.canonical);
  EXPECT_EQ(sliced.size, seq.size);
}

// Sequential-only surfaces must refuse loudly in parallel mode instead of
// silently racing: the single-queue accessor, the flight recorder, lending,
// and post-materialization admission.
TEST(ParallelMode, SequentialOnlySurfacesThrow) {
  sim::ClusterConfig cfg;
  cfg.topo = two_pod_topo();
  cfg.parallel.enabled = true;
  sim::ClusterSim cluster(cfg);
  EXPECT_THROW(cluster.events(), std::logic_error);
  EXPECT_THROW(cluster.enable_flight_recorder(64), std::logic_error);

  sim::ClusterConfig lend = cfg;
  lend.lending.enabled = true;
  EXPECT_THROW(sim::ClusterSim{lend}, std::invalid_argument);

  TenantRequest r;
  r.num_vms = 2;
  r.tenant_class = TenantClass::kBandwidthOnly;
  r.guarantee = {RateBps{1e9}, Bytes{1500}, TimeNs{0}, RateBps{1e9}};
  cluster.add_tenant_pinned(r, {0, 1});
  cluster.run_until(kMsec);  // materializes the partition
  EXPECT_THROW(cluster.add_tenant_pinned(r, {4, 5}), std::logic_error);
  // The refused admission must not reach the placer: no phantom tenant.
  const int free_slots = cluster.placer().free_slots();
  const int placed = cluster.placer().admitted_tenants();
  EXPECT_THROW(cluster.add_tenant(r), std::logic_error);
  EXPECT_EQ(cluster.placer().free_slots(), free_slots);
  EXPECT_EQ(cluster.placer().admitted_tenants(), placed);
  EXPECT_EQ(cluster.num_tenants(), 1);
}

// arm() is all-or-nothing: the plan's link flap comes before the link
// fault on a port that does not exist, and must not be left scheduled by
// the throw.
TEST(ParallelMode, RejectedFaultPlanArmsNothing) {
  sim::ClusterConfig cfg;
  cfg.topo = two_pod_topo();
  cfg.parallel.enabled = true;
  sim::ClusterSim cluster(cfg);
  TenantRequest r;
  r.num_vms = 2;
  r.tenant_class = TenantClass::kBandwidthOnly;
  r.guarantee = {RateBps{1e9}, Bytes{1500}, TimeNs{0}, RateBps{1e9}};
  cluster.add_tenant_pinned(r, {0, 8});

  sim::FaultPlan plan;
  plan.link_flap(kMsec, cluster.topo().rack_up(0), kMsec);
  plan.link_down(2 * kMsec, topology::PortId{cluster.topo().num_ports()});
  sim::FaultInjector chaos(cluster, plan);
  EXPECT_THROW(chaos.arm(), std::out_of_range);
  cluster.run_until(5 * kMsec);
  EXPECT_EQ(chaos.executed(), 0);
}

// The thread-pool executor itself: all indices run exactly once, the
// return is a barrier, and a throwing body surfaces deterministically
// (lowest index) without wedging the pool.
TEST(ThreadPoolExecutor, RunsAllAndRethrowsLowestIndex) {
  par::ThreadPoolExecutor pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::vector<int> hits(64, 0);
  pool.parallel_for(64, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
  for (int i = 0; i < 64; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1);

  try {
    pool.parallel_for(8, [](int i) {
      if (i == 3 || i == 6)
        throw std::runtime_error("island " + std::to_string(i));
    });
    FAIL() << "expected the island exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "island 3");
  }
  // The pool survives: the next round still runs everything.
  std::vector<int> again(16, 0);
  pool.parallel_for(16, [&](int i) { again[static_cast<std::size_t>(i)]++; });
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(again[static_cast<std::size_t>(i)], 1);
}

}  // namespace
}  // namespace silo
