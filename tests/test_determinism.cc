// Event-ordering determinism regression tests guarding the event engine.
//
// The simulator's contract is bit-exact reproducibility: the same seed and
// scenario must produce the identical packet trace on every run, whether
// driven by one run_until or many small steps. The golden values below pin
// the delivery trace (ClusterSim::enable_delivery_trace()) across every
// scheduler change: its size, its canonical checksum and its arrival-order
// island checksum, so same-time ties must keep breaking by insertion
// sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sim/cluster.h"
#include "sim/delivery_trace.h"
#include "sim/packet_pool.h"
#include "util/rng.h"
#include "workload/drivers.h"
#include "workload/patterns.h"

namespace silo {
namespace {

struct ScenarioResult {
  std::uint64_t canonical = 0;  ///< delivery_trace_checksum()
  std::uint64_t arrival = 0;    ///< island_trace_checksum()
  std::int64_t packets = 0;     ///< delivery_trace_size()
  bool operator==(const ScenarioResult&) const = default;
  friend void PrintTo(const ScenarioResult& r, std::ostream* os) {
    *os << "{" << r.canonical << "ull, " << r.arrival << "ull, " << r.packets
        << "}";
  }
};

// A scaled-down Fig-12-style scenario: one class-A OLDI tenant doing
// synchronized all-to-one bursts plus one class-B all-to-all bulk tenant,
// sharing a two-rack fabric. `step` > 0 drives the clock through run_until
// in fixed increments instead of one shot. `ecn_marks`, when given,
// receives the run's merged sim.port.ecn_marks.
ScenarioResult run_scenario(sim::Scheme scheme, TimeNs step = TimeNs{0},
                            std::int64_t* ecn_marks = nullptr) {
  sim::ClusterConfig cfg;
  cfg.topo.pods = 1;
  cfg.topo.racks_per_pod = 2;
  cfg.topo.servers_per_rack = 4;
  cfg.topo.vm_slots_per_server = 2;
  cfg.scheme = scheme;
  cfg.tcp.min_rto = 10 * kMsec;
  // DCTCP's K (~20 MTU packets): this scenario's queues peak under the
  // 97 KB default, so DCTCP would never mark. Only DCTCP ports read it.
  cfg.ecn_threshold = 30 * kKB;
  sim::ClusterSim cluster(cfg);
  cluster.enable_delivery_trace();

  TenantRequest a;
  a.num_vms = 6;
  a.tenant_class = TenantClass::kDelaySensitive;
  a.guarantee = {RateBps{0.3e9}, 15 * kKB, 1 * kMsec, 1 * kGbps};
  const auto ta = cluster.add_tenant(a);
  TenantRequest b;
  b.num_vms = 4;
  b.tenant_class = TenantClass::kBandwidthOnly;
  b.guarantee = {RateBps{1e9}, Bytes{1500}, TimeNs{0}, RateBps{1e9}};
  const auto tb = cluster.add_tenant(b);
  EXPECT_TRUE(ta.has_value());
  EXPECT_TRUE(tb.has_value());

  workload::BurstDriver::Config bc;
  bc.receiver = 0;
  bc.message_size = 15 * kKB;
  bc.epochs_per_sec = 2000;
  workload::BurstDriver burst(cluster, *ta, a.num_vms, bc, 42);
  workload::BulkDriver bulk(cluster, *tb, workload::all_to_all(b.num_vms),
                            64 * kKB);
  burst.start(30 * kMsec);
  bulk.start(30 * kMsec);

  const TimeNs horizon = 40 * kMsec;
  if (step > TimeNs{0}) {
    for (TimeNs t = step; t <= horizon; t += step) cluster.run_until(t);
    cluster.run_until(horizon);
  } else {
    cluster.run_until(horizon);
  }
  if (ecn_marks != nullptr)
    *ecn_marks =
        obs::metric_value(cluster.merged_metrics(), "sim.port.ecn_marks");
  return {cluster.delivery_trace_checksum(), cluster.island_trace_checksum(),
          cluster.delivery_trace_size()};
}

TEST(Determinism, IdenticalTraceAcrossRuns) {
  std::map<sim::Scheme, ScenarioResult> traces;
  for (auto scheme : {sim::Scheme::kSilo, sim::Scheme::kTcp,
                      sim::Scheme::kDctcp, sim::Scheme::kPfabric}) {
    std::int64_t ecn_marks = 0;
    const auto first = run_scenario(scheme, TimeNs{0}, &ecn_marks);
    const auto second = run_scenario(scheme);
    EXPECT_EQ(first, second) << sim::scheme_name(scheme);
    EXPECT_GT(first.packets, 1000) << sim::scheme_name(scheme);
    if (scheme == sim::Scheme::kDctcp) {
      EXPECT_GT(ecn_marks, 0);
    }
    traces[scheme] = first;
  }
  // Marks, echoes and window cuts make DCTCP's trace its own.
  EXPECT_NE(traces[sim::Scheme::kDctcp].canonical,
            traces[sim::Scheme::kTcp].canonical);
}

TEST(Determinism, SteppedRunUntilMatchesSingleShot) {
  for (auto scheme : {sim::Scheme::kSilo, sim::Scheme::kPfabric}) {
    const auto whole = run_scenario(scheme);
    const auto stepped = run_scenario(scheme, 613 * kUsec);  // odd step size
    EXPECT_EQ(whole, stepped) << sim::scheme_name(scheme);
  }
}

// Golden delivery traces. The seed engine (std::function closures over a
// binary heap) fixed the packet stream; these values were recorded from the
// same stream (DCTCP's once its K was scaled to make it mark), and every
// later engine must reproduce them exactly: any divergence means event
// ordering or packet handling changed.
TEST(Determinism, GoldenTraceChecksums) {
  EXPECT_EQ(run_scenario(sim::Scheme::kSilo),
            (ScenarioResult{11121953673522673563ull, 8057066124703975891ull,
                            203118}));
  EXPECT_EQ(run_scenario(sim::Scheme::kTcp),
            (ScenarioResult{11991416437317057701ull, 7542358709878818077ull,
                            287254}));
  EXPECT_EQ(run_scenario(sim::Scheme::kPfabric),
            (ScenarioResult{11878102065824478974ull, 5119188699899601702ull,
                            287900}));
  EXPECT_EQ(run_scenario(sim::Scheme::kDctcp),
            (ScenarioResult{9272916652667052999ull, 17521097745538019367ull,
                            287254}));
}

// The tx hot path must not heap-allocate in steady state: once the warmup
// phase has sized the packet arena, further traffic recycles handles and
// rides typed events. The pool capacity and the std::function event count
// are the two regression counters.
TEST(PacketPool, SteadyStateIsAllocationFree) {
  sim::ClusterConfig cfg;
  cfg.topo.pods = 1;
  cfg.topo.racks_per_pod = 2;
  cfg.topo.servers_per_rack = 4;
  cfg.topo.vm_slots_per_server = 2;
  cfg.scheme = sim::Scheme::kSilo;
  cfg.tcp.min_rto = 10 * kMsec;
  sim::ClusterSim cluster(cfg);

  TenantRequest b;
  b.num_vms = 4;
  b.tenant_class = TenantClass::kBandwidthOnly;
  b.guarantee = {RateBps{1e9}, Bytes{1500}, TimeNs{0}, RateBps{1e9}};
  const auto tb = cluster.add_tenant(b);
  ASSERT_TRUE(tb.has_value());
  workload::BulkDriver bulk(cluster, *tb, workload::all_to_all(b.num_vms),
                            64 * kKB);
  bulk.start(200 * kMsec);

  cluster.run_until(50 * kMsec);  // warmup: flows reach steady cwnd
  const auto& pool = cluster.events().pool();
  const std::size_t warm_capacity = pool.capacity();
  const std::int64_t warm_allocs = pool.total_allocs();
  const std::uint64_t warm_callbacks = cluster.events().callback_events();

  cluster.run_until(200 * kMsec);  // 3x more traffic than the warmup

  // Arena stopped growing: every post-warmup packet reused a freed slot.
  EXPECT_EQ(pool.capacity(), warm_capacity);
  EXPECT_GT(pool.total_allocs(), 2 * warm_allocs);  // traffic kept flowing
  // std::function events are message-granularity (driver completions), not
  // packet-granularity: orders of magnitude fewer than pool allocations.
  const std::uint64_t callbacks_grown =
      cluster.events().callback_events() - warm_callbacks;
  const auto packets_grown =
      static_cast<std::uint64_t>(pool.total_allocs() - warm_allocs);
  EXPECT_LT(callbacks_grown * 20, packets_grown);
  // Conservation: nothing leaked beyond what is still queued in flight.
  EXPECT_EQ(pool.total_allocs(), pool.total_frees() + pool.live());
  EXPECT_LE(pool.live(), static_cast<std::int64_t>(pool.capacity()));
}

// Same invariant with the observability layer fully enabled: the metrics
// registry (always wired), the per-packet stage records, and a flight
// recorder capturing every event. All of it must ride the warm arena —
// recording is a POD store into a preallocated ring and the stage records
// live in the pool's own slots, so steady state stays allocation-free.
TEST(PacketPool, SteadyStateAllocationFreeWithObservability) {
  sim::ClusterConfig cfg;
  cfg.topo.pods = 1;
  cfg.topo.racks_per_pod = 2;
  cfg.topo.servers_per_rack = 4;
  cfg.topo.vm_slots_per_server = 2;
  cfg.scheme = sim::Scheme::kSilo;
  cfg.tcp.min_rto = 10 * kMsec;
  sim::ClusterSim cluster(cfg);
  auto& rec = cluster.enable_flight_recorder(4096);
  rec.enable_all();

  TenantRequest b;
  b.num_vms = 4;
  b.tenant_class = TenantClass::kBandwidthOnly;
  b.guarantee = {RateBps{1e9}, Bytes{1500}, TimeNs{0}, RateBps{1e9}};
  const auto tb = cluster.add_tenant(b);
  ASSERT_TRUE(tb.has_value());
  workload::BulkDriver bulk(cluster, *tb, workload::all_to_all(b.num_vms),
                            64 * kKB);
  bulk.start(200 * kMsec);

  cluster.run_until(50 * kMsec);
  const auto& pool = cluster.events().pool();
  const std::size_t warm_capacity = pool.capacity();
  const std::int64_t warm_allocs = pool.total_allocs();
  const std::uint64_t warm_recorded = rec.total_recorded();

  cluster.run_until(200 * kMsec);

  // The arena (and with it every stage record) did not grow post-warmup.
  EXPECT_EQ(pool.capacity(), warm_capacity);
  EXPECT_GT(pool.total_allocs(), 2 * warm_allocs);
  // The recorder kept recording (ring overwrites, never grows).
  EXPECT_GT(rec.total_recorded(), warm_recorded);
  EXPECT_EQ(rec.capacity(), 4096u);
  EXPECT_EQ(rec.size(), 4096u);  // long past wraparound
  EXPECT_EQ(pool.total_allocs(), pool.total_frees() + pool.live());
}

TEST(PacketPool, DoubleFreeThrows) {
  sim::PacketPool pool;
  const auto h = pool.alloc();
  pool.free(h);
  EXPECT_THROW(pool.free(h), std::logic_error);
  EXPECT_THROW(pool.free(sim::kNullPacket), std::logic_error);
  const auto h2 = pool.alloc();
  // The freelist recycled the slot, but the generation tag advanced: the
  // stale handle can never alias the new occupant.
  EXPECT_EQ(sim::PacketPool::slot_of(h2), sim::PacketPool::slot_of(h));
  EXPECT_NE(sim::PacketPool::generation_of(h2),
            sim::PacketPool::generation_of(h));
  EXPECT_THROW(pool.free(h), std::logic_error);  // stale handle still dead
  pool.free(h2);
  EXPECT_EQ(pool.total_allocs(), pool.total_frees());
  EXPECT_EQ(pool.live(), 0);
}

// A recycled slot must not keep its last occupant's stage record: a packet
// allocated without an emit (hand-built clones, the ring bench) would
// otherwise be charged against the dead packet's segments.
TEST(PacketPool, RecycledSlotStartsUntracked) {
  sim::PacketPool pool;
  const auto h = pool.alloc();
  EXPECT_FALSE(pool.stages(h).tracked);
  pool.stages(h).on_emit(TimeNs{100}, /*is_retransmit=*/true);
  pool.stages(h).advance(TimeNs{250}, obs::Stage::kQueueing);
  ASSERT_TRUE(pool.stages(h).tracked);
  ASSERT_EQ(pool.stages(h).queue_ns, TimeNs{150});
  pool.free(h);

  const auto h2 = pool.alloc();
  ASSERT_EQ(sim::PacketPool::slot_of(h2), sim::PacketPool::slot_of(h));
  EXPECT_FALSE(pool.stages(h2).tracked);
  EXPECT_FALSE(pool.stages(h2).retransmit);
  EXPECT_EQ(pool.stages(h2).queue_ns, TimeNs{0});
  pool.stages(h2).advance(TimeNs{400}, obs::Stage::kSerialization);
  EXPECT_EQ(pool.stages(h2).serial_ns, TimeNs{0});  // untracked: no charge
  pool.stages(h2).on_emit(TimeNs{500}, false);
  pool.free(h2);

  sim::Packet p;
  p.id = 7;
  const auto h3 = pool.clone(p);
  ASSERT_EQ(sim::PacketPool::slot_of(h3), sim::PacketPool::slot_of(h));
  EXPECT_EQ(pool.get(h3).id, 7u);
  EXPECT_FALSE(pool.stages(h3).tracked);
  pool.free(h3);
}

// The canonical checksum merges per-island traces by time; it must equal
// the fold of a full sort of their union. Three traces with dense
// equal-time groups that span traces (and duplicates).
TEST(DeliveryTrace, MergedChecksumEqualsFullSort) {
  Rng rng(20261017);
  std::vector<sim::DeliveryTrace> traces(3);
  std::vector<sim::DeliveryRecord> all;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    std::int64_t at = 0;
    const int count = 2000 + 700 * static_cast<int>(i);
    for (int n = 0; n < count; ++n) {
      at += rng.uniform_int(0, 2) == 0 ? rng.uniform_int(1, 40) : 0;
      const sim::DeliveryRecord r{
          at,
          static_cast<std::int32_t>(rng.uniform_int(0, 5)),
          static_cast<std::int32_t>(rng.uniform_int(0, 5)),
          rng.uniform_int(0, 3) * 1460,
          rng.uniform_int(0, 3) * 1460,
          static_cast<std::int32_t>(rng.uniform_int(0, 1) * 1460),
          static_cast<std::uint32_t>(rng.uniform_int(0, 15))};
      traces[i].push_back(r);
      all.push_back(r);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const sim::DeliveryRecord& a, const sim::DeliveryRecord& b) {
              return std::tie(a.at_ns, a.src_vm, a.dst_vm, a.seq, a.ack_seq,
                              a.payload, a.flags) <
                     std::tie(b.at_ns, b.src_vm, b.dst_vm, b.seq, b.ack_seq,
                              b.payload, b.flags);
            });
  std::uint64_t want = kFnvOffsetBasis;
  for (const auto& r : all) want = sim::fold_record(want, r);

  const std::vector<const sim::DeliveryTrace*> ptrs = {&traces[0], &traces[1],
                                                       &traces[2]};
  EXPECT_EQ(sim::canonical_trace_checksum(ptrs), want);
  // Island order and islands that recorded nothing are irrelevant to the
  // canonical order.
  const sim::DeliveryTrace none;
  const std::vector<const sim::DeliveryTrace*> rev = {&traces[2], &none,
                                                      &traces[0], &traces[1]};
  EXPECT_EQ(sim::canonical_trace_checksum(rev), want);
}

}  // namespace
}  // namespace silo
