// Fault injection & recovery tests: port link faults, loss windows, server
// crashes, transport aborts, driver retries, and the headline scenario —
// a ToR uplink dies mid data-shuffle, comes back, and every message still
// completes with zero leaked pool packets and a bit-identical replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <tuple>
#include <vector>

#include "core/controller.h"
#include "sim/cluster.h"
#include "sim/faults.h"
#include "util/fnv.h"
#include "workload/drivers.h"
#include "workload/patterns.h"

namespace silo::sim {
namespace {

// ---------------------------------------------------------------------------
// Port-level fault semantics (direct SwitchPortSim unit tests).

TEST(PortFaults, DownedLinkKillsQueuedInFlightAndArrivals) {
  EventQueue ev;
  PacketPool& pool = ev.pool();
  int delivered = 0;
  SwitchPortSim port(ev, PortConfig{},
                     [&](PacketHandle h) {
                       ++delivered;
                       ev.pool().free(h);
                     });
  auto send = [&] {
    const PacketHandle h = pool.alloc();
    pool.get(h).wire_bytes = Bytes{1500};
    port.enqueue(h);
  };

  send();  // goes straight onto the wire
  send();  // queued
  send();  // queued
  port.set_link_up(false);
  // The queued pair dies immediately; the one on the wire dies at tx-done.
  EXPECT_EQ(port.stats().fault_drops, 2);
  send();  // arrival on a dead link
  EXPECT_EQ(port.stats().fault_drops, 3);
  ev.run_until(1 * kMsec);
  EXPECT_EQ(port.stats().fault_drops, 4);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(port.queued_bytes(), Bytes{0});

  port.set_link_up(true);
  send();
  ev.run_until(2 * kMsec);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(port.stats().fault_drops, 4);  // restore did not re-drop
  EXPECT_EQ(port.stats().drops, 0);        // none of this was congestion
  EXPECT_EQ(pool.live(), 0);
}

TEST(PortFaults, LossWindowConservesEveryPacket) {
  EventQueue ev;
  PacketPool& pool = ev.pool();
  std::int64_t delivered = 0;
  SwitchPortSim port(ev, PortConfig{},
                     [&](PacketHandle h) {
                       ++delivered;
                       ev.pool().free(h);
                     });
  port.set_loss(0.5, /*seed=*/7);
  const int sent = 200;
  // The loss draw hashes the packet's identity, so each needs its own id.
  for (int i = 0; i < sent; ++i) {
    const PacketHandle h = pool.alloc();
    pool.get(h).wire_bytes = Bytes{1500};
    pool.get(h).id = static_cast<std::uint64_t>(i);
    port.enqueue(h);
  }
  ev.run_until(1 * kSec);
  EXPECT_EQ(delivered + port.stats().fault_drops, sent);
  EXPECT_GT(port.stats().fault_drops, sent / 4);  // rate 0.5, n = 200
  EXPECT_LT(port.stats().fault_drops, 3 * sent / 4);
  EXPECT_EQ(port.stats().drops, 0);  // loss is a fault, not congestion
  EXPECT_EQ(pool.live(), 0);

  port.set_loss(0, /*seed=*/7);
  const std::int64_t before = delivered;
  for (int i = 0; i < 20; ++i) {
    const PacketHandle h = pool.alloc();
    pool.get(h).wire_bytes = Bytes{1500};
    pool.get(h).id = static_cast<std::uint64_t>(i);
    port.enqueue(h);
  }
  ev.run_until(2 * kSec);
  EXPECT_EQ(delivered - before, 20);  // window closed: lossless again
  EXPECT_EQ(pool.live(), 0);
}

// ---------------------------------------------------------------------------
// Transport aborts and recovery through the full cluster stack.

ClusterConfig two_server_cluster() {
  ClusterConfig cfg;
  cfg.topo.pods = 1;
  cfg.topo.racks_per_pod = 1;
  cfg.topo.servers_per_rack = 2;
  cfg.topo.vm_slots_per_server = 1;
  cfg.topo.oversubscription = 1.0;
  cfg.scheme = Scheme::kTcp;
  cfg.tcp.min_rto = 2 * kMsec;
  cfg.tcp.max_consecutive_rtos = 3;
  return cfg;
}

TEST(ClusterFaults, LinkDownAbortsMessageThenRecovers) {
  ClusterSim sim(two_server_cluster());
  TenantRequest req;
  req.num_vms = 2;
  req.tenant_class = TenantClass::kBandwidthOnly;
  req.guarantee = {1 * kGbps, Bytes{15 * kKB}, TimeNs{0}, 1 * kGbps};
  const auto t = sim.add_tenant(req);
  ASSERT_TRUE(t);
  ASSERT_NE(sim.vm_server(*t, 0), sim.vm_server(*t, 1));

  // ToR egress toward the receiver is dead: data never arrives, ACKs never
  // come back, and after max_consecutive_rtos the transport must give up.
  const auto dead = sim.topo().server_down(sim.vm_server(*t, 1));
  sim.fabric().port(dead).set_link_up(false);

  ClusterSim::MessageResult first;
  bool first_done = false;
  sim.send_message(*t, 0, 1, 64 * kKB, [&](const ClusterSim::MessageResult& r) {
    first_done = true;
    first = r;
  });
  sim.run_until(200 * kMsec);
  ASSERT_TRUE(first_done);
  EXPECT_TRUE(first.aborted);
  EXPECT_TRUE(first.had_rto);
  EXPECT_GE(sim.tenant_abort_count(*t), 1);
  EXPECT_EQ(sim.tenant_counters(*t).aborted, 1);
  EXPECT_EQ(sim.tenant_counters(*t).completed, 0);
  EXPECT_EQ(sim.total_aborted_messages(), 1);
  EXPECT_GT(sim.total_fault_drops(), 0);

  // Restore the link: the same flow (reset by the abort) carries the next
  // message to completion.
  sim.fabric().port(dead).set_link_up(true);
  ClusterSim::MessageResult second;
  bool second_done = false;
  sim.send_message(*t, 0, 1, 64 * kKB, [&](const ClusterSim::MessageResult& r) {
    second_done = true;
    second = r;
  });
  sim.run_until(400 * kMsec);
  ASSERT_TRUE(second_done);
  EXPECT_FALSE(second.aborted);
  EXPECT_EQ(sim.tenant_counters(*t).completed, 1);
  EXPECT_EQ(sim.total_completed_messages(), 1);
  EXPECT_EQ(sim.events().pool().live(), 0);
}

TEST(ClusterFaults, ServerCrashViaInjectorAbortsThenRecovers) {
  ClusterSim sim(two_server_cluster());
  TenantRequest req;
  req.num_vms = 2;
  req.tenant_class = TenantClass::kBandwidthOnly;
  req.guarantee = {1 * kGbps, Bytes{15 * kKB}, TimeNs{0}, 1 * kGbps};
  const auto t = sim.add_tenant(req);
  ASSERT_TRUE(t);
  const int dst_server = sim.vm_server(*t, 1);

  // Crash the receiver 1 ms into a ~8 ms transfer; restore at 21 ms.
  FaultPlan plan;
  plan.server_crash(1 * kMsec, dst_server, 20 * kMsec);
  FaultInjector chaos(sim, plan);
  chaos.arm();

  ClusterSim::MessageResult first;
  bool first_done = false;
  sim.send_message(*t, 0, 1, 10 * kMB, [&](const ClusterSim::MessageResult& r) {
    first_done = true;
    first = r;
  });
  sim.run_until(100 * kMsec);
  EXPECT_EQ(chaos.executed(), 2);
  ASSERT_TRUE(first_done);
  EXPECT_TRUE(first.aborted);
  EXPECT_GT(sim.host(dst_server).fault_drops(), 0);
  EXPECT_TRUE(sim.host(dst_server).up());  // plan restored it

  ClusterSim::MessageResult second;
  bool second_done = false;
  sim.send_message(*t, 0, 1, 64 * kKB, [&](const ClusterSim::MessageResult& r) {
    second_done = true;
    second = r;
  });
  sim.run_until(300 * kMsec);
  ASSERT_TRUE(second_done);
  EXPECT_FALSE(second.aborted);
  EXPECT_EQ(sim.events().pool().live(), 0);
}

// ---------------------------------------------------------------------------
// Headline scenario: a ToR uplink dies mid data-shuffle and comes back.
// Every chunk must eventually complete (driver retries after transport
// aborts), no pool packet may leak, and the whole run must replay
// bit-identically under the same seed.

struct ShuffleOutcome {
  std::uint64_t checksum = 0;  ///< delivery_trace_checksum()
  std::uint64_t arrival = 0;   ///< island_trace_checksum()
  std::int64_t packets = 0;    ///< delivery_trace_size()
  std::int64_t completed = 0;
  std::int64_t aborted = 0;
  std::int64_t retried = 0;
  std::int64_t abandoned = 0;
  std::int64_t fault_drops = 0;
  std::int64_t pool_live = -1;
};

ShuffleOutcome run_tor_uplink_shuffle() {
  ClusterConfig cfg;
  cfg.topo.pods = 1;
  cfg.topo.racks_per_pod = 2;
  cfg.topo.servers_per_rack = 2;
  cfg.topo.vm_slots_per_server = 1;
  cfg.topo.oversubscription = 1.0;
  cfg.scheme = Scheme::kSilo;
  cfg.tcp.min_rto = 2 * kMsec;
  cfg.tcp.max_consecutive_rtos = 3;
  ClusterSim sim(cfg);
  sim.enable_delivery_trace();

  TenantRequest req;
  req.num_vms = 4;
  req.tenant_class = TenantClass::kBandwidthOnly;
  req.guarantee = {500 * kMbps, Bytes{15 * kKB}, TimeNs{0}, 1 * kGbps};
  const auto t = sim.add_tenant(req);
  EXPECT_TRUE(t.has_value());
  // One VM per server: the shuffle necessarily crosses the rack uplink.
  bool cross_rack = false;
  for (int v = 0; v < req.num_vms; ++v)
    cross_rack |= sim.topo().rack_of_server(sim.vm_server(*t, v)) !=
                  sim.topo().rack_of_server(sim.vm_server(*t, 0));
  EXPECT_TRUE(cross_rack);

  workload::BulkDriver shuffle(sim, *t, workload::all_to_all(req.num_vms),
                               64 * kKB, /*seed=*/7);
  RetryPolicy rp;
  rp.max_attempts = 6;
  shuffle.set_retry(rp);
  shuffle.start(30 * kMsec);

  // Kill rack 0's uplink from 10 ms to 40 ms — mid-shuffle, long enough
  // that min_rto 2 ms * 3 consecutive RTOs aborts every cross-rack flow.
  FaultPlan plan;
  plan.link_flap(10 * kMsec, sim.topo().rack_up(0), 30 * kMsec);
  FaultInjector chaos(sim, plan);
  chaos.arm();

  // Long drain horizon: retry backoff reaches ~60 ms past the restore.
  sim.run_until(1 * kSec);

  ShuffleOutcome out;
  out.checksum = sim.delivery_trace_checksum();
  out.arrival = sim.island_trace_checksum();
  out.packets = sim.delivery_trace_size();
  out.completed = shuffle.completed_chunks();
  out.aborted = shuffle.aborted_messages();
  out.retried = shuffle.retried_messages();
  out.abandoned = shuffle.abandoned_chunks();
  out.fault_drops = sim.total_fault_drops();
  out.pool_live = sim.events().pool().live();
  EXPECT_EQ(sim.total_aborted_messages(), out.aborted);
  return out;
}

TEST(ClusterFaults, TorUplinkFlapEveryMessageEventuallyCompletes) {
  const auto out = run_tor_uplink_shuffle();
  // The outage was real: packets died on the downed uplink and cross-rack
  // transfers aborted...
  EXPECT_GT(out.fault_drops, 0);
  EXPECT_GT(out.aborted, 0);
  EXPECT_GT(out.completed, 0);
  // ...but the drivers retried every aborted chunk to completion: nothing
  // was abandoned, every retry was accounted, and no pool packet leaked.
  EXPECT_EQ(out.abandoned, 0);
  EXPECT_GE(out.retried, out.aborted - out.abandoned);
  EXPECT_EQ(out.pool_live, 0);
}

TEST(ClusterFaults, TorUplinkFlapReplaysBitIdentically) {
  const auto a = run_tor_uplink_shuffle();
  const auto b = run_tor_uplink_shuffle();
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.arrival, b.arrival);
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.retried, b.retried);
  EXPECT_EQ(a.fault_drops, b.fault_drops);
}

// ---------------------------------------------------------------------------
// Deterministic chaos soak: a seeded random fault plan (flaps, loss
// windows, server crashes) against a mixed workload. CI varies the seed
// window via SOAK_SEED_BASE; any failure prints the seed to reproduce.

std::uint64_t soak_seed_base() {
  const char* env = std::getenv("SOAK_SEED_BASE");
  if (env && *env) return std::strtoull(env, nullptr, 10);
  return 20260805ull;  // fixed default: the tier-1 run stays deterministic
}

struct SoakOutcome {
  std::uint64_t checksum = 0;  ///< delivery_trace_checksum()
  std::uint64_t arrival = 0;   ///< island_trace_checksum()
  std::int64_t completed = 0;
  std::int64_t aborted = 0;
  std::int64_t fault_drops = 0;
  std::int64_t pool_live = -1;
  int faults_executed = 0;
};

SoakOutcome run_soak(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.topo.pods = 1;
  cfg.topo.racks_per_pod = 2;
  cfg.topo.servers_per_rack = 2;
  cfg.topo.vm_slots_per_server = 2;
  cfg.topo.oversubscription = 1.0;
  cfg.scheme = Scheme::kSilo;
  cfg.tcp.min_rto = 2 * kMsec;
  cfg.tcp.max_consecutive_rtos = 3;
  ClusterSim sim(cfg);
  sim.enable_delivery_trace();

  TenantRequest bulk_req;
  bulk_req.num_vms = 4;
  bulk_req.tenant_class = TenantClass::kBandwidthOnly;
  bulk_req.guarantee = {500 * kMbps, Bytes{15 * kKB}, TimeNs{0}, 1 * kGbps};
  const auto tb = sim.add_tenant(bulk_req);
  TenantRequest msg_req;
  msg_req.num_vms = 2;
  msg_req.tenant_class = TenantClass::kDelaySensitive;
  msg_req.guarantee = {300 * kMbps, 15 * kKB, 1 * kMsec, 1 * kGbps};
  const auto tm = sim.add_tenant(msg_req);
  EXPECT_TRUE(tb.has_value());
  EXPECT_TRUE(tm.has_value());

  RetryPolicy rp;
  rp.max_attempts = 6;
  workload::BulkDriver bulk(sim, *tb, workload::all_to_all(bulk_req.num_vms),
                            64 * kKB, seed);
  bulk.set_retry(rp);
  workload::PoissonMessageDriver msgs(sim, *tm, 0, 1, /*msgs_per_sec=*/2000,
                                      10 * kKB, seed + 1);
  msgs.set_retry(rp);
  bulk.start(25 * kMsec);
  msgs.start(25 * kMsec);

  const TimeNs horizon = 40 * kMsec;
  FaultPlan plan = FaultPlan::random(sim.topo(), seed, horizon, /*events=*/4);
  FaultInjector chaos(sim, plan);
  chaos.arm();

  sim.run_until(1 * kSec);  // every fault repaired by 32 ms; long drain

  SoakOutcome out;
  out.checksum = sim.delivery_trace_checksum();
  out.arrival = sim.island_trace_checksum();
  out.completed = sim.total_completed_messages();
  out.aborted = sim.total_aborted_messages();
  out.fault_drops = sim.total_fault_drops();
  out.pool_live = sim.events().pool().live();
  out.faults_executed = chaos.executed();
  return out;
}

TEST(FaultSoak, RandomPlansConservePacketsAndReplayExactly) {
  const std::uint64_t base = soak_seed_base();
  for (std::uint64_t seed = base; seed < base + 2; ++seed) {
    const auto a = run_soak(seed);
    // Recovery: all traffic drained, nothing left in the packet arena.
    EXPECT_EQ(a.pool_live, 0) << "seed " << seed;
    EXPECT_GT(a.completed, 0) << "seed " << seed;
    EXPECT_GT(a.faults_executed, 0) << "seed " << seed;
    // Determinism: the identical seed replays the identical trace.
    const auto b = run_soak(seed);
    EXPECT_EQ(a.checksum, b.checksum) << "seed " << seed;
    EXPECT_EQ(a.arrival, b.arrival) << "seed " << seed;
    EXPECT_EQ(a.completed, b.completed) << "seed " << seed;
    EXPECT_EQ(a.aborted, b.aborted) << "seed " << seed;
    EXPECT_EQ(a.fault_drops, b.fault_drops) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Golden fault-scenario checksums. The replay tests above prove run-to-run
// stability *within* one build; these pin the traces and the control-plane
// recovery ordering *across* builds, so a refactor that silently changes
// event ordering, retry scheduling, or the controller's recovery ladder
// (map iteration order, report sorting) trips a hard-coded constant
// instead of sailing through.

TEST(ClusterFaults, TorUplinkFlapMatchesGoldenChecksum) {
  const auto out = run_tor_uplink_shuffle();
  EXPECT_EQ(out.checksum, 8996069246640304421ull);
  EXPECT_EQ(out.arrival, 4878971793252270293ull);
  EXPECT_EQ(out.packets, 6258);
}

// Drive the controller through the full recovery ladder — admissions up to
// near-capacity, a server death, a ToR uplink death, then both restores —
// and checksum every RecoveryReport in order: which tenants were affected,
// how each one fared (replaced / degraded / unplaced), and the exact pacer
// records pushed back out. The golden value locks the deterministic
// ordering contract of RecoveryReport (sorted ids, stable map iteration).
TEST(ControllerFaults, RecoveryLadderMatchesGoldenChecksum) {
  topology::TopologyConfig topo;
  topo.pods = 1;
  topo.racks_per_pod = 2;
  topo.servers_per_rack = 4;
  topo.vm_slots_per_server = 2;
  SiloController ctl(topo);

  std::uint64_t ck = kFnvTruncatedBasis;
  const auto mix = [&ck](auto v) {
    ck = fnv1a_word(ck, static_cast<std::uint64_t>(v));
  };
  const auto mix_records = [&](const std::vector<PacerConfigRecord>& recs) {
    mix(recs.size());
    for (const auto& r : recs) {
      mix(r.tenant);
      mix(r.vm_index);
      mix(r.server);
      for (const auto& [peer_vm, peer_server] : r.peers) {
        mix(peer_vm);
        mix(peer_server);
      }
    }
  };
  // The records a recovery pushed back out: its drained upserts for the
  // re-placed tenants, in (tenant, VM) order.
  const auto refreshed = [&ctl](const RecoveryReport& rep) {
    std::vector<PacerConfigRecord> out;
    for (auto& delta : ctl.drain_config_deltas()) {
      for (auto& rec : delta.upserts) {
        if (std::binary_search(rep.replaced.begin(), rep.replaced.end(),
                               rec.tenant))
          out.push_back(std::move(rec));
      }
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return std::tie(a.tenant, a.vm_index) < std::tie(b.tenant, b.vm_index);
    });
    return out;
  };
  const auto mix_report = [&](const RecoveryReport& rep) {
    for (const auto* ids :
         {&rep.affected, &rep.replaced, &rep.degraded, &rep.unplaced}) {
      mix(ids->size());
      for (const auto id : *ids) mix(id);
    }
    mix_records(refreshed(rep));
  };

  // Three delay-sensitive tenants fill 12 of 16 slots; re-placement room
  // exists but is scarce, so failures exercise every ladder rung.
  std::vector<TenantHandle> handles;
  for (const int vms : {6, 4, 2}) {
    TenantRequest req;
    req.num_vms = vms;
    req.tenant_class = TenantClass::kDelaySensitive;
    req.guarantee = {500 * kMbps, 15 * kKB, 2 * kMsec, 1 * kGbps};
    const auto h = ctl.admit(req);
    ASSERT_TRUE(h.has_value()) << vms << " VMs";
    handles.push_back(*h);
    for (const int s : h->vm_to_server) mix(s);
  }
  (void)ctl.drain_config_deltas();  // the admissions' records

  mix_report(ctl.handle_server_failure(0));
  mix_report(ctl.handle_link_failure(ctl.topo().rack_up(0)));
  mix_report(ctl.restore_link(ctl.topo().rack_up(0)));
  mix_report(ctl.restore_server(0));

  // Final state: per-tenant status and placement, plus what each server's
  // hypervisor would be told to pace.
  for (const auto& h : handles) {
    mix(ctl.tenant_status(h.id));
    for (const int s : ctl.tenant_placement(h.id)) mix(s);
  }
  for (int s = 0; s < ctl.topo().num_servers(); ++s)
    mix_records(ctl.server_config(s));

  EXPECT_EQ(ck, 872242249491521731ull);
}

}  // namespace
}  // namespace silo::sim
