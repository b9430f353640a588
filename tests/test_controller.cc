#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "compaction_check.h"
#include "core/controller.h"
#include "util/rng.h"

namespace silo {
namespace {

topology::TopologyConfig small_dc() {
  topology::TopologyConfig cfg;
  cfg.pods = 2;
  cfg.racks_per_pod = 2;
  cfg.servers_per_rack = 4;
  cfg.vm_slots_per_server = 4;
  return cfg;
}

TenantRequest tenant(int vms, RateBps bw = 500 * kMbps) {
  TenantRequest r;
  r.num_vms = vms;
  r.guarantee = {bw, 15 * kKB, 2 * kMsec, 1 * kGbps};
  r.tenant_class = TenantClass::kDelaySensitive;
  return r;
}

/// Pacer records upserted by the deltas queued since the last drain.
std::size_t drained_upserts(SiloController& ctl) {
  std::size_t n = 0;
  for (const auto& d : ctl.drain_config_deltas()) n += d.upserts.size();
  return n;
}

TEST(Controller, AdmitReleaseLifecycle) {
  SiloController ctl(small_dc());
  const auto before = ctl.stats();
  EXPECT_EQ(before.free_slots, before.total_slots);

  const auto h = ctl.admit(tenant(8));
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->vm_to_server.size(), 8u);
  EXPECT_EQ(ctl.stats().free_slots, before.total_slots - 8);
  EXPECT_EQ(ctl.stats().admitted_tenants, 1);

  ctl.release(*h);
  const auto after = ctl.stats();
  EXPECT_EQ(after.free_slots, after.total_slots);
  EXPECT_EQ(after.admitted_tenants, 0);
  EXPECT_DOUBLE_EQ(after.max_port_reservation, 0.0);
}

TEST(Controller, ServerConfigListsHostedVmsWithPeers) {
  SiloController ctl(small_dc());
  const auto h = ctl.admit(tenant(6));
  ASSERT_TRUE(h);
  int records_total = 0;
  for (int s = 0; s < ctl.topo().num_servers(); ++s) {
    const auto cfg = ctl.server_config(s);
    records_total += static_cast<int>(cfg.size());
    for (const auto& rec : cfg) {
      EXPECT_EQ(rec.server, s);
      EXPECT_EQ(rec.tenant, h->id);
      EXPECT_EQ(rec.peers.size(), 5u);  // everyone else in the tenant
      EXPECT_EQ(h->vm_to_server[static_cast<std::size_t>(rec.vm_index)], s);
      EXPECT_DOUBLE_EQ(rec.guarantee.bandwidth.bps(), 500e6);
      for (const auto& [peer_vm, peer_server] : rec.peers) {
        EXPECT_NE(peer_vm, rec.vm_index);
        EXPECT_EQ(h->vm_to_server[static_cast<std::size_t>(peer_vm)],
                  peer_server);
      }
    }
  }
  EXPECT_EQ(records_total, 6);  // one record per VM, across all servers
}

TEST(Controller, BestEffortVmsAreNotPaced) {
  SiloController ctl(small_dc());
  TenantRequest be = tenant(4);
  be.tenant_class = TenantClass::kBestEffort;
  const auto h = ctl.admit(be);
  ASSERT_TRUE(h);
  for (int s = 0; s < ctl.topo().num_servers(); ++s)
    EXPECT_TRUE(ctl.server_config(s).empty());
}

TEST(Controller, StatsReflectHeadroom) {
  SiloController ctl(small_dc());
  for (int i = 0; i < 6; ++i) ctl.admit(tenant(8, 1 * kGbps));
  const auto s = ctl.stats();
  EXPECT_GT(s.max_port_reservation, 0.0);
  EXPECT_LE(s.max_port_reservation, 1.0 + 1e-9);
  EXPECT_GT(s.max_queue_headroom_used, 0.0);
  EXPECT_LE(s.max_queue_headroom_used, 1.0 + 1e-9);  // Silo's invariant
}

TEST(Controller, RejectsBeyondCapacity) {
  SiloController ctl(small_dc());
  int admitted = 0;
  for (int i = 0; i < 30; ++i)
    if (ctl.admit(tenant(8, 2 * kGbps))) ++admitted;
  EXPECT_LT(admitted, 30);
  // Whatever was admitted keeps every port's queue bound within capacity.
  EXPECT_LE(ctl.stats().max_queue_headroom_used, 1.0 + 1e-9);
}

TEST(Controller, LatencyBoundHelperMatchesCore) {
  SiloGuarantee g{500 * kMbps, 15 * kKB, 1 * kMsec, 1 * kGbps};
  EXPECT_EQ(SiloController::message_latency_bound(g, 10 * kKB),
            max_message_latency(g, 10 * kKB));
}

TEST(Controller, ReadmitAfterReleaseRestoresStats) {
  // admit -> release -> re-admit must be a no-op on the datacenter model:
  // releasing B returns the stats to the A-only snapshot, and re-admitting
  // the identical request reproduces the combined snapshot exactly.
  SiloController ctl(small_dc());
  const auto a = ctl.admit(tenant(8));
  ASSERT_TRUE(a);
  const auto only_a = ctl.stats();

  const auto b = ctl.admit(tenant(6, 800 * kMbps));
  ASSERT_TRUE(b);
  const auto with_b = ctl.stats();
  ASSERT_NE(with_b.free_slots, only_a.free_slots);

  ctl.release(*b);
  const auto released = ctl.stats();
  EXPECT_EQ(released.free_slots, only_a.free_slots);
  EXPECT_EQ(released.admitted_tenants, only_a.admitted_tenants);
  EXPECT_NEAR(released.max_port_reservation, only_a.max_port_reservation,
              1e-12);
  EXPECT_NEAR(released.max_queue_headroom_used, only_a.max_queue_headroom_used,
              1e-12);

  const auto b2 = ctl.admit(tenant(6, 800 * kMbps));
  ASSERT_TRUE(b2);
  EXPECT_EQ(b2->vm_to_server, b->vm_to_server);  // same greedy decision
  const auto readmitted = ctl.stats();
  EXPECT_EQ(readmitted.free_slots, with_b.free_slots);
  EXPECT_EQ(readmitted.admitted_tenants, with_b.admitted_tenants);
  EXPECT_DOUBLE_EQ(readmitted.max_port_reservation,
                   with_b.max_port_reservation);
  EXPECT_DOUBLE_EQ(readmitted.max_queue_headroom_used,
                   with_b.max_queue_headroom_used);
}

TEST(Controller, ServerFailureReplacesWithinGuarantees) {
  SiloController ctl(small_dc());
  const auto h = ctl.admit(tenant(6));
  ASSERT_TRUE(h);
  const int victim = h->vm_to_server.front();
  EXPECT_EQ(drained_upserts(ctl), 6u);

  const auto report = ctl.handle_server_failure(victim);
  ASSERT_EQ(report.affected.size(), 1u);
  EXPECT_EQ(report.affected[0], h->id);
  ASSERT_EQ(report.replaced.size(), 1u);
  EXPECT_TRUE(report.degraded.empty());
  EXPECT_TRUE(report.unplaced.empty());
  // Re-placement re-ran full admission: fresh pacer configs were emitted,
  // the tenant keeps its guarantees, and no VM sits on dead hardware.
  EXPECT_EQ(drained_upserts(ctl), 6u);
  EXPECT_EQ(ctl.tenant_status(h->id), TenantStatus::kGuaranteed);
  for (int s : ctl.tenant_placement(h->id)) EXPECT_NE(s, victim);
  const auto stats = ctl.stats();
  EXPECT_EQ(stats.degraded_tenants, 0);
  EXPECT_EQ(stats.unplaced_tenants, 0);
  // The dead server's slots (used and free alike) left the pool.
  EXPECT_EQ(stats.free_slots, stats.total_slots - 4 - 6);
}

TEST(Controller, LinkFailureDegradesThenRestorePromotes) {
  // Two one-slot servers: the tenant must span both, so its traffic
  // depends on the ToR egress toward server 1. When that link dies the
  // guarantees are infeasible (any spread placement reserves capacity on
  // the dead port; colocation has no slots) and the controller must fall
  // back to explicit best-effort degraded mode, then promote the tenant
  // back once the link returns.
  topology::TopologyConfig cfg;
  cfg.pods = 1;
  cfg.racks_per_pod = 1;
  cfg.servers_per_rack = 2;
  cfg.vm_slots_per_server = 1;
  SiloController ctl(cfg);
  const auto h = ctl.admit(tenant(2));
  ASSERT_TRUE(h);
  EXPECT_EQ(drained_upserts(ctl), 2u);

  const auto dead = ctl.topo().server_down(1);
  const auto report = ctl.handle_link_failure(dead);
  ASSERT_EQ(report.affected.size(), 1u);
  ASSERT_EQ(report.degraded.size(), 1u);
  EXPECT_TRUE(report.replaced.empty());
  EXPECT_TRUE(report.unplaced.empty());
  EXPECT_EQ(drained_upserts(ctl), 0u);
  EXPECT_EQ(ctl.tenant_status(h->id), TenantStatus::kDegraded);
  EXPECT_EQ(ctl.stats().degraded_tenants, 1);
  // Degraded VMs still hold slots but run unpaced at low priority.
  for (int s = 0; s < ctl.topo().num_servers(); ++s)
    EXPECT_TRUE(ctl.server_config(s).empty());

  const auto back = ctl.restore_link(dead);
  ASSERT_EQ(back.replaced.size(), 1u);
  EXPECT_EQ(drained_upserts(ctl), 2u);
  EXPECT_EQ(ctl.tenant_status(h->id), TenantStatus::kGuaranteed);
  EXPECT_EQ(ctl.stats().degraded_tenants, 0);
  int paced = 0;
  for (int s = 0; s < ctl.topo().num_servers(); ++s)
    paced += static_cast<int>(ctl.server_config(s).size());
  EXPECT_EQ(paced, 2);
}

TEST(Controller, ServerFailureUnplacedWhenNoSlotsThenRestored) {
  topology::TopologyConfig cfg;
  cfg.pods = 1;
  cfg.racks_per_pod = 1;
  cfg.servers_per_rack = 2;
  cfg.vm_slots_per_server = 1;
  SiloController ctl(cfg);
  const auto h = ctl.admit(tenant(2));
  ASSERT_TRUE(h);

  // One surviving server with one slot cannot hold two VMs even
  // best-effort: the tenant is evacuated with nowhere to go.
  const auto report = ctl.handle_server_failure(1);
  ASSERT_EQ(report.unplaced.size(), 1u);
  EXPECT_EQ(ctl.tenant_status(h->id), TenantStatus::kUnplaced);
  EXPECT_EQ(ctl.stats().unplaced_tenants, 1);
  for (int s : ctl.tenant_placement(h->id)) EXPECT_EQ(s, -1);
  for (int s = 0; s < ctl.topo().num_servers(); ++s)
    EXPECT_TRUE(ctl.server_config(s).empty());

  const auto back = ctl.restore_server(1);
  ASSERT_EQ(back.replaced.size(), 1u);
  EXPECT_EQ(ctl.tenant_status(h->id), TenantStatus::kGuaranteed);
  EXPECT_EQ(ctl.stats().unplaced_tenants, 0);
  EXPECT_EQ(ctl.stats().free_slots, 0);  // both slots in use again
}

// --- Restore index ---------------------------------------------------------

TEST(ControllerRecovery, RestoreIndexMatchesScanUnderRealDegradation) {
  // A small fabric kept near full while failed servers and links stay dead
  // for several ops, so recoveries really degrade and unplace tenants.
  // After every op the indexed degraded/unplaced counts must equal a scan
  // of the live tenants, and every restore must re-validate exactly the
  // tenants that were not guaranteed before it. A journal compacting every
  // third op checks delta compaction over the same statuses.
  topology::TopologyConfig cfg;
  cfg.pods = 1;
  cfg.racks_per_pod = 2;
  cfg.servers_per_rack = 2;
  cfg.vm_slots_per_server = 3;
  SiloController ctl(cfg);
  DeltaJournal journal;
  ctl.attach_journal(&journal, /*snapshot_every=*/3);
  CompactionCheck check_compaction(journal);
  Rng rng(29);
  std::vector<TenantHandle> live;
  std::vector<int> dead_servers;
  std::vector<topology::PortId> dead_links;

  struct Scan {
    std::vector<placement::TenantId> non_guaranteed;  // ascending
    int degraded = 0;
    int unplaced = 0;
  };
  const auto scan = [&] {
    Scan out;
    for (const auto& h : live) {
      const auto st = ctl.tenant_status(h.id);
      if (st == TenantStatus::kGuaranteed) continue;
      out.non_guaranteed.push_back(h.id);
      (st == TenantStatus::kDegraded ? out.degraded : out.unplaced) += 1;
    }
    std::sort(out.non_guaranteed.begin(), out.non_guaranteed.end());
    return out;
  };
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };

  int max_degraded = 0, max_unplaced = 0, restores = 0;
  for (int op = 0; op < 600; ++op) {
    const Scan before = scan();
    std::optional<RecoveryReport> restored;
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 4 || live.empty()) {
      if (const auto h = ctl.admit(tenant(2 + static_cast<int>(
                             rng.uniform_int(0, 2)))))
        live.push_back(*h);
    } else if (roll < 5) {
      const auto i = pick(live.size());
      ctl.release(live[i]);
      live[i] = live.back();
      live.pop_back();
    } else if (roll < 7 && dead_servers.size() < 2) {
      const int server = static_cast<int>(pick(
          static_cast<std::size_t>(ctl.topo().num_servers())));
      if (std::find(dead_servers.begin(), dead_servers.end(), server) ==
          dead_servers.end()) {
        ctl.handle_server_failure(server);
        dead_servers.push_back(server);
      }
    } else if (roll < 8 && dead_links.size() < 2) {
      const auto port = ctl.topo().server_down(static_cast<int>(
          pick(static_cast<std::size_t>(ctl.topo().num_servers()))));
      if (std::find(dead_links.begin(), dead_links.end(), port) ==
          dead_links.end()) {
        ctl.handle_link_failure(port);
        dead_links.push_back(port);
      }
    } else if (roll < 9 && !dead_servers.empty()) {
      const auto i = pick(dead_servers.size());
      restored = ctl.restore_server(dead_servers[i]);
      dead_servers.erase(dead_servers.begin() + static_cast<long>(i));
    } else if (!dead_links.empty()) {
      const auto i = pick(dead_links.size());
      restored = ctl.restore_link(dead_links[i]);
      dead_links.erase(dead_links.begin() + static_cast<long>(i));
    }
    if (restored) {
      ++restores;
      EXPECT_EQ(restored->affected, before.non_guaranteed) << "op " << op;
    }
    check_compaction(ctl);
    const Scan after = scan();
    const auto st = ctl.stats();
    EXPECT_EQ(st.degraded_tenants, after.degraded) << "op " << op;
    EXPECT_EQ(st.unplaced_tenants, after.unplaced) << "op " << op;
    max_degraded = std::max(max_degraded, after.degraded);
    max_unplaced = std::max(max_unplaced, after.unplaced);
  }
  // The storm must really exercise the index, not just keep it empty.
  EXPECT_GT(max_degraded, 0);
  EXPECT_GT(max_unplaced, 0);
  EXPECT_GT(restores, 50);
  EXPECT_GT(check_compaction.checked(), 100);
}

// --- Incremental pacer-config diff protocol (goldens) ---------------------

/// Hypervisor-side model: every server's PacerConfigTable fed only by
/// drained deltas. apply() folds the controller's queue; verify() pins each
/// table's checksum against a freshly computed full snapshot.
struct PacerFleet {
  std::map<int, PacerConfigTable> tables;

  void apply(SiloController& ctl) {
    for (const auto& delta : ctl.drain_config_deltas()) {
      ASSERT_GE(delta.server, 0);
      tables[delta.server].apply(delta);
    }
  }
  void verify(const SiloController& ctl) {
    for (int s = 0; s < ctl.topo().num_servers(); ++s) {
      const auto snapshot = ctl.server_config(s);
      const auto it = tables.find(s);
      const std::uint64_t applied = it == tables.end()
                                        ? pacer_config_checksum({})
                                        : it->second.checksum();
      ASSERT_EQ(applied, pacer_config_checksum(snapshot)) << "server " << s;
      if (it != tables.end()) {
        ASSERT_EQ(it->second.size(), snapshot.size()) << "server " << s;
      }
    }
  }
};

TEST(ControllerDiff, AdmitEmitsOneDeltaPerAffectedServer) {
  SiloController ctl(small_dc());
  const auto h = ctl.admit(tenant(6));
  ASSERT_TRUE(h);
  const auto deltas = ctl.drain_config_deltas();
  std::map<int, int> upserts_by_server;
  for (const auto& d : deltas) {
    EXPECT_TRUE(d.removes.empty());  // fresh tenant: nothing to remove
    upserts_by_server[d.server] += static_cast<int>(d.upserts.size());
  }
  std::map<int, int> expected;
  for (int s : h->vm_to_server) ++expected[s];
  EXPECT_EQ(upserts_by_server, expected);
  EXPECT_TRUE(ctl.drain_config_deltas().empty());  // drain is destructive
  EXPECT_EQ(ctl.metrics().value("controller.diff.deltas"),
            static_cast<std::int64_t>(deltas.size()));
  EXPECT_EQ(ctl.metrics().value("controller.diff.upserts"), 6);
  EXPECT_EQ(ctl.metrics().value("controller.diff.removes"), 0);
}

TEST(ControllerDiff, BestEffortTenantsEmitNoDeltas) {
  SiloController ctl(small_dc());
  TenantRequest be = tenant(4);
  be.tenant_class = TenantClass::kBestEffort;
  const auto h = ctl.admit(be);
  ASSERT_TRUE(h);
  EXPECT_TRUE(ctl.drain_config_deltas().empty());
  ctl.release(*h);
  EXPECT_TRUE(ctl.drain_config_deltas().empty());
}

TEST(ControllerDiff, ReleaseThenReadmitReproducesSnapshotChecksums) {
  // Release -> re-admit under incremental state must restore stats
  // and leave the delta-applied pacer state checksum-identical to freshly
  // computed full snapshots at every step.
  SiloController ctl(small_dc());
  PacerFleet fleet;

  const auto a = ctl.admit(tenant(8));
  ASSERT_TRUE(a);
  fleet.apply(ctl);
  fleet.verify(ctl);
  const auto only_a = ctl.stats();

  const auto b = ctl.admit(tenant(6, 800 * kMbps));
  ASSERT_TRUE(b);
  fleet.apply(ctl);
  fleet.verify(ctl);

  ctl.release(*b);
  fleet.apply(ctl);
  fleet.verify(ctl);
  const auto released = ctl.stats();
  EXPECT_EQ(released.free_slots, only_a.free_slots);
  EXPECT_NEAR(released.max_port_reservation, only_a.max_port_reservation,
              1e-12);
  EXPECT_NEAR(released.max_queue_headroom_used,
              only_a.max_queue_headroom_used, 1e-12);

  const auto b2 = ctl.admit(tenant(6, 800 * kMbps));
  ASSERT_TRUE(b2);
  EXPECT_EQ(b2->vm_to_server, b->vm_to_server);
  fleet.apply(ctl);
  fleet.verify(ctl);
}

TEST(ControllerDiff, FailureRecoveryDeltasTrackSnapshots) {
  SiloController ctl(small_dc());
  PacerFleet fleet;
  std::vector<TenantHandle> live;
  for (int i = 0; i < 4; ++i) {
    const auto h = ctl.admit(tenant(5, 400 * kMbps));
    ASSERT_TRUE(h);
    live.push_back(*h);
  }
  fleet.apply(ctl);
  fleet.verify(ctl);

  const int victim = live[0].vm_to_server.front();
  ctl.handle_server_failure(victim);
  fleet.apply(ctl);
  fleet.verify(ctl);  // replaced/degraded/unplaced all reflected via deltas

  ctl.restore_server(victim);
  fleet.apply(ctl);
  fleet.verify(ctl);

  const auto dead = ctl.topo().server_down(live[1].vm_to_server.front());
  ctl.handle_link_failure(dead);
  fleet.apply(ctl);
  fleet.verify(ctl);

  ctl.restore_link(dead);
  fleet.apply(ctl);
  fleet.verify(ctl);
}

/// Field-for-field delta equality, records compared exactly.
void expect_same_deltas(const std::vector<PacerConfigDelta>& a,
                        const std::vector<PacerConfigDelta>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].server, b[i].server) << "delta " << i;
    ASSERT_EQ(a[i].removes, b[i].removes) << "delta " << i;
    ASSERT_TRUE(same_records(a[i].upserts, b[i].upserts)) << "delta " << i;
    ASSERT_EQ(a[i].lease_epoch, b[i].lease_epoch) << "delta " << i;
    ASSERT_EQ(a[i].lease_removes, b[i].lease_removes) << "delta " << i;
    ASSERT_EQ(a[i].lease_upserts, b[i].lease_upserts) << "delta " << i;
  }
}

TEST(ControllerDiff, ChurnStormMatchesFullRescanController) {
  // Drive an incremental and a full-rescan controller with the identical
  // op sequence: placements, stats, per-server config checksums and the
  // drained delta streams must stay bit-identical, and the delta stream
  // must keep reproducing the snapshots.
  SiloController inc(small_dc());
  SiloController full(small_dc(), placement::AdmissionMode::kFullRescan);
  PacerFleet fleet;

  Rng rng(11);
  std::vector<std::pair<TenantHandle, TenantHandle>> live;
  const auto check = [&] {
    const auto si = inc.stats();
    const auto sf = full.stats();
    ASSERT_EQ(si.free_slots, sf.free_slots);
    ASSERT_EQ(si.admitted_tenants, sf.admitted_tenants);
    ASSERT_EQ(si.degraded_tenants, sf.degraded_tenants);
    ASSERT_EQ(si.unplaced_tenants, sf.unplaced_tenants);
    ASSERT_DOUBLE_EQ(si.max_port_reservation, sf.max_port_reservation);
    ASSERT_DOUBLE_EQ(si.max_queue_headroom_used, sf.max_queue_headroom_used);
    for (int s = 0; s < inc.topo().num_servers(); ++s)
      ASSERT_EQ(pacer_config_checksum(inc.server_config(s)),
                pacer_config_checksum(full.server_config(s)));
    const auto deltas = inc.drain_config_deltas();
    expect_same_deltas(deltas, full.drain_config_deltas());
    for (const auto& delta : deltas) fleet.tables[delta.server].apply(delta);
    fleet.verify(inc);
  };

  for (int step = 0; step < 120; ++step) {
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 5) {
      const int vms = 2 + static_cast<int>(rng.uniform_int(0, 5));
      const auto req = tenant(vms, 300 * kMbps);
      const auto a = inc.admit(req);
      const auto b = full.admit(req);
      ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
      if (a) {
        ASSERT_EQ(a->vm_to_server, b->vm_to_server);
        live.emplace_back(*a, *b);
      }
    } else if (roll < 8 && !live.empty()) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      inc.release(live[i].first);
      full.release(live[i].second);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (roll == 8) {
      const int s = static_cast<int>(
          rng.uniform_int(0, inc.topo().num_servers() - 1));
      if (!inc.placement().server_failed(s)) {
        inc.handle_server_failure(s);
        full.handle_server_failure(s);
        check();
        inc.restore_server(s);
        full.restore_server(s);
      }
    } else {
      const int s = static_cast<int>(
          rng.uniform_int(0, inc.topo().num_servers() - 1));
      const auto p = inc.topo().server_down(s);
      if (!inc.placement().port_failed(p)) {
        inc.handle_link_failure(p);
        full.handle_link_failure(p);
        check();
        inc.restore_link(p);
        full.restore_link(p);
      }
    }
    check();
  }
}

}  // namespace
}  // namespace silo
