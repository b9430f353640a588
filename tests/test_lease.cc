// Work-conserving lease tests (docs/WORKCONSERVING.md): lease-table
// semantics (epoch-bounded expiry, benign-vs-stale remove accounting,
// checksum separation), the VmPacer lease overlay, the HeadroomLender
// policy, controller grant/revoke/expiry with crash recovery (replay must
// not resurrect expired leases), lossy-channel delivery gaps, and the
// ClusterSim end-to-end lend/reclaim loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "compaction_check.h"
#include "core/controller.h"
#include "core/journal.h"
#include "pacer/headroom_lender.h"
#include "pacer/pacer_config.h"
#include "pacer/vm_pacer.h"
#include "sim/cluster.h"
#include "sim/control_channel.h"

namespace silo {
namespace {

topology::TopologyConfig tiny_dc() {
  topology::TopologyConfig cfg;
  cfg.pods = 1;
  cfg.racks_per_pod = 1;
  cfg.servers_per_rack = 2;
  cfg.vm_slots_per_server = 4;
  return cfg;
}

TenantRequest guaranteed_request(int vms) {
  TenantRequest req;
  req.num_vms = vms;
  req.tenant_class = TenantClass::kBandwidthOnly;
  req.guarantee = {500 * kMbps, Bytes{15 * kKB}, TimeNs{0}, 1 * kGbps};
  return req;
}

PacerLeaseRecord make_lease(std::uint64_t id, std::uint64_t expiry) {
  PacerLeaseRecord l;
  l.id = id;
  l.owner = 0;
  l.borrower = 1;
  l.vm_index = 0;
  l.server = 0;
  l.rate = 100 * kMbps;
  l.issued_epoch = 0;
  l.expiry_epoch = expiry;
  return l;
}

/// Borrower VM index + shared server for a lease between two placed
/// tenants, if any pair of their VMs is colocated.
struct ColoPair {
  int borrower_vm = -1;
  int server = -1;
};
std::optional<ColoPair> colocated(const TenantHandle& owner,
                                  const TenantHandle& borrower) {
  for (std::size_t v = 0; v < borrower.vm_to_server.size(); ++v) {
    const int s = borrower.vm_to_server[v];
    if (std::find(owner.vm_to_server.begin(), owner.vm_to_server.end(), s) !=
        owner.vm_to_server.end())
      return ColoPair{static_cast<int>(v), s};
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Lease table semantics

TEST(LeaseTable, EpochBoundedExpiryAndRemoveClassification) {
  PacerConfigTable table;
  PacerConfigDelta grant;
  grant.server = 0;
  grant.lease_upserts.push_back(make_lease(1, /*expiry=*/2));
  const auto r0 = table.apply(grant);
  EXPECT_EQ(r0.lease_expired, 0);
  EXPECT_EQ(table.lease_count(), 1u);

  // The server's own clock kills the lease at its expiry epoch.
  const auto died = table.advance_epoch(2);
  ASSERT_EQ(died.size(), 1u);
  EXPECT_EQ(died[0].id, 1u);
  EXPECT_EQ(table.lease_count(), 0u);

  // A late revoke for the just-expired lease is benign, not stale.
  PacerConfigDelta late;
  late.server = 0;
  late.lease_removes.push_back(1);
  const auto r1 = table.apply(late);
  EXPECT_EQ(r1.lease_expired, 1);
  EXPECT_EQ(r1.stale_removes, 0);

  // A remove for a lease that never existed is a real protocol stale.
  PacerConfigDelta bogus;
  bogus.server = 0;
  bogus.lease_removes.push_back(99);
  const auto r2 = table.apply(bogus);
  EXPECT_EQ(r2.lease_expired, 0);
  EXPECT_EQ(r2.stale_removes, 1);

  // A grant that arrives after its own expiry is dead on arrival.
  PacerConfigDelta doa;
  doa.server = 0;
  doa.lease_upserts.push_back(make_lease(2, /*expiry=*/1));
  const auto r3 = table.apply(doa);
  EXPECT_EQ(r3.lease_expired, 1);
  EXPECT_EQ(table.lease_count(), 0u);
}

TEST(LeaseTable, LeasesAreExcludedFromConfigChecksum) {
  PacerConfigTable table;
  PacerConfigDelta cfg;
  cfg.server = 0;
  PacerConfigRecord rec;
  rec.tenant = 0;
  rec.vm_index = 0;
  rec.server = 0;
  rec.guarantee = {300 * kMbps, 15 * kKB, 1 * kMsec, 1 * kGbps};
  cfg.upserts.push_back(rec);
  table.apply(cfg);

  const auto config_sum = pacer_config_checksum(table.records());
  const auto lease_sum = table.lease_checksum();
  PacerConfigDelta grant;
  grant.server = 0;
  grant.lease_upserts.push_back(make_lease(1, /*expiry=*/5));
  table.apply(grant);

  // Anti-entropy compares config checksums; leases must never perturb
  // them (lease divergence self-heals by epoch expiry instead).
  EXPECT_EQ(pacer_config_checksum(table.records()), config_sum);
  EXPECT_NE(table.lease_checksum(), lease_sum);
}

TEST(LeaseTable, DeltaEpochAdvancesClockMonotonically) {
  PacerConfigTable table;
  PacerConfigDelta grant;
  grant.server = 0;
  grant.lease_epoch = 3;
  grant.lease_upserts.push_back(make_lease(1, /*expiry=*/5));
  table.apply(grant);
  EXPECT_EQ(table.epoch(), 3u);

  PacerConfigDelta stale;
  stale.server = 0;
  stale.lease_epoch = 2;  // out-of-order delivery must not rewind the clock
  table.apply(stale);
  EXPECT_EQ(table.epoch(), 3u);

  PacerConfigDelta heartbeat;
  heartbeat.server = 0;
  heartbeat.lease_epoch = 5;
  table.apply(heartbeat);
  EXPECT_EQ(table.epoch(), 5u);
  EXPECT_EQ(table.lease_count(), 0u);  // expired by the epoch stamp alone
}

// ---------------------------------------------------------------------------
// VmPacer lease overlay

TEST(LeasePacer, OverlayRaisesHoseRateAndRestoresExactly) {
  SiloGuarantee g{1 * kGbps, Bytes{1500}, TimeNs{0}, 2 * kGbps};
  pacer::VmPacer p(g, Bytes{1500});
  EXPECT_EQ(p.hose_rate(), 1 * kGbps);

  // Conformance times ceil to the next ns, hence the 2 ns slack.
  const TimeNs t0 = p.stamp(TimeNs{0}, 1, Bytes{1500});
  const TimeNs t1 = p.stamp(TimeNs{0}, 1, Bytes{1500});
  EXPECT_NEAR((t1 - t0).count(), 12000, 2);  // 1500 B at 1 Gbps

  p.set_lease_rate(t1, 1 * kGbps);
  EXPECT_EQ(p.hose_rate(), 2 * kGbps);
  const TimeNs t2 = p.stamp(t1, 1, Bytes{1500});
  const TimeNs t3 = p.stamp(t1, 1, Bytes{1500});
  EXPECT_NEAR((t3 - t2).count(), 6000, 2);  // 1500 B at the leased 2 Gbps

  p.set_lease_rate(t3, RateBps{0});
  EXPECT_EQ(p.hose_rate(), 1 * kGbps);
  const TimeNs t4 = p.stamp(t3, 1, Bytes{1500});
  const TimeNs t5 = p.stamp(t3, 1, Bytes{1500});
  EXPECT_NEAR((t5 - t4).count(), 12000, 2);  // back to the admitted curve

  EXPECT_EQ(p.take_stamped_bytes(), Bytes{6 * 1500});
  EXPECT_EQ(p.take_stamped_bytes(), Bytes{0});  // reading clears
}

// ---------------------------------------------------------------------------
// HeadroomLender policy

pacer::LenderVmStats vm_stats(std::int64_t tenant, int vm, int server,
                              RateBps reserved, Bytes sent, Bytes backlog,
                              Bytes tenant_backlog) {
  pacer::LenderVmStats s;
  s.tenant = tenant;
  s.vm_index = vm;
  s.server = server;
  s.reserved = reserved;
  s.guaranteed = true;
  s.sent = sent;
  s.backlog = backlog;
  s.tenant_backlog = tenant_backlog;
  return s;
}

TEST(Lender, LendsIdleReservationAndReclaimsOnOwnerReturn) {
  pacer::LenderConfig lc;
  lc.idle_fraction = 0.1;
  lc.lend_fraction = 0.8;
  lc.min_lease_rate = 10 * kMbps;
  pacer::HeadroomLender lender(lc);
  const TimeNs epoch = 1 * kMsec;

  std::vector<pacer::LenderVmStats> stats = {
      vm_stats(0, 0, 0, 1 * kGbps, Bytes{0}, Bytes{0}, Bytes{0}),  // idle
      vm_stats(1, 0, 0, 500 * kMbps, 60 * kKB, 1 * kMB, 1 * kMB),  // busy
  };
  const auto d0 = lender.evaluate(epoch, stats, {});
  ASSERT_EQ(d0.upserts.size(), 1u);
  EXPECT_EQ(d0.upserts[0].id, 0u);  // new grant: issuer assigns the id
  EXPECT_EQ(d0.upserts[0].owner, 0);
  EXPECT_EQ(d0.upserts[0].borrower, 1);
  EXPECT_EQ(d0.upserts[0].rate, (1 * kGbps) * 0.8);
  EXPECT_TRUE(d0.revokes.empty());

  // Same picture with the lease live: renewal re-upserts the same id.
  auto live = d0.upserts[0];
  live.id = 7;
  const auto d1 = lender.evaluate(epoch, stats, {live});
  ASSERT_EQ(d1.upserts.size(), 1u);
  EXPECT_EQ(d1.upserts[0].id, 7u);
  EXPECT_TRUE(d1.revokes.empty());

  // Owner demand returns: the lease is revoked, not renewed — the
  // one-epoch reclamation bound of the safety argument.
  stats[0].backlog = 500 * kKB;
  stats[0].tenant_backlog = 500 * kKB;
  const auto d2 = lender.evaluate(epoch, stats, {live});
  EXPECT_TRUE(d2.upserts.empty());
  ASSERT_EQ(d2.revokes.size(), 1u);
  EXPECT_EQ(d2.revokes[0], 7u);
}

TEST(Lender, SplitsAcrossBorrowersAndEnforcesMinRate) {
  pacer::LenderConfig lc;
  lc.idle_fraction = 0.1;
  lc.lend_fraction = 0.8;
  lc.min_lease_rate = 500 * kMbps;
  pacer::HeadroomLender lender(lc);
  const TimeNs epoch = 1 * kMsec;

  const std::vector<pacer::LenderVmStats> stats = {
      vm_stats(0, 0, 0, 1 * kGbps, Bytes{0}, Bytes{0}, Bytes{0}),
      vm_stats(1, 0, 0, 500 * kMbps, 60 * kKB, 1 * kMB, 1 * kMB),
      vm_stats(2, 0, 0, 500 * kMbps, 60 * kKB, 1 * kMB, 1 * kMB),
  };
  // 800 Mbps split two ways = 400 Mbps each, below the 500 Mbps floor:
  // no leases at all rather than two token ones.
  EXPECT_TRUE(lender.evaluate(epoch, stats, {}).upserts.empty());

  pacer::LenderConfig low = lc;
  low.min_lease_rate = 100 * kMbps;
  const auto d = pacer::HeadroomLender(low).evaluate(epoch, stats, {});
  ASSERT_EQ(d.upserts.size(), 2u);
  EXPECT_EQ(d.upserts[0].rate, (1 * kGbps) * 0.4);
  EXPECT_EQ(d.upserts[1].rate, (1 * kGbps) * 0.4);
  EXPECT_NE(d.upserts[0].borrower, d.upserts[1].borrower);
}

TEST(Lender, NeverLendsFromBusyBestEffortOrSameTenant) {
  pacer::LenderConfig lc;
  lc.min_lease_rate = 10 * kMbps;
  pacer::HeadroomLender lender(lc);
  const TimeNs epoch = 1 * kMsec;

  // Busy owner: over the idle send threshold even with no backlog.
  std::vector<pacer::LenderVmStats> stats = {
      vm_stats(0, 0, 0, 1 * kGbps, 60 * kKB, Bytes{0}, Bytes{0}),
      vm_stats(1, 0, 0, 500 * kMbps, 60 * kKB, 1 * kMB, 1 * kMB),
  };
  EXPECT_TRUE(lender.evaluate(epoch, stats, {}).upserts.empty());

  // Unguaranteed reservation is not lendable.
  stats[0].sent = Bytes{0};
  stats[0].guaranteed = false;
  EXPECT_TRUE(lender.evaluate(epoch, stats, {}).upserts.empty());

  // An idle VM of the borrower's own tenant adds nothing (a tenant cannot
  // exceed its own hose by lending to itself).
  stats[0].guaranteed = true;
  stats[0].tenant = 1;
  EXPECT_TRUE(lender.evaluate(epoch, stats, {}).upserts.empty());
}

// ---------------------------------------------------------------------------
// Controller: grant/revoke/expiry, journaling, crash recovery

TEST(LeaseController, GrantValidatesAndReleaseRevokes) {
  SiloController ctl(tiny_dc());
  const auto owner = ctl.admit(guaranteed_request(2));
  const auto borrower = ctl.admit(guaranteed_request(2));
  ASSERT_TRUE(owner && borrower);
  const auto colo = colocated(*owner, *borrower);
  ASSERT_TRUE(colo.has_value());
  ctl.drain_config_deltas();

  // Invalid grants are rejected and journal-safe: owner == borrower,
  // non-positive rate, rate above the owner's reservation.
  EXPECT_FALSE(ctl.grant_lease(owner->id, owner->id, 0, 100 * kMbps));
  EXPECT_FALSE(
      ctl.grant_lease(owner->id, borrower->id, colo->borrower_vm, RateBps{0}));
  EXPECT_FALSE(
      ctl.grant_lease(owner->id, borrower->id, colo->borrower_vm, 2 * kGbps));

  const auto id = ctl.grant_lease(owner->id, borrower->id, colo->borrower_vm,
                                  200 * kMbps, /*duration_epochs=*/4);
  ASSERT_TRUE(id.has_value());
  ASSERT_EQ(ctl.active_leases().size(), 1u);
  EXPECT_EQ(ctl.active_leases()[0].server, colo->server);
  const auto deltas = ctl.drain_config_deltas();
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].server, colo->server);
  ASSERT_EQ(deltas[0].lease_upserts.size(), 1u);
  EXPECT_EQ(deltas[0].lease_upserts[0].id, *id);

  // Releasing either party revokes its leases in the same op.
  ctl.release(*owner);
  EXPECT_TRUE(ctl.active_leases().empty());
  bool saw_remove = false;
  for (const auto& d : ctl.drain_config_deltas())
    for (const auto rid : d.lease_removes) saw_remove |= rid == *id;
  EXPECT_TRUE(saw_remove);
}

TEST(LeaseController, ReplayDoesNotResurrectExpiredLeases) {
  SiloController ctl(tiny_dc());
  DeltaJournal journal;
  ctl.attach_journal(&journal);
  const auto owner = ctl.admit(guaranteed_request(2));
  const auto borrower = ctl.admit(guaranteed_request(2));
  ASSERT_TRUE(owner && borrower);
  const auto colo = colocated(*owner, *borrower);
  ASSERT_TRUE(colo.has_value());

  // Lease 1 expires at epoch 1; lease 2 lives to epoch 6.
  const auto short_id = ctl.grant_lease(owner->id, borrower->id,
                                        colo->borrower_vm, 100 * kMbps,
                                        /*duration_epochs=*/1);
  const auto long_id = ctl.grant_lease(owner->id, borrower->id,
                                       colo->borrower_vm, 50 * kMbps,
                                       /*duration_epochs=*/6);
  ASSERT_TRUE(short_id && long_id);
  const auto expired = ctl.advance_lease_epoch();
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, *short_id);
  ASSERT_EQ(ctl.active_leases().size(), 1u);

  // Crash + replay: the expired lease must stay dead, the live one must
  // survive with the same id, and the id allocator must not fork.
  ASSERT_TRUE(journal.verify());
  SiloController recovered(tiny_dc());
  recovered.recover_from_journal(journal);
  EXPECT_EQ(recovered.lease_epoch(), ctl.lease_epoch());
  const auto live = recovered.active_leases();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].id, *long_id);
  EXPECT_EQ(live[0].rate, 50 * kMbps);
  const auto next_a = ctl.grant_lease(owner->id, borrower->id,
                                      colo->borrower_vm, 10 * kMbps);
  const auto next_b = recovered.grant_lease(owner->id, borrower->id,
                                            colo->borrower_vm, 10 * kMbps);
  ASSERT_TRUE(next_a && next_b);
  EXPECT_EQ(*next_a, *next_b);
}

TEST(LeaseController, CompactedSnapshotCarriesLeaseState) {
  SiloController ctl(tiny_dc());
  DeltaJournal journal;
  ctl.attach_journal(&journal, /*snapshot_every=*/2);
  CompactionCheck check(journal);
  const auto owner = ctl.admit(guaranteed_request(2));
  check(ctl);
  const auto borrower = ctl.admit(guaranteed_request(2));
  check(ctl);
  ASSERT_TRUE(owner && borrower);
  const auto colo = colocated(*owner, *borrower);
  ASSERT_TRUE(colo.has_value());
  const auto id = ctl.grant_lease(owner->id, borrower->id, colo->borrower_vm,
                                  100 * kMbps, /*duration_epochs=*/8);
  check(ctl);
  ASSERT_TRUE(id.has_value());
  for (int i = 0; i < 3; ++i) {  // several compactions behind us by now
    ctl.advance_lease_epoch();
    check(ctl);
  }
  EXPECT_EQ(check.checked(), 3);

  auto reloaded = DeltaJournal::deserialize(journal.serialize());
  SiloController recovered(tiny_dc());
  recovered.recover_from_journal(reloaded);
  EXPECT_EQ(recovered.lease_epoch(), ctl.lease_epoch());
  ASSERT_EQ(recovered.active_leases().size(), 1u);
  EXPECT_EQ(recovered.active_leases()[0].id, *id);
}

// ---------------------------------------------------------------------------
// Lossy channel: a lost revoke is bounded by epoch expiry, never repaired
// into a guarantee violation.

TEST(LeaseChannel, LostRevokeIsBoundedByEpochExpiry) {
  sim::EventQueue events;
  sim::PacerAgentFleet fleet;
  sim::ChannelConfig ccfg;
  sim::ControlChannel channel(events, fleet, ccfg);
  SiloController ctl(tiny_dc());
  const auto owner = ctl.admit(guaranteed_request(2));
  const auto borrower = ctl.admit(guaranteed_request(2));
  ASSERT_TRUE(owner && borrower);
  const auto colo = colocated(*owner, *borrower);
  ASSERT_TRUE(colo.has_value());
  channel.ship(ctl.drain_config_deltas());
  events.run_all();

  const auto id = ctl.grant_lease(owner->id, borrower->id, colo->borrower_vm,
                                  100 * kMbps, /*duration_epochs=*/2);
  ASSERT_TRUE(id.has_value());
  channel.ship(ctl.drain_config_deltas());
  events.run_all();
  ASSERT_NE(fleet.table(colo->server), nullptr);
  EXPECT_EQ(fleet.table(colo->server)->lease_count(), 1u);

  // Total loss: the revoke (and its retries) never arrives.
  channel.set_drop_rate(1.0);
  EXPECT_TRUE(ctl.revoke_lease(*id));
  channel.ship(ctl.drain_config_deltas());
  events.run_all();
  EXPECT_GT(channel.metrics().value("controller.channel.abandoned"), 0);
  EXPECT_EQ(fleet.table(colo->server)->lease_count(), 1u);  // stale, bounded

  // The loss window ends. The abandoned revoke left a sequence gap, so
  // later deltas buffer until a real config change diverges the config
  // checksum and anti-entropy ships a snapshot repair (which leaves agent
  // leases untouched — they only die by epoch).
  channel.set_drop_rate(0.0);
  ctl.advance_lease_epoch();
  ctl.advance_lease_epoch();  // past the lease's expiry epoch
  ctl.release(*borrower);     // persistent config change on colo->server
  channel.ship(ctl.drain_config_deltas());
  events.run_all();
  channel.anti_entropy_round();
  events.run_all();
  EXPECT_GT(channel.metrics().value("controller.channel.desyncs_repaired"),
            0);

  // Ordinary control traffic stamps the current lease epoch on every
  // config delta, so the next in-order delivery expires the stale lease.
  // Six VMs exceed either server's four slots, so both servers —
  // colo->server included — receive an epoch-stamped delta.
  const auto refill = ctl.admit(guaranteed_request(6));
  ASSERT_TRUE(refill.has_value());
  channel.ship(ctl.drain_config_deltas());
  events.run_all();
  for (int round = 0;
       round < 8 && fleet.table(colo->server)->lease_count() > 0; ++round) {
    channel.anti_entropy_round();
    events.run_all();
  }
  EXPECT_EQ(fleet.table(colo->server)->lease_count(), 0u);
  // The agent's lease clock caught up with the controller's.
  EXPECT_EQ(fleet.table(colo->server)->epoch(), ctl.lease_epoch());
}

// ---------------------------------------------------------------------------
// ClusterSim end to end: lend, then reclaim when the owner returns.

sim::ClusterConfig lending_cluster(bool enabled) {
  sim::ClusterConfig cfg;
  cfg.topo.pods = 1;
  cfg.topo.racks_per_pod = 1;
  cfg.topo.servers_per_rack = 2;
  cfg.topo.vm_slots_per_server = 2;
  cfg.scheme = sim::Scheme::kSilo;
  cfg.lending.enabled = enabled;
  cfg.lending.epoch = 500 * kUsec;
  return cfg;
}

TEST(LeaseCluster, LendsToBacklogAndReclaimsWhenOwnerWakes) {
  sim::ClusterSim sim(lending_cluster(true));
  const int owner = sim.add_tenant_pinned(guaranteed_request(2), {0, 1});
  const int borrower = sim.add_tenant_pinned(guaranteed_request(2), {0, 1});

  // Borrower streams while the owner sleeps: its stranded reservation is
  // lent within a few epochs and shows up as a raised hose rate.
  sim.send_message(borrower, 0, 1, 2 * kMB);
  sim.run_until(5 * kMsec);
  const auto value = [&sim](const char* name) {
    return obs::metric_value(sim.merged_metrics(), name);
  };
  EXPECT_GT(sim.lease_epoch(), 0u);
  EXPECT_GE(value("pacer.lease.granted"), 1);
  EXPECT_GE(value("pacer.lease.applied"), 1);
  EXPECT_FALSE(sim.active_leases().empty());
  bool owner_lends = false;
  for (const auto& l : sim.active_leases())
    owner_lends |= l.owner == owner && l.borrower == borrower;
  EXPECT_TRUE(owner_lends);

  // Owner demand returns: its leases are reclaimed within an epoch or two.
  sim.send_message(owner, 0, 1, 2 * kMB);
  sim.run_until(10 * kMsec);
  EXPECT_GE(value("pacer.lease.revoked") + value("pacer.lease.expired"), 1);
  bool owner_still_lends = false;
  for (const auto& l : sim.active_leases())
    owner_still_lends |= l.owner == owner;
  EXPECT_FALSE(owner_still_lends);
}

TEST(LeaseCluster, LendingOffSchedulesNothingAndCountsNothing) {
  sim::ClusterSim sim(lending_cluster(false));
  const int borrower = sim.add_tenant_pinned(guaranteed_request(2), {0, 1});
  sim.add_tenant_pinned(guaranteed_request(2), {0, 1});
  sim.send_message(borrower, 0, 1, 1 * kMB);
  sim.run_until(10 * kMsec);
  EXPECT_EQ(sim.lease_epoch(), 0u);
  EXPECT_TRUE(sim.active_leases().empty());
  const auto m = sim.merged_metrics();
  EXPECT_EQ(obs::metric_value(m, "pacer.lease.granted"), 0);
  EXPECT_EQ(obs::metric_value(m, "pacer.lease.applied"), 0);
  EXPECT_EQ(obs::metric_value(m, "pacer.lease.active"), 0);
}

}  // namespace
}  // namespace silo
