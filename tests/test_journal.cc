// DeltaJournal durability tests: chained-checksum integrity, the
// serialize/deserialize codec, write-ahead ordering, compaction, and the
// headline property — a controller crashed at an arbitrary point and
// rebuilt from its journal is bit-identical to one that never crashed
// (placement decisions, shipped pacer configs, metric counters).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "compaction_check.h"
#include "core/controller.h"
#include "core/journal.h"
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

TenantRequest sample_request(Rng& rng) {
  TenantRequest req;
  req.num_vms = 2 + static_cast<int>(rng.uniform_int(0, 4));
  if (rng.uniform() < 0.5) {
    req.tenant_class = TenantClass::kDelaySensitive;
    req.guarantee = {300 * kMbps, 15 * kKB, 1300 * kUsec, 1 * kGbps};
  } else {
    req.tenant_class = TenantClass::kBandwidthOnly;
    req.guarantee = {500 * kMbps, Bytes{1500}, TimeNs{0}, 1 * kGbps};
  }
  return req;
}

TEST(Journal, WriteAheadAppendEveryOpAndVerify) {
  SiloController ctl(small_dc());
  DeltaJournal journal;
  ctl.attach_journal(&journal);
  Rng rng(3);

  const auto h1 = ctl.admit(sample_request(rng));
  const auto h2 = ctl.admit(sample_request(rng));
  ASSERT_TRUE(h1 && h2);
  ctl.release(*h1);
  ctl.handle_server_failure(h2->vm_to_server.front());
  ctl.restore_server(h2->vm_to_server.front());

  // One record per mutation, in op order, chain intact.
  EXPECT_EQ(journal.total_appends(), 5);
  EXPECT_EQ(journal.records().size(), 5u);
  EXPECT_TRUE(journal.verify());
  EXPECT_EQ(journal.records()[0].op, JournalOp::kAdmit);
  EXPECT_EQ(journal.records()[2].op, JournalOp::kRelease);
  EXPECT_EQ(journal.records()[3].op, JournalOp::kServerFailure);
  EXPECT_EQ(journal.records()[4].op, JournalOp::kServerRestore);
  EXPECT_EQ(journal.metrics().value("controller.journal.appends"), 5);

  // Rejected admissions are journaled too (write-ahead: the record lands
  // before the outcome is known), so replay reproduces rejection counters.
  TenantRequest impossible;
  impossible.num_vms = 10000;
  impossible.guarantee = {1 * kGbps, 15 * kKB, 1 * kMsec, 1 * kGbps};
  EXPECT_FALSE(ctl.admit(impossible).has_value());
  EXPECT_EQ(journal.total_appends(), 6);
  EXPECT_TRUE(journal.verify());
}

TEST(Journal, SerializeRoundtripPreservesChainAndDetectsTampering) {
  SiloController ctl(small_dc());
  DeltaJournal journal;
  ctl.attach_journal(&journal);
  Rng rng(11);
  for (int i = 0; i < 6; ++i) ctl.admit(sample_request(rng));

  const std::string blob = journal.serialize();
  DeltaJournal copy = DeltaJournal::deserialize(blob);
  EXPECT_EQ(copy.chain(), journal.chain());
  EXPECT_EQ(copy.records().size(), journal.records().size());
  EXPECT_EQ(copy.total_appends(), journal.total_appends());
  EXPECT_TRUE(copy.verify());

  // Any flipped byte in a record breaks the chained checksum.
  std::string tampered = blob;
  tampered[tampered.size() / 2] =
      static_cast<char>(tampered[tampered.size() / 2] ^ 0x40);
  EXPECT_THROW(DeltaJournal::deserialize(tampered), std::runtime_error);
  // Truncation is caught by the codec before the chain even runs.
  EXPECT_THROW(DeltaJournal::deserialize(blob.substr(0, blob.size() - 3)),
               std::runtime_error);
}

TEST(Journal, CompactionBoundsRecordsAndKeepsChainContinuity) {
  SiloController ctl(small_dc());
  DeltaJournal journal;
  ctl.attach_journal(&journal, /*snapshot_every=*/4);
  Rng rng(5);
  std::vector<TenantHandle> live;
  for (int i = 0; i < 14; ++i) {
    if (i % 3 == 2 && !live.empty()) {
      ctl.release(live.back());
      live.pop_back();
    } else if (const auto h = ctl.admit(sample_request(rng))) {
      live.push_back(*h);
    }
  }
  EXPECT_TRUE(journal.has_snapshot());
  // Compaction trims the tail: at most snapshot_every - 1 loose records.
  EXPECT_LT(journal.records().size(), 4u);
  EXPECT_EQ(journal.total_appends(), 14);
  EXPECT_GE(journal.metrics().value("controller.journal.snapshots"), 3);
  EXPECT_TRUE(journal.verify());

  // The compacted journal still recovers the exact controller state.
  DeltaJournal reloaded = DeltaJournal::deserialize(journal.serialize());
  SiloController recovered(small_dc());
  recovered.recover_from_journal(reloaded);
  for (int s = 0; s < ctl.topo().num_servers(); ++s)
    EXPECT_EQ(pacer_config_checksum(recovered.server_config(s)),
              pacer_config_checksum(ctl.server_config(s)))
        << "server " << s;
  EXPECT_EQ(recovered.stats().free_slots, ctl.stats().free_slots);
}

TEST(Journal, TamperedCompactedSnapshotIsRejected) {
  SiloController ctl(small_dc());
  DeltaJournal journal;
  ctl.attach_journal(&journal, /*snapshot_every=*/1);
  Rng rng(13);
  std::vector<TenantHandle> live;
  for (int i = 0; i < 5; ++i)
    if (const auto h = ctl.admit(sample_request(rng))) live.push_back(*h);
  ASSERT_GE(live.size(), 2u);
  ctl.release(live.front());  // delta compactions, erasures included
  ASSERT_TRUE(journal.has_snapshot());
  ASSERT_TRUE(journal.records().empty());

  // With no loose records the blob is header, snapshot, record count (0)
  // and chain head; an empty journal's blob locates the header's end.
  const std::string blob = journal.serialize();
  const std::size_t begin = DeltaJournal().serialize().size() - 16;
  const std::size_t end = blob.size() - 16;
  ASSERT_LT(begin, end);
  ASSERT_TRUE(DeltaJournal::deserialize(blob).verify());
  for (std::size_t i = begin; i < end; ++i) {
    std::string tampered = blob;
    tampered[i] = static_cast<char>(tampered[i] ^ 0x01);
    EXPECT_THROW(DeltaJournal::deserialize(tampered), std::runtime_error)
        << "byte " << i << " of the snapshot section";
  }
}

TEST(Journal, EveryRecordByteIsTamperEvident) {
  // One record of every op kind. The record section is the record count,
  // each record's bytes and chain value, and the chain head: flipping any
  // bit pattern of any of its bytes must be rejected.
  topology::TopologyConfig one_rack = small_dc();
  one_rack.pods = 1;
  one_rack.racks_per_pod = 1;
  SiloController ctl(one_rack);
  DeltaJournal journal;
  ctl.attach_journal(&journal);
  TenantRequest pair;
  pair.num_vms = 2;
  pair.tenant_class = TenantClass::kBandwidthOnly;
  pair.guarantee = {500 * kMbps, Bytes{1500}, TimeNs{0}, 1 * kGbps};
  const auto owner = ctl.admit(pair);
  const auto borrower = ctl.admit(pair);
  ASSERT_TRUE(owner && borrower);
  const auto lease =
      ctl.grant_lease(owner->id, borrower->id, 0, 100 * kMbps, 2);
  ASSERT_TRUE(lease) << "the two tenants share server "
                     << owner->vm_to_server.front();
  ctl.advance_lease_epoch();
  ctl.revoke_lease(*lease);
  const int server = borrower->vm_to_server.front();
  ctl.handle_server_failure(server);
  ctl.restore_server(server);
  const auto port = ctl.topo().server_down(server);
  ctl.handle_link_failure(port);
  ctl.restore_link(port);
  ctl.release(*owner);
  std::set<JournalOp> ops;
  for (const auto& rec : journal.records()) ops.insert(rec.op);
  ASSERT_EQ(ops.size(), 9u);

  const std::string blob = journal.serialize();
  ASSERT_TRUE(DeltaJournal::deserialize(blob).verify());
  // With no snapshot, an empty journal's blob is the header, the record
  // count and the chain head.
  const std::size_t begin = DeltaJournal().serialize().size() - 16;
  for (std::size_t i = begin; i < blob.size(); ++i) {
    for (const int mask : {0x01, 0xff}) {
      std::string tampered = blob;
      tampered[i] = static_cast<char>(tampered[i] ^ mask);
      EXPECT_THROW(DeltaJournal::deserialize(tampered), std::runtime_error)
          << "byte " << i << " of the record section, mask " << mask;
    }
  }
}

TEST(Journal, RejectsVersionThreeBlobs) {
  SiloController ctl(small_dc());
  DeltaJournal journal;
  ctl.attach_journal(&journal, /*snapshot_every=*/2);
  Rng rng(17);
  for (int i = 0; i < 3; ++i) ctl.admit(sample_request(rng));
  std::string blob = journal.serialize();
  // Bytes 8..11: the little-endian format version after the magic.
  ASSERT_EQ(blob[8], 4);
  blob[8] = 3;
  try {
    DeltaJournal::deserialize(blob);
    ADD_FAILURE() << "a v3 blob was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown version"), std::string::npos)
        << e.what();
  }
}

TEST(Journal, CompactionFoldsOnlyChangedEntries) {
  SiloController ctl(small_dc());
  Rng rng(19);
  std::vector<TenantHandle> live;
  for (int i = 0; i < 8; ++i)
    if (const auto h = ctl.admit(sample_request(rng))) live.push_back(*h);
  ASSERT_GE(live.size(), 5u);
  const auto tenants = static_cast<std::int64_t>(live.size());

  DeltaJournal journal;
  const auto entries = [&] {
    return journal.metrics().value("controller.journal.compacted_entries");
  };
  // Attached mid-life, the first compaction writes every entry: each
  // tenant has a controller entry and an engine entry.
  ctl.attach_journal(&journal, /*snapshot_every=*/1);
  ctl.advance_lease_epoch();
  EXPECT_EQ(entries(), 2 * tenants);
  CompactionCheck check(journal);

  // From then on a compaction folds only what its op changed.
  auto before = entries();
  ctl.advance_lease_epoch();  // global fields only
  EXPECT_EQ(entries() - before, 0);
  check(ctl);

  TenantRequest two;
  two.num_vms = 2;
  two.tenant_class = TenantClass::kBandwidthOnly;
  two.guarantee = {100 * kMbps, Bytes{1500}, TimeNs{0}, 1 * kGbps};
  before = entries();
  const auto h = ctl.admit(two);
  ASSERT_TRUE(h);
  EXPECT_EQ(entries() - before, 2);  // its controller and engine entries
  check(ctl);

  TenantRequest impossible = two;
  impossible.num_vms = 10000;
  before = entries();
  EXPECT_FALSE(ctl.admit(impossible));
  EXPECT_EQ(entries() - before, 0);  // a rejection touches counters only
  check(ctl);

  before = entries();
  ctl.release(*h);
  EXPECT_EQ(entries() - before, 2);  // both entries erased
  check(ctl);

  // A failure rewrites each affected tenant's controller entry, erases
  // its old engine entry and writes the new one (none when unplaced).
  before = entries();
  const auto report = ctl.handle_server_failure(live.front().vm_to_server[0]);
  ASSERT_FALSE(report.affected.empty());
  const auto affected = static_cast<std::int64_t>(report.affected.size());
  EXPECT_EQ(entries() - before,
            3 * affected - static_cast<std::int64_t>(report.unplaced.size()));
  EXPECT_LT(affected, tenants);
  check(ctl);
  EXPECT_EQ(check.checked(), 5);
}

TEST(Journal, RecoverRequiresFreshController) {
  SiloController ctl(small_dc());
  DeltaJournal journal;
  ctl.attach_journal(&journal);
  Rng rng(9);
  ASSERT_TRUE(ctl.admit(sample_request(rng)));

  SiloController dirty(small_dc());
  ASSERT_TRUE(dirty.admit(sample_request(rng)));
  EXPECT_THROW(dirty.recover_from_journal(journal), std::logic_error);
}

TEST(Journal, RestoreRequiresTheControllersCounterCount) {
  SiloController ctl(small_dc());
  Rng rng(29);
  ASSERT_TRUE(ctl.admit(sample_request(rng)));
  const ControllerSnapshot snap = ctl.snapshot();
  for (const std::size_t n : {std::size_t{0}, std::size_t{10},
                              snap.counters.size() - 1,
                              snap.counters.size() + 1}) {
    ControllerSnapshot bad = snap;
    bad.counters.resize(n);
    SiloController fresh(small_dc());
    EXPECT_THROW(fresh.restore_snapshot(bad), std::invalid_argument)
        << n << " counters";
    // Rejected before anything was restored: still a fresh controller.
    EXPECT_EQ(fresh.stats().admitted_tenants, 0);
  }
  SiloController fresh(small_dc());
  fresh.restore_snapshot(snap);
  EXPECT_EQ(fresh.snapshot(), snap);
}

// ---------------------------------------------------------------------------
// Storm equivalence: twin controllers driven in lockstep through a seeded
// admit/release/fail/restore storm; one crashes at a seeded point and is
// rebuilt from its serialized journal. Every observable — placement
// decisions, per-server shipped configs (via drained deltas AND snapshots),
// tenant statuses, stats, metric counters — must match the twin that never
// crashed.

const char* kControllerCounters[] = {
    "controller.admissions",          "controller.rejections",
    "controller.releases",            "controller.recovery.replaced",
    "controller.recovery.degraded",   "controller.recovery.unplaced",
    "controller.recovery.promotions", "controller.diff.deltas",
    "controller.diff.upserts",        "controller.diff.removes",
};

void run_twin_storm(std::uint64_t seed, std::int64_t crash_at,
                    std::int64_t snapshot_every) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " crash_at " +
               std::to_string(crash_at) + " snapshot_every " +
               std::to_string(snapshot_every));
  const auto cfg = small_dc();
  std::optional<SiloController> a;  // crashes; journaled
  a.emplace(cfg);
  SiloController b(cfg);  // never crashes
  DeltaJournal journal;
  a->attach_journal(&journal, snapshot_every);
  CompactionCheck check_compaction(journal);

  // Hypervisor-side fold of each controller's drained delta stream.
  std::map<int, PacerConfigTable> fleet_a, fleet_b;
  const auto drain = [](SiloController& ctl,
                        std::map<int, PacerConfigTable>& fleet) {
    for (const auto& delta : ctl.drain_config_deltas())
      fleet[delta.server].apply(delta);
  };

  Rng rng(seed);
  std::vector<TenantHandle> live;
  const std::int64_t ops = 60;
  for (std::int64_t op = 0; op < ops; ++op) {
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 4 || live.empty()) {
      const auto req = sample_request(rng);
      const auto ha = a->admit(req);
      const auto hb = b.admit(req);
      ASSERT_EQ(ha.has_value(), hb.has_value());
      if (ha) {
        ASSERT_EQ(ha->id, hb->id);
        ASSERT_EQ(ha->vm_to_server, hb->vm_to_server);
        live.push_back(*ha);
      }
    } else if (roll < 7) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      a->release(live[i]);
      b.release(live[i]);
      live[i] = live.back();
      live.pop_back();
    } else {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const int anchor = live[i].vm_to_server.front();
      if (anchor >= 0) {
        if (roll < 9) {
          a->handle_server_failure(anchor);
          b.handle_server_failure(anchor);
          check_compaction(*a);
          a->restore_server(anchor);
          b.restore_server(anchor);
        } else {
          const auto port = a->topo().server_down(anchor);
          a->handle_link_failure(port);
          b.handle_link_failure(port);
          check_compaction(*a);
          a->restore_link(port);
          b.restore_link(port);
        }
        // Re-placement may have moved every VM of the affected tenants;
        // refresh anchors from the (identical) twin state.
        for (auto& handle : live)
          handle.vm_to_server = b.tenant_placement(handle.id);
      }
    }
    drain(*a, fleet_a);
    drain(b, fleet_b);
    check_compaction(*a);

    if (op == crash_at) {
      // Crash: the controller object dies; only the serialized journal
      // bytes survive. Recovery replays into a fresh controller and
      // re-emits the whole delta backlog, which the fleet folds in (a
      // deliberate full resync; anti-entropy would dedupe it online).
      journal = DeltaJournal::deserialize(journal.serialize());
      a.emplace(cfg);
      a->recover_from_journal(journal, snapshot_every);
      drain(*a, fleet_a);
      EXPECT_GE(journal.metrics().value("controller.journal.replays"), 1);
    }
  }

  // Stats and per-tenant status match.
  const auto sa = a->stats();
  const auto sb = b.stats();
  EXPECT_EQ(sa.free_slots, sb.free_slots);
  EXPECT_EQ(sa.admitted_tenants, sb.admitted_tenants);
  EXPECT_EQ(sa.degraded_tenants, sb.degraded_tenants);
  EXPECT_EQ(sa.unplaced_tenants, sb.unplaced_tenants);
  EXPECT_DOUBLE_EQ(sa.max_port_reservation, sb.max_port_reservation);
  for (const auto& handle : live) {
    EXPECT_EQ(a->tenant_status(handle.id), b.tenant_status(handle.id));
    EXPECT_EQ(a->tenant_placement(handle.id), b.tenant_placement(handle.id));
  }

  // Shipped configs match: snapshots across controllers, and each fleet's
  // delta-built tables reproduce its controller's snapshots.
  for (int s = 0; s < b.topo().num_servers(); ++s) {
    const auto snap = pacer_config_checksum(b.server_config(s));
    EXPECT_EQ(pacer_config_checksum(a->server_config(s)), snap)
        << "server " << s;
    const auto applied = [&](std::map<int, PacerConfigTable>& fleet) {
      const auto it = fleet.find(s);
      return it == fleet.end() ? pacer_config_checksum({})
                               : it->second.checksum();
    };
    EXPECT_EQ(applied(fleet_a), snap) << "server " << s;
    EXPECT_EQ(applied(fleet_b), snap) << "server " << s;
  }
  EXPECT_EQ(a->paced_servers(), b.paced_servers());

  // Metric counters replay exactly (write-ahead covers rejections too).
  for (const char* name : kControllerCounters)
    EXPECT_EQ(a->metrics().value(name), b.metrics().value(name)) << name;
  if (snapshot_every > 0) {
    EXPECT_GE(check_compaction.checked(), 2);
  }
}

TEST(Journal, CrashRecoveryIsBitIdenticalAcrossSeedsAndCrashPoints) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Rng pick(seed * 77);
    run_twin_storm(seed, pick.uniform_int(5, 50), /*snapshot_every=*/0);
    run_twin_storm(seed + 10, pick.uniform_int(5, 50),
                   /*snapshot_every=*/7);
  }
}

TEST(Journal, RecoveredControllerKeepsJournalingSeamlessly) {
  const auto cfg = small_dc();
  std::optional<SiloController> ctl;
  ctl.emplace(cfg);
  DeltaJournal journal;
  ctl->attach_journal(&journal, /*snapshot_every=*/5);
  Rng rng(21);
  for (int i = 0; i < 8; ++i) ctl->admit(sample_request(rng));

  journal = DeltaJournal::deserialize(journal.serialize());
  ctl.emplace(cfg);
  ctl->recover_from_journal(journal, /*snapshot_every=*/5);
  const auto appends_at_recovery = journal.total_appends();

  // The recovered controller journals new ops into the same journal; a
  // second crash+recover covering both generations of ops still works.
  for (int i = 0; i < 6; ++i) ctl->admit(sample_request(rng));
  EXPECT_EQ(journal.total_appends(), appends_at_recovery + 6);
  SiloController twin(cfg);
  twin.recover_from_journal(journal);
  for (int s = 0; s < twin.topo().num_servers(); ++s)
    EXPECT_EQ(pacer_config_checksum(twin.server_config(s)),
              pacer_config_checksum(ctl->server_config(s)));
}

}  // namespace
}  // namespace silo
