// ControlChannel / PacerAgentFleet tests: sequenced idempotent delivery
// (any permutation-with-duplicates of a delta stream converges to the
// in-order result), loss + retry + anti-entropy reconciliation, epoch
// handling across controller restarts, stale-remove accounting, the
// sorted PacerConfigTable against a map model, server-id range checks, a
// bit-identity pin of a lossy storm, and the rotating-seed control-plane
// chaos soak.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "compaction_check.h"
#include "core/controller.h"
#include "core/journal.h"
#include "sim/cluster.h"
#include "sim/control_channel.h"
#include "sim/faults.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "workload/drivers.h"
#include "workload/patterns.h"

namespace silo::sim {
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

/// Agent state must equal the controller's server_config everywhere the
/// channel knows about, and the channel must consider itself converged.
void expect_fleet_matches(const SiloController& ctl,
                          const PacerAgentFleet& fleet,
                          const ControlChannel& channel) {
  EXPECT_TRUE(channel.converged());
  for (const int s : channel.shadow_servers()) {
    const auto want = pacer_config_checksum(ctl.server_config(s));
    EXPECT_EQ(channel.shadow_checksum(s), want) << "shadow, server " << s;
    EXPECT_EQ(fleet.checksum(s), want) << "agent, server " << s;
    EXPECT_EQ(fleet.buffered(s), 0) << "server " << s;
  }
}

TEST(ControlChannel, LosslessShipReproducesServerConfig) {
  EventQueue events;
  PacerAgentFleet fleet;
  ControlChannel channel(events, fleet, ChannelConfig{});
  SiloController ctl(small_dc());
  Rng rng(4);

  std::vector<TenantHandle> live;
  for (int i = 0; i < 10; ++i)
    if (const auto h = ctl.admit(sample_request(rng))) live.push_back(*h);
  channel.ship(ctl.drain_config_deltas());
  events.run_all();
  ctl.release(live.back());
  live.pop_back();
  ctl.handle_server_failure(live.front().vm_to_server.front());
  ctl.restore_server(live.front().vm_to_server.front());
  channel.ship(ctl.drain_config_deltas());
  events.run_all();

  expect_fleet_matches(ctl, fleet, channel);
  const auto& m = channel.metrics();
  EXPECT_GT(m.value("controller.channel.shipped"), 0);
  EXPECT_EQ(m.value("controller.channel.shipped"),
            m.value("controller.channel.applied"));
  EXPECT_EQ(m.value("controller.channel.dropped"), 0);
  EXPECT_EQ(m.value("controller.channel.retries"), 0);
  EXPECT_EQ(m.value("controller.channel.desyncs_repaired"), 0);
  EXPECT_GT(channel.last_convergence_delay(), TimeNs{0});
}

// ---------------------------------------------------------------------------
// Sequencing: the delta stream is order-sensitive at the table level (a
// remove that precedes its record's upsert is a no-op), so convergence
// under reordering must come from the seq/gap logic, not from luck.

std::vector<PacerConfigDelta> order_sensitive_stream(int server, int n) {
  std::vector<PacerConfigDelta> stream;
  for (int i = 0; i < n; ++i) {
    PacerConfigDelta d;
    d.server = server;
    if (i > 0) d.removes.emplace_back(i - 1, i - 1);  // kill the previous
    PacerConfigRecord rec;
    rec.tenant = i;
    rec.vm_index = i;
    rec.server = server;
    rec.guarantee = {(100 + i) * kMbps, 15 * kKB, 1 * kMsec, 1 * kGbps};
    d.upserts.push_back(rec);
    stream.push_back(d);
  }
  return stream;
}

std::uint64_t checksum_after(const std::vector<PacerConfigDelta>& stream,
                             const std::vector<int>& order, int server) {
  PacerAgentFleet fleet;
  for (const int i : order)
    fleet.deliver_delta(server, /*epoch=*/1, /*seq=*/i + 1, stream[i]);
  return fleet.checksum(server);
}

TEST(ControlChannel, EveryPermutationWithDuplicatesConvergesInOrder) {
  const int server = 3;
  const auto stream = order_sensitive_stream(server, 5);
  std::vector<int> order(stream.size());
  std::iota(order.begin(), order.end(), 0);
  const std::uint64_t want = checksum_after(stream, order, server);

  // Raw-table control: naive out-of-order apply really does diverge, so
  // the equality below is earned by the sequencing layer.
  {
    PacerConfigTable naive;
    for (auto it = stream.rbegin(); it != stream.rend(); ++it)
      naive.apply(*it);
    EXPECT_NE(naive.checksum(), want);
  }

  do {
    // Each permutation delivered once... (120 permutations)
    EXPECT_EQ(checksum_after(stream, order, server), want)
        << ::testing::PrintToString(order);
    // ...and once more with every delta duplicated after its first copy.
    PacerAgentFleet fleet;
    for (const int i : order) {
      fleet.deliver_delta(server, 1, i + 1, stream[i]);
      fleet.deliver_delta(server, 1, i + 1, stream[i]);
    }
    EXPECT_EQ(fleet.checksum(server), want)
        << "dup " << ::testing::PrintToString(order);
    EXPECT_EQ(fleet.buffered(server), 0);
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(ControlChannel, SeededShufflesWithDuplicatesConvergeAtLargerN) {
  const int server = 0;
  const auto stream = order_sensitive_stream(server, 16);
  std::vector<int> order(stream.size());
  std::iota(order.begin(), order.end(), 0);
  const std::uint64_t want = checksum_after(stream, order, server);

  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    // Fisher-Yates with the deterministic Rng, plus seeded duplicates.
    for (int i = static_cast<int>(order.size()) - 1; i > 0; --i)
      std::swap(order[static_cast<std::size_t>(i)],
                order[static_cast<std::size_t>(rng.uniform_int(0, i))]);
    PacerAgentFleet fleet;
    PacerAgentFleet::DeliveryResult last;
    for (const int i : order) {
      last = fleet.deliver_delta(server, 1, i + 1, stream[i]);
      if (rng.uniform() < 0.3)
        fleet.deliver_delta(server, 1, i + 1, stream[i]);
    }
    EXPECT_EQ(fleet.checksum(server), want) << "trial " << trial;
    EXPECT_EQ(last.acked_through,
              static_cast<std::int64_t>(stream.size()));
  }
}

TEST(ControlChannel, AgentCountsGapsDuplicatesAndStaleEpochs) {
  PacerAgentFleet fleet;
  const auto stream = order_sensitive_stream(7, 3);

  auto r = fleet.deliver_delta(7, 1, 2, stream[1]);  // ahead of seq: gap
  EXPECT_EQ(r.gaps, 1);
  EXPECT_EQ(r.applied, 0);
  EXPECT_EQ(r.acked_through, 0);
  EXPECT_EQ(fleet.buffered(7), 1);

  r = fleet.deliver_delta(7, 1, 1, stream[0]);  // fills the gap, drains
  EXPECT_EQ(r.applied, 2);
  EXPECT_EQ(r.acked_through, 2);
  EXPECT_EQ(fleet.buffered(7), 0);

  r = fleet.deliver_delta(7, 1, 1, stream[0]);  // replayed duplicate
  EXPECT_EQ(r.duplicates, 1);
  EXPECT_EQ(r.applied, 0);

  // A new epoch restarts the sequence space; the old epoch goes silent.
  r = fleet.deliver_delta(7, 2, 1, stream[2]);
  EXPECT_EQ(r.applied, 1);
  EXPECT_EQ(r.epoch, 2u);
  r = fleet.deliver_delta(7, 1, 3, stream[2]);
  EXPECT_EQ(r.stale_epoch, 1);
  EXPECT_EQ(r.applied, 0);
}

TEST(ControlChannel, CachedTableChecksumMatchesRecordFold) {
  // PacerConfigTable caches checksum() until its records next change. It
  // must always equal the fold over records(): through seeded applies
  // (read between some, not others), lease-only deltas that leave the
  // records alone, and snapshot-repair resets.
  const int server = 2;
  Rng rng(41);
  PacerAgentFleet fleet;
  std::int64_t seq = 0;
  const auto record = [&](std::int64_t tenant, int vm) {
    PacerConfigRecord rec;
    rec.tenant = tenant;
    rec.vm_index = vm;
    rec.server = server;
    rec.guarantee = {(100 + 100 * rng.uniform_int(0, 4)) * kMbps,
                     Bytes{1500 * rng.uniform_int(1, 10)}, 1 * kMsec,
                     1 * kGbps};
    for (int p = 0, n = static_cast<int>(rng.uniform_int(0, 3)); p < n; ++p)
      rec.peers.emplace_back(p, static_cast<int>(rng.uniform_int(0, 15)));
    return rec;
  };
  const auto key = [&] {
    return std::pair<std::int64_t, int>{
        rng.uniform_int(0, 5), static_cast<int>(rng.uniform_int(0, 3))};
  };
  int reads = 0;
  for (int step = 0; step < 400; ++step) {
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 7) {
      PacerConfigDelta delta;
      delta.server = server;
      for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 2)); i < n; ++i)
        delta.removes.push_back(key());
      for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 3)); i < n; ++i) {
        const auto [tenant, vm] = key();
        delta.upserts.push_back(record(tenant, vm));
      }
      fleet.deliver_delta(server, /*epoch=*/1, ++seq, delta);
    } else if (roll < 8) {
      PacerConfigDelta lease_only;
      lease_only.server = server;
      lease_only.lease_epoch = static_cast<std::uint64_t>(step);
      fleet.deliver_delta(server, 1, ++seq, lease_only);
    } else {
      std::vector<PacerConfigRecord> snapshot;
      for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 6)); i < n; ++i) {
        const auto [tenant, vm] = key();
        snapshot.push_back(record(tenant, vm));
      }
      fleet.deliver_snapshot(server, 1, seq, snapshot);
    }
    if (rng.uniform() < 0.6) {
      const PacerConfigTable* table = fleet.table(server);
      ASSERT_NE(table, nullptr);
      ++reads;
      EXPECT_EQ(table->checksum(), pacer_config_checksum(table->records()))
          << "step " << step;
      EXPECT_EQ(fleet.checksum(server), table->checksum()) << "step " << step;
    }
  }
  EXPECT_GT(reads, 100);
}

TEST(ControlChannel, StaleRemovesAreCountedNotSwallowed) {
  // Table level: apply() reports how many removes missed.
  PacerConfigTable table;
  PacerConfigDelta bogus;
  bogus.server = 0;
  bogus.removes.emplace_back(42, 0);  // never upserted
  EXPECT_EQ(table.apply(bogus).stale_removes, 1);
  EXPECT_EQ(table.apply(PacerConfigDelta{}).stale_removes, 0);

  // Channel level: the miss surfaces on the shadow-apply path, where the
  // stream is reliable and in order — a genuine controller-side bug smell.
  EventQueue events;
  PacerAgentFleet fleet;
  ControlChannel channel(events, fleet, ChannelConfig{});
  channel.ship({bogus});
  events.run_all();
  EXPECT_EQ(channel.metrics().value("controller.channel.stale_removes"), 1);
}

TEST(PacerConfigTable, SortedStorageMatchesMapModel) {
  // Reference model: a std::map keyed by (tenant, vm_index), applied with
  // the protocol's rules (removes before upserts, the last upsert of a key
  // wins, a remove of an absent key is stale).
  using Key = std::pair<std::int64_t, int>;
  using Model = std::map<Key, PacerConfigRecord>;
  const auto model_records = [](const Model& model) {
    std::vector<PacerConfigRecord> out;
    for (const auto& [key, rec] : model) out.push_back(rec);
    return out;
  };
  Rng rng(73);
  const auto key = [&] {
    return Key{rng.uniform_int(0, 7), static_cast<int>(rng.uniform_int(0, 3))};
  };
  const auto record = [&](Key k) {
    PacerConfigRecord rec;
    rec.tenant = k.first;
    rec.vm_index = k.second;
    rec.server = 4;
    rec.guarantee = {(100 + 50 * rng.uniform_int(0, 6)) * kMbps,
                     Bytes{1500 * rng.uniform_int(1, 10)},
                     TimeNs{1000 * rng.uniform_int(0, 3)}, 1 * kGbps};
    for (int p = 0, n = static_cast<int>(rng.uniform_int(0, 4)); p < n; ++p)
      rec.peers.emplace_back(p, static_cast<int>(rng.uniform_int(0, 31)));
    return rec;
  };

  Model model;
  PacerConfigTable table;
  int stale = 0, reupserts = 0, remove_then_upsert = 0;
  for (int step = 0; step < 2000; ++step) {
    PacerConfigDelta delta;
    delta.server = 4;
    for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 3)); i < n; ++i)
      delta.removes.push_back(key());
    for (int i = 0, n = static_cast<int>(rng.uniform_int(0, 4)); i < n; ++i)
      delta.upserts.push_back(record(key()));
    if (rng.uniform() < 0.2) {  // one key removed and upserted in one delta
      const Key k = key();
      delta.removes.push_back(k);
      delta.upserts.push_back(record(k));
    }

    int want_stale = 0;
    for (const Key& k : delta.removes) {
      if (model.erase(k) == 0) ++want_stale;
      remove_then_upsert += std::any_of(
          delta.upserts.begin(), delta.upserts.end(), [&](const auto& rec) {
            return Key{rec.tenant, rec.vm_index} == k;
          });
    }
    for (const auto& rec : delta.upserts) {
      reupserts += model.count({rec.tenant, rec.vm_index}) > 0;
      model.insert_or_assign({rec.tenant, rec.vm_index}, rec);
    }
    stale += want_stale;

    const PacerApplyResult got = table.apply(delta);
    const auto want = model_records(model);
    ASSERT_EQ(got.stale_removes, want_stale) << "step " << step;
    ASSERT_EQ(table.size(), want.size()) << "step " << step;
    ASSERT_TRUE(same_records(table.records(), want)) << "step " << step;
    ASSERT_EQ(table.checksum(), pacer_config_checksum(want)) << "step " << step;

    // Building a table from a record list is upserting it into an empty
    // one: unsorted input with repeated keys, the last one winning.
    if (step % 50 == 0) {
      std::vector<PacerConfigRecord> list;
      Model built;
      const int n = static_cast<int>(rng.uniform_int(0, 12));
      for (int i = 0; i < n; ++i) {
        list.push_back(record(key()));
        built.insert_or_assign({list.back().tenant, list.back().vm_index},
                               list.back());
      }
      const PacerConfigTable from_list(list);
      EXPECT_TRUE(same_records(from_list.records(), model_records(built)))
          << "step " << step;
      EXPECT_EQ(from_list.checksum(),
                pacer_config_checksum(model_records(built)));
    }
  }
  // The seeded stream really exercised every case.
  EXPECT_GT(stale, 100);
  EXPECT_GT(reupserts, 100);
  EXPECT_GT(remove_then_upsert, 50);
}

TEST(ControlChannel, OutOfRangeServerIdsThrowBeforeAnyStateChanges) {
  EventQueue events;
  PacerAgentFleet fleet;
  ControlChannel channel(events, fleet, ChannelConfig{});
  PacerConfigDelta good;
  good.server = 3;
  PacerConfigRecord rec;
  rec.tenant = 1;
  rec.server = 3;
  good.upserts.push_back(rec);
  PacerConfigDelta negative = good;
  negative.server = -1;
  PacerConfigDelta too_big = good;
  too_big.server = kMaxChannelServers;

  // The valid delta ahead of the bad one is not shipped either.
  EXPECT_THROW(channel.ship({good, negative}), std::out_of_range);
  EXPECT_THROW(channel.ship({too_big}), std::out_of_range);
  EXPECT_TRUE(channel.shadow_servers().empty());
  EXPECT_EQ(channel.metrics().value("controller.channel.shipped"), 0);
  EXPECT_TRUE(events.empty());
  EXPECT_TRUE(channel.converged());

  EXPECT_THROW(fleet.deliver_delta(-1, 1, 1, good), std::out_of_range);
  EXPECT_THROW(fleet.deliver_delta(kMaxChannelServers, 1, 1, good),
               std::out_of_range);
  EXPECT_THROW(fleet.deliver_snapshot(-1, 1, 0, good.upserts),
               std::out_of_range);
  EXPECT_TRUE(fleet.servers().empty());
  EXPECT_EQ(fleet.table(-1), nullptr);
  EXPECT_EQ(fleet.checksum(-1), pacer_config_checksum({}));

  channel.ship({good});
  events.run_all();
  EXPECT_TRUE(channel.converged());
  EXPECT_EQ(channel.shadow_servers(), std::vector<int>{3});
  EXPECT_EQ(fleet.servers(), std::vector<int>{3});
  EXPECT_EQ(fleet.checksum(3), pacer_config_checksum(good.upserts));
}

TEST(ControlChannel, SchedulesTypedEventsNotCallbacks) {
  // Deliveries, acks, ack timeouts, retries, repairs and the periodic
  // sweep all ride typed events; none allocates a std::function slot.
  EventQueue events;
  PacerAgentFleet fleet;
  ChannelConfig ccfg;
  ccfg.drop_rate = 0.4;
  ccfg.retry.max_attempts = 2;
  ccfg.anti_entropy_period = 1 * kMsec;
  ccfg.seed = 9;
  ControlChannel channel(events, fleet, ccfg);
  SiloController ctl(small_dc());
  Rng rng(9);
  for (int i = 0; i < 12; ++i) ctl.admit(sample_request(rng));
  channel.ship(ctl.drain_config_deltas());
  events.run_until(20 * kMsec);
  channel.set_drop_rate(0);
  events.run_until(40 * kMsec);

  expect_fleet_matches(ctl, fleet, channel);
  const auto& m = channel.metrics();
  EXPECT_GT(m.value("controller.channel.retries"), 0);
  EXPECT_GT(m.value("controller.channel.desyncs_repaired"), 0);
  EXPECT_GT(events.processed(), 100u);
  EXPECT_EQ(events.callback_events(), 0u);
}

TEST(ControlChannel, LossyChannelRetriesThenAntiEntropyRepairs) {
  EventQueue events;
  PacerAgentFleet fleet;
  ChannelConfig ccfg;
  ccfg.drop_rate = 0.5;
  ccfg.retry.max_attempts = 3;  // force some abandons: anti-entropy's job
  ccfg.seed = 17;
  ControlChannel channel(events, fleet, ccfg);
  SiloController ctl(small_dc());
  Rng rng(17);
  for (int i = 0; i < 12; ++i) ctl.admit(sample_request(rng));
  channel.ship(ctl.drain_config_deltas());
  events.run_all();

  const auto& m = channel.metrics();
  EXPECT_GT(m.value("controller.channel.dropped"), 0);
  EXPECT_GT(m.value("controller.channel.retries"), 0);

  // Loss window ends; bounded anti-entropy rounds must finish the job.
  channel.set_drop_rate(0);
  int rounds = 0;
  while (!channel.converged() && rounds < 8) {
    ++rounds;
    channel.anti_entropy_round();
    events.run_all();
  }
  EXPECT_LE(rounds, 8);
  expect_fleet_matches(ctl, fleet, channel);
  if (m.value("controller.channel.abandoned") > 0) {
    EXPECT_GT(m.value("controller.channel.desyncs_repaired"), 0);
  }
}

TEST(ControlChannel, RestartBumpsEpochAndResyncsRecoveredController) {
  EventQueue events;
  PacerAgentFleet fleet;
  ChannelConfig ccfg;
  ccfg.drop_rate = 0.3;  // the pre-crash stream is itself lossy
  ccfg.seed = 5;
  ControlChannel channel(events, fleet, ccfg);

  const auto cfg = small_dc();
  std::optional<SiloController> ctl;
  ctl.emplace(cfg);
  DeltaJournal journal;
  ctl->attach_journal(&journal, /*snapshot_every=*/6);
  Rng rng(23);
  std::vector<TenantHandle> live;
  for (int i = 0; i < 8; ++i)
    if (const auto h = ctl->admit(sample_request(rng))) live.push_back(*h);
  channel.ship(ctl->drain_config_deltas());
  events.run_all();

  // Crash mid-flight: journal recovery + channel epoch bump. The replay
  // backlog is dropped — the restart rebuilds the shadow from the
  // recovered controller, and anti-entropy reconciles the agents.
  journal = DeltaJournal::deserialize(journal.serialize());
  ctl.emplace(cfg);
  ctl->recover_from_journal(journal, /*snapshot_every=*/6);
  (void)ctl->drain_config_deltas();
  channel.set_drop_rate(0);
  channel.restart(*ctl);
  EXPECT_EQ(channel.epoch(), 2u);

  // Post-recovery ops flow through the new epoch like nothing happened.
  ctl->release(live.back());
  live.pop_back();
  if (const auto h = ctl->admit(sample_request(rng))) live.push_back(*h);
  channel.ship(ctl->drain_config_deltas());
  events.run_all();

  int rounds = 0;
  while (!channel.converged() && rounds < 8) {
    ++rounds;
    channel.anti_entropy_round();
    events.run_all();
  }
  expect_fleet_matches(*ctl, fleet, channel);
  EXPECT_EQ(channel.metrics().value("controller.channel.stale_removes"), 0);
}

TEST(ControlChannel, FaultPlanDrivesChannelLossWindows) {
  ClusterConfig cfg;
  cfg.topo.pods = 1;
  cfg.topo.racks_per_pod = 1;
  cfg.topo.servers_per_rack = 2;
  cfg.topo.vm_slots_per_server = 1;
  ClusterSim sim(cfg);
  PacerAgentFleet fleet;
  ControlChannel channel(sim.events(), fleet, ChannelConfig{});

  FaultPlan plan;
  plan.channel_loss_window(1 * kMsec, 2 * kMsec, 0.4);
  FaultInjector chaos(sim, plan);
  chaos.attach_channel(&channel);
  chaos.arm();

  sim.run_until(1500 * kUsec);
  EXPECT_DOUBLE_EQ(channel.drop_rate(), 0.4);
  sim.run_until(3 * kMsec);
  EXPECT_DOUBLE_EQ(channel.drop_rate(), 0.0);
  EXPECT_EQ(chaos.executed(), 2);
}

// ---------------------------------------------------------------------------
// Golden pin of the whole channel protocol under a seeded lossy storm.
// Every event time, tie-break and Rng draw of the channel feeds one of the
// pinned values, so any change to how the channel stores or schedules its
// messages must reproduce them bit for bit.

PacerConfigRecord storm_record(std::int64_t tenant, int vm, int server) {
  PacerConfigRecord rec;
  rec.tenant = tenant;
  rec.vm_index = vm;
  rec.server = server;
  rec.guarantee = {(200 + 10 * vm) * kMbps, Bytes{3000 + vm}, 2 * kMsec,
                   1 * kGbps};
  rec.peers = {{vm + 1, server}, {vm + 2, 5}};
  return rec;
}

TEST(ControlChannel, SeededLossyStormIsBitIdentical) {
  EventQueue events;
  PacerAgentFleet fleet;
  std::uint64_t hook_fold = 1469598103934665603ull;
  const auto fold = [](std::uint64_t& h, std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  fleet.set_apply_hook([&](int server, const PacerConfigDelta& d) {
    fold(hook_fold, static_cast<std::uint64_t>(server));
    fold(hook_fold, d.removes.size());
    fold(hook_fold, d.upserts.size());
  });
  ChannelConfig ccfg;
  ccfg.drop_rate = 0.3;
  ccfg.delivery_jitter = 40 * kUsec;
  ccfg.anti_entropy_period = 1 * kMsec;
  ccfg.retry.max_attempts = 3;  // some sends are abandoned to anti-entropy
  ccfg.seed = 2028;
  ControlChannel channel(events, fleet, ccfg);

  // A 32,000-server controller, so sparse server ids up to 31,999 exist.
  topology::TopologyConfig topo;
  topo.pods = 2;
  topo.racks_per_pod = 16;
  topo.servers_per_rack = 1000;
  topo.vm_slots_per_server = 4;
  std::optional<SiloController> ctl;
  ctl.emplace(topo);
  DeltaJournal journal;
  ctl->attach_journal(&journal, /*snapshot_every=*/8);

  // Hand-built deltas to sparse servers ride along until the restart: a
  // chain of replacements per server, a remove of a never-present key, and
  // a lease granted dead on arrival.
  const int sparse[] = {0, 7, 31'999};
  int hand = 0;
  const auto ship_hand_built = [&] {
    PacerConfigDelta d;
    d.server = sparse[hand % 3];
    if (hand >= 3) d.removes.emplace_back(1'000'000 + hand - 3, (hand - 3) % 2);
    if (hand == 5) d.removes.emplace_back(2'000'000, 0);  // stale remove
    d.upserts.push_back(storm_record(1'000'000 + hand, hand % 2, d.server));
    if (hand == 4) {
      d.lease_epoch = 3;
      PacerLeaseRecord lease;
      lease.id = 77;
      lease.server = d.server;
      lease.expiry_epoch = 2;  // already dead at epoch 3
      d.lease_upserts.push_back(lease);
    }
    ++hand;
    channel.ship({d});
  };

  Rng storm(31);
  std::vector<TenantHandle> live;
  bool restarted = false;
  const auto storm_op = [&](int i) {
    const auto roll = storm.uniform_int(0, 9);
    if (roll < 6 || live.empty()) {
      if (const auto h = ctl->admit(sample_request(storm))) live.push_back(*h);
    } else if (roll < 9) {
      const auto k = static_cast<std::size_t>(
          storm.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      ctl->release(live[k]);
      live[k] = live.back();
      live.pop_back();
    } else {
      const int anchor = live.front().vm_to_server.front();
      if (anchor >= 0) {
        ctl->handle_server_failure(anchor);
        ctl->restore_server(anchor);
        for (auto& handle : live)
          handle.vm_to_server = ctl->tenant_placement(handle.id);
      }
    }
    channel.ship(ctl->drain_config_deltas());
    if (!restarted && i % 3 == 0) ship_hand_built();
  };
  for (int i = 0; i < 60; ++i)
    events.at(TimeNs{200'000} * (i + 1), [&, i] { storm_op(i); });
  // The restart lands 1 ns after an op whose epoch-1 deltas are still in
  // flight, and repairs at once: some agents see epoch 2 first.
  events.at(5'600'001 * TimeNs{1}, [&] {
    journal = DeltaJournal::deserialize(journal.serialize());
    ctl.emplace(topo);
    ctl->recover_from_journal(journal, /*snapshot_every=*/8);
    (void)ctl->drain_config_deltas();
    channel.restart(*ctl);
    channel.anti_entropy_round();
    restarted = true;
  });
  events.at(30 * kMsec, [&] { channel.set_drop_rate(0); });
  events.run_until(80 * kMsec);

  ASSERT_TRUE(channel.converged());
  EXPECT_EQ(channel.epoch(), 2u);
  for (const int s : channel.shadow_servers()) {
    const auto want = pacer_config_checksum(ctl->server_config(s));
    EXPECT_EQ(channel.shadow_checksum(s), want) << "server " << s;
    EXPECT_EQ(fleet.checksum(s), want) << "server " << s;
  }
  const std::vector<int> agents = fleet.servers();
  for (const int s : sparse)
    EXPECT_TRUE(std::binary_search(agents.begin(), agents.end(), s)) << s;
  std::uint64_t agent_fold = 1469598103934665603ull;
  for (const int s : agents) {
    fold(agent_fold, static_cast<std::uint64_t>(s));
    fold(agent_fold, fleet.checksum(s));
  }

  const std::map<std::string, std::int64_t> want_metrics = {
      {"controller.channel.shipped", 125},
      {"controller.channel.delivered", 138},
      {"controller.channel.applied", 103},
      {"controller.channel.dropped", 91},
      {"controller.channel.retries", 89},
      {"controller.channel.abandoned", 7},
      {"controller.channel.duplicates", 15},
      {"controller.channel.gaps", 18},
      {"controller.channel.stale_epoch", 2},
      {"controller.channel.stale_removes", 1},
      {"controller.channel.lease_expired", 1},
      {"controller.channel.desyncs_repaired", 13},
      {"controller.channel.anti_entropy_rounds", 80},
      {"controller.channel.convergence_ns", 9545495},
  };
  std::map<std::string, std::int64_t> got_metrics;
  for (const auto& sample : channel.metrics().snapshot())
    got_metrics[sample.name] = sample.value;
  EXPECT_EQ(got_metrics, want_metrics);
  EXPECT_EQ(channel.last_convergence_delay().count(), 9'545'495);
  EXPECT_EQ(events.processed(), 674u);
  EXPECT_EQ(agent_fold, 15011642988140807544ull);
  EXPECT_EQ(hook_fold, 5904311919139878863ull);
}

// ---------------------------------------------------------------------------
// Control-plane chaos soak: data-plane faults (flaps, loss windows, server
// crashes) run against real traffic while the external control plane —
// journaled controller, lossy channel, agent fleet — takes a channel loss
// window and two controller crash/recover cycles mid-storm. At quiesce
// every agent matches the controller's shipped state and no pool packet
// leaked. CI rotates seeds via SOAK_SEED_BASE.

std::uint64_t soak_seed_base() {
  const char* env = std::getenv("SOAK_SEED_BASE");
  if (env && *env) return std::strtoull(env, nullptr, 10);
  return 20260808ull;  // fixed default: the tier-1 run stays deterministic
}

struct ControlSoakOutcome {
  bool converged = false;
  bool fleet_matches = true;
  std::int64_t pool_live = -1;
  std::int64_t completed = 0;
  int faults_executed = 0;
  std::uint64_t state_checksum = 0;  ///< per-server config checksums folded
  std::int64_t shipped = 0, applied = 0, dropped = 0, repaired = 0;
  std::int64_t replays = 0;
};

ControlSoakOutcome run_control_soak(std::uint64_t seed) {
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

  // Data-plane traffic so the pool-leak assertion has teeth.
  TenantRequest bulk_req;
  bulk_req.num_vms = 4;
  bulk_req.tenant_class = TenantClass::kBandwidthOnly;
  bulk_req.guarantee = {500 * kMbps, Bytes{15 * kKB}, TimeNs{0}, 1 * kGbps};
  const auto tb = sim.add_tenant(bulk_req);
  EXPECT_TRUE(tb.has_value());
  RetryPolicy rp;
  rp.max_attempts = 6;
  workload::BulkDriver bulk(sim, *tb, workload::all_to_all(bulk_req.num_vms),
                            64 * kKB, seed);
  bulk.set_retry(rp);
  bulk.start(25 * kMsec);

  // External control plane on the same event queue: journaled controller
  // over its own (bigger) datacenter model, lossy channel, agent fleet
  // counting applies through the hook.
  const auto ctl_topo = small_dc();
  std::optional<SiloController> ctl;
  ctl.emplace(ctl_topo);
  DeltaJournal journal;
  ctl->attach_journal(&journal, /*snapshot_every=*/8);
  CompactionCheck check_compaction(journal);
  PacerAgentFleet fleet;
  std::int64_t hook_applies = 0;
  fleet.set_apply_hook(
      [&](int, const PacerConfigDelta&) { ++hook_applies; });
  ChannelConfig ccfg;
  ccfg.anti_entropy_period = 2 * kMsec;
  ccfg.seed = seed + 1;
  ControlChannel channel(sim.events(), fleet, ccfg);

  // Data-plane chaos + a control-channel loss window from one plan.
  const TimeNs horizon = 40 * kMsec;
  FaultPlan plan = FaultPlan::random(sim.topo(), seed, horizon, /*events=*/3);
  plan.channel_loss_window(2 * kMsec, 22 * kMsec, 0.35);
  FaultInjector chaos(sim, plan);
  chaos.attach_channel(&channel);
  chaos.arm();

  // Seeded control-plane storm: one op every 400 us for 30 ms.
  Rng storm(seed * 0x9e3779b97f4a7c15ull + 7);
  std::vector<TenantHandle> live;
  const auto storm_op = [&] {
    const auto roll = storm.uniform_int(0, 9);
    if (roll < 5 || live.empty()) {
      if (const auto h = ctl->admit(sample_request(storm)))
        live.push_back(*h);
    } else if (roll < 8) {
      const auto i = static_cast<std::size_t>(
          storm.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      ctl->release(live[i]);
      live[i] = live.back();
      live.pop_back();
    } else {
      const auto i = static_cast<std::size_t>(
          storm.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const int anchor = live[i].vm_to_server.front();
      if (anchor >= 0) {
        ctl->handle_server_failure(anchor);
        check_compaction(*ctl);
        ctl->restore_server(anchor);
        for (auto& handle : live)
          handle.vm_to_server = ctl->tenant_placement(handle.id);
      }
    }
    check_compaction(*ctl);
    channel.ship(ctl->drain_config_deltas());
  };
  for (int i = 0; i < 75; ++i)
    sim.events().at(TimeNs{400'000} * (i + 1), storm_op);

  // Two controller crash/recover cycles while the storm (and possibly the
  // channel loss window) is still running.
  const auto crash_and_recover = [&] {
    journal = DeltaJournal::deserialize(journal.serialize());
    ctl.emplace(ctl_topo);
    ctl->recover_from_journal(journal, /*snapshot_every=*/8);
    (void)ctl->drain_config_deltas();
    channel.restart(*ctl);
  };
  sim.events().at(9 * kMsec, crash_and_recover);
  sim.events().at(18 * kMsec, crash_and_recover);

  sim.run_until(1 * kSec);  // storm over by 30 ms; long convergence drain

  ControlSoakOutcome out;
  out.converged = channel.converged();
  out.state_checksum = kFnvTruncatedBasis;
  for (const int s : channel.shadow_servers()) {
    const auto want = pacer_config_checksum(ctl->server_config(s));
    if (fleet.checksum(s) != want || channel.shadow_checksum(s) != want ||
        fleet.buffered(s) != 0)
      out.fleet_matches = false;
    out.state_checksum = fnv1a_word(out.state_checksum, want);
  }
  out.pool_live = sim.events().pool().live();
  out.completed = sim.total_completed_messages();
  out.faults_executed = chaos.executed();
  const auto& m = channel.metrics();
  out.shipped = m.value("controller.channel.shipped");
  out.applied = m.value("controller.channel.applied");
  out.dropped = m.value("controller.channel.dropped");
  out.repaired = m.value("controller.channel.desyncs_repaired");
  out.replays = journal.metrics().value("controller.journal.replays");
  EXPECT_GT(hook_applies, 0);
  EXPECT_GE(check_compaction.checked(), 3);
  return out;
}

TEST(ControlPlaneSoak, RotatingSeedChaosConvergesAndReplaysExactly) {
  const std::uint64_t base = soak_seed_base();
  for (std::uint64_t seed = base; seed < base + 2; ++seed) {
    const auto a = run_control_soak(seed);
    EXPECT_TRUE(a.converged) << "seed " << seed;
    EXPECT_TRUE(a.fleet_matches) << "seed " << seed;
    EXPECT_EQ(a.pool_live, 0) << "seed " << seed;
    EXPECT_GT(a.completed, 0) << "seed " << seed;
    EXPECT_GT(a.faults_executed, 0) << "seed " << seed;
    EXPECT_GT(a.shipped, 0) << "seed " << seed;
    EXPECT_GT(a.dropped, 0) << "seed " << seed;
    EXPECT_EQ(a.replays, 2) << "seed " << seed;
    // Determinism: same seed, same chaos, same convergence trace.
    const auto b = run_control_soak(seed);
    EXPECT_EQ(a.state_checksum, b.state_checksum) << "seed " << seed;
    EXPECT_EQ(a.shipped, b.shipped) << "seed " << seed;
    EXPECT_EQ(a.applied, b.applied) << "seed " << seed;
    EXPECT_EQ(a.dropped, b.dropped) << "seed " << seed;
    EXPECT_EQ(a.repaired, b.repaired) << "seed " << seed;
  }
}

}  // namespace
}  // namespace silo::sim
