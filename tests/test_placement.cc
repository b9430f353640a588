#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "placement/placement.h"
#include "util/rng.h"

namespace silo::placement {
namespace {

topology::TopologyConfig small_topo() {
  topology::TopologyConfig cfg;
  cfg.pods = 2;
  cfg.racks_per_pod = 2;
  cfg.servers_per_rack = 4;
  cfg.vm_slots_per_server = 4;
  cfg.server_link_rate = 10 * kGbps;
  cfg.oversubscription = 2.0;
  cfg.port_buffer = 312 * kKB;
  return cfg;
}

TenantRequest class_a(int vms, RateBps bw = 500 * kMbps) {
  TenantRequest r;
  r.num_vms = vms;
  r.guarantee = {bw, 15 * kKB, 2 * kMsec, std::max(bw, 1 * kGbps)};
  r.tenant_class = TenantClass::kDelaySensitive;
  return r;
}

TenantRequest class_b(int vms, RateBps bw = 1 * kGbps) {
  TenantRequest r;
  r.num_vms = vms;
  r.guarantee = {bw, Bytes{1500}, TimeNs{0}, bw};
  r.tenant_class = TenantClass::kBandwidthOnly;
  return r;
}

TEST(Placement, SingleVmAlwaysFitsAnywhere) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  const auto a = eng.place(class_a(1));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->vm_to_server.size(), 1u);
  EXPECT_EQ(eng.free_slots(), topo.total_vm_slots() - 1);
}

TEST(Placement, PrefersSmallestScope) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  // 4 VMs fit on one server: all on the same server, no fabric use.
  const auto a = eng.place(class_a(4));
  ASSERT_TRUE(a.has_value());
  for (int s : a->vm_to_server) EXPECT_EQ(s, a->vm_to_server[0]);
  // Next 4 land on the next server.
  const auto b = eng.place(class_a(4));
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(b->vm_to_server[0], a->vm_to_server[0]);
}

TEST(Placement, SpansRackWhenServerFull) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  const auto a = eng.place(class_a(6));
  ASSERT_TRUE(a.has_value());
  // All six stay within one rack.
  const int rack = topo.rack_of_server(a->vm_to_server[0]);
  for (int s : a->vm_to_server) EXPECT_EQ(topo.rack_of_server(s), rack);
}

TEST(Placement, DelayGuaranteeRestrictsScope) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  // Rack-scope path capacity (two server-level ports at 312KB/10G each)
  // is ~499 us; a 600 us guarantee forces single-rack placement and a
  // tenant larger than a rack must be rejected.
  const TimeNs rack_cap = eng.scope_path_capacity(Scope::kRack);
  const TimeNs pod_cap = eng.scope_path_capacity(Scope::kPod);
  ASSERT_LT(rack_cap, pod_cap);

  TenantRequest tight = class_a(17);  // rack holds 16
  tight.guarantee.delay = rack_cap + TimeNs{1000};
  EXPECT_FALSE(eng.place(tight).has_value());

  TenantRequest fits = class_a(16);
  fits.guarantee.delay = rack_cap + TimeNs{1000};
  fits.guarantee.bandwidth = 100 * kMbps;
  const auto got = eng.place(fits);
  ASSERT_TRUE(got.has_value());
  const int rack = topo.rack_of_server(got->vm_to_server[0]);
  for (int s : got->vm_to_server) EXPECT_EQ(topo.rack_of_server(s), rack);
}

TEST(Placement, RejectsWhenNoSlots) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kLocality);
  ASSERT_TRUE(eng.place(class_b(60)).has_value());
  EXPECT_FALSE(eng.place(class_b(10)).has_value());
  EXPECT_TRUE(eng.place(class_b(4)).has_value());
}

TEST(Placement, RemoveRestoresCapacity) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  const int before = eng.free_slots();
  const auto a = eng.place(class_a(8));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(eng.free_slots(), before - 8);
  eng.remove(a->id);
  EXPECT_EQ(eng.free_slots(), before);
  EXPECT_EQ(eng.admitted_tenants(), 0);
  // Port reservations fully released.
  for (int p = 0; p < topo.num_ports(); ++p)
    EXPECT_DOUBLE_EQ(eng.port_reservation(topology::PortId{p}), 0.0);
}

TEST(Placement, BandwidthAdmissionControl) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kOktopus);
  // Each tenant of 8 VMs spread over 2 servers with 5 Gbps hose would
  // oversubscribe access links quickly; admission must stop before that.
  int admitted = 0;
  for (int i = 0; i < 16; ++i)
    if (eng.place(class_b(8, 5 * kGbps))) ++admitted;
  EXPECT_GT(admitted, 0);
  EXPECT_LT(admitted, 16);
  // No port is reserved beyond its capacity.
  for (int p = 0; p < topo.num_ports(); ++p)
    EXPECT_LE(eng.port_reservation(topology::PortId{p}), 1.0 + 1e-6);
}

TEST(Placement, LocalityIgnoresBandwidth) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kLocality);
  int admitted = 0;
  for (int i = 0; i < 8; ++i)
    if (eng.place(class_b(8, 5 * kGbps))) ++admitted;
  EXPECT_EQ(admitted, 8);  // 64 VMs = full datacenter, all accepted
}

TEST(Placement, SiloQueueBoundsWithinCapacity) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  for (int i = 0; i < 12; ++i) eng.place(class_a(6));
  for (int p = 0; p < topo.num_ports(); ++p) {
    const auto id = topology::PortId{p};
    const TimeNs bound = eng.port_queue_bound(id);
    ASSERT_GE(bound, TimeNs{0}) << "unbounded queue at port " << p;
    EXPECT_LE(bound, topo.port(id).queue_capacity) << "port " << p;
  }
}

TEST(Placement, SiloAdmitsFewerThanOktopus) {
  // Burst + delay constraints can only reduce admissions vs bandwidth-only.
  auto run = [&](Policy pol) {
    topology::Topology topo(small_topo());
    PlacementEngine eng(topo, pol);
    int admitted = 0;
    for (int i = 0; i < 20; ++i)
      if (eng.place(class_a(6, 2 * kGbps))) ++admitted;
    return admitted;
  };
  EXPECT_LE(run(Policy::kSilo), run(Policy::kOktopus));
  EXPECT_LE(run(Policy::kOktopus), run(Policy::kLocality));
}

TEST(Placement, BestEffortTenantsReserveNothing) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  TenantRequest be;
  be.num_vms = 8;
  be.guarantee = {1 * kGbps, Bytes{1500}, TimeNs{0}, 1 * kGbps};
  be.tenant_class = TenantClass::kBestEffort;
  ASSERT_TRUE(eng.place(be).has_value());
  for (int p = 0; p < topo.num_ports(); ++p)
    EXPECT_DOUBLE_EQ(eng.port_reservation(topology::PortId{p}), 0.0);
}

TEST(Placement, MalformedGuaranteeRejected) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  TenantRequest bad = class_a(2);
  bad.guarantee.burst_rate = bad.guarantee.bandwidth / 2;  // Bmax < B
  EXPECT_FALSE(eng.place(bad).has_value());
  EXPECT_FALSE(eng.place(TenantRequest{}).has_value());
}

TEST(Placement, Fig5NineVmScenario) {
  // Paper Fig. 5: 3 servers, 10 Gbps switch; tenant wants 9 VMs with
  // 1 Gbps, 100 KB burst, 1 ms delay, bursting at up to 10 Gbps.
  topology::TopologyConfig cfg;
  cfg.pods = 1;
  cfg.racks_per_pod = 1;
  cfg.servers_per_rack = 3;
  cfg.vm_slots_per_server = 3;
  cfg.server_link_rate = 10 * kGbps;
  cfg.oversubscription = 1.0;
  // The paper's arithmetic (600 KB burst at 20 Gbps -> 300 KB backlog)
  // ignores token refill during the burst drain; the rigorous dual-token-
  // bucket bound is 600KB/(1 - 3G/20G) ~= 706 KB of burst-phase bytes,
  // needing ~354 KB of buffering. 400 KB ports therefore admit.
  cfg.port_buffer = 400 * kKB;
  topology::Topology topo(cfg);
  PlacementEngine eng(topo, Policy::kSilo);

  TenantRequest req;
  req.num_vms = 9;
  req.guarantee = {1 * kGbps, 100 * kKB, 1 * kMsec, 10 * kGbps};
  req.tenant_class = TenantClass::kDelaySensitive;
  const auto got = eng.place(req);
  ASSERT_TRUE(got.has_value());
  // Silo spreads 3/3/3, and every switch port's queue bound stays within
  // its capacity, so worst-case bursts cannot overflow buffers.
  std::vector<int> per_server(3, 0);
  for (int s : got->vm_to_server) ++per_server[static_cast<std::size_t>(s)];
  for (int c : per_server) EXPECT_EQ(c, 3);
  for (int p = 0; p < topo.num_ports(); ++p) {
    const auto id = topology::PortId{p};
    EXPECT_LE(eng.port_queue_bound(id), topo.port(id).queue_capacity);
  }

  // With the paper's 300 KB buffers the rigorous bound does not fit:
  // admission control must reject rather than risk buffer overflow.
  cfg.port_buffer = 300 * kKB;
  topology::Topology topo_small(cfg);
  PlacementEngine eng_small(topo_small, Policy::kSilo);
  EXPECT_FALSE(eng_small.place(req).has_value());
}


TEST(Placement, FaultDomainsForceSpreading) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  // 4 VMs fit on one server, but 2 fault domains force at least two.
  auto req = class_a(4);
  req.min_fault_domains = 2;
  const auto got = eng.place(req);
  ASSERT_TRUE(got.has_value());
  std::set<int> servers(got->vm_to_server.begin(), got->vm_to_server.end());
  EXPECT_GE(servers.size(), 2u);
  // Three domains for 9 VMs: no server may hold more than ceil(9/3) = 3.
  auto req3 = class_a(9);
  req3.min_fault_domains = 3;
  const auto got3 = eng.place(req3);
  ASSERT_TRUE(got3.has_value());
  std::map<int, int> counts;
  for (int s : got3->vm_to_server) ++counts[s];
  EXPECT_GE(counts.size(), 3u);
  for (const auto& [s, c] : counts) EXPECT_LE(c, 3);
}

TEST(Placement, HoseTighteningAdmitsMore) {
  // Ablation (DESIGN.md #1): the naive m*B aggregate admits no more than
  // the hose-tightened min(m, N-m)*B bound.
  auto run = [&](bool tighten) {
    topology::Topology topo(small_topo());
    PlacementEngine eng(topo, Policy::kSilo, 50 * kUsec, tighten);
    int admitted = 0;
    for (int i = 0; i < 20; ++i)
      if (eng.place(class_a(8, 2 * kGbps))) ++admitted;
    return admitted;
  };
  const int with = run(true);
  const int without = run(false);
  EXPECT_GE(with, without);
  EXPECT_GT(with, 0);
}
// Property sweep: for any tenant size, if Silo admits, all port queue
// bounds stay within capacity.
class PlacementInvariant : public ::testing::TestWithParam<int> {};

TEST_P(PlacementInvariant, QueueBoundsHold) {
  topology::Topology topo(small_topo());
  PlacementEngine eng(topo, Policy::kSilo);
  int admitted = 0;
  while (eng.place(class_a(GetParam(), 800 * kMbps))) ++admitted;
  EXPECT_GT(admitted, 0);
  for (int p = 0; p < topo.num_ports(); ++p) {
    const auto id = topology::PortId{p};
    const TimeNs bound = eng.port_queue_bound(id);
    ASSERT_GE(bound, TimeNs{0});
    EXPECT_LE(bound, topo.port(id).queue_capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(TenantSizes, PlacementInvariant,
                         ::testing::Values(2, 3, 5, 8, 12, 16));

// Derived state both admission modes must agree on after every operation.
// Port loads compare to 4 ULPs: kFullRescan re-sums them from the tenant
// map while the incremental path adds and subtracts in operation order.
void expect_same_state(const PlacementEngine& inc,
                       const PlacementEngine& full) {
  const auto& topo = inc.topo();
  ASSERT_EQ(inc.free_slots(), full.free_slots());
  ASSERT_EQ(inc.admitted_tenants(), full.admitted_tenants());
  ASSERT_DOUBLE_EQ(inc.max_port_reservation(), full.max_port_reservation());
  ASSERT_DOUBLE_EQ(inc.max_queue_headroom_used(),
                   full.max_queue_headroom_used());
  for (int p = 0; p < topo.num_ports(); ++p) {
    const auto id = topology::PortId{p};
    ASSERT_DOUBLE_EQ(inc.port_reservation(id), full.port_reservation(id));
    ASSERT_EQ(inc.port_queue_bound(id), full.port_queue_bound(id));
  }
  for (int s = 0; s < topo.num_servers(); ++s)
    ASSERT_EQ(inc.tenants_on_server(s), full.tenants_on_server(s));
}

// The tentpole correctness bar: a seeded admit/release/fail/restore storm
// must produce bit-identical decisions and derived state in incremental
// (sharded, cached) and full-rescan (reference rebuild) modes.
TEST(Placement, IncrementalModeMatchesFullRescanUnderChurn) {
  topology::Topology topo(small_topo());
  PlacementEngine inc(topo, Policy::kSilo, 50 * kUsec, true,
                      AdmissionMode::kIncremental);
  PlacementEngine full(topo, Policy::kSilo, 50 * kUsec, true,
                       AdmissionMode::kFullRescan);
  ASSERT_EQ(inc.admission_mode(), AdmissionMode::kIncremental);
  ASSERT_EQ(full.admission_mode(), AdmissionMode::kFullRescan);

  Rng rng(7);
  std::vector<TenantId> live_inc, live_full;
  const auto check_state = [&] { expect_same_state(inc, full); };

  for (int step = 0; step < 200; ++step) {
    const auto roll = rng.uniform_int(0, 9);
    if (roll < 5) {  // admit
      const int vms = 2 + static_cast<int>(rng.uniform_int(0, 6));
      const auto req = (rng.uniform_int(0, 1) != 0)
                           ? class_a(vms, 300 * kMbps)
                           : class_b(vms, 500 * kMbps);
      const auto a = inc.place(req);
      const auto b = full.place(req);
      ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
      if (a) {
        ASSERT_EQ(a->vm_to_server, b->vm_to_server) << "step " << step;
        ASSERT_EQ(a->id, b->id);
        live_inc.push_back(a->id);
        live_full.push_back(b->id);
      }
    } else if (roll < 8 && !live_inc.empty()) {  // release
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live_inc.size()) - 1));
      inc.remove(live_inc[i]);
      full.remove(live_full[i]);
      live_inc.erase(live_inc.begin() + static_cast<std::ptrdiff_t>(i));
      live_full.erase(live_full.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (roll == 8) {  // server fail + restore
      const int s = static_cast<int>(
          rng.uniform_int(0, topo.num_servers() - 1));
      if (!inc.server_failed(s)) {
        inc.fail_server(s);
        full.fail_server(s);
        check_state();
        inc.restore_server(s);
        full.restore_server(s);
      }
    } else {  // link fail + restore
      const auto p = topology::PortId{
          static_cast<int>(rng.uniform_int(0, topo.num_ports() - 1))};
      if (!inc.port_failed(p)) {
        inc.fail_port(p);
        full.fail_port(p);
        const auto req = class_a(4, 200 * kMbps);
        const auto a = inc.place(req);
        const auto b = full.place(req);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) {
          ASSERT_EQ(a->vm_to_server, b->vm_to_server);
          inc.remove(a->id);
          full.remove(b->id);
        }
        inc.restore_port(p);
        full.restore_port(p);
      }
    }
    check_state();
  }
}

// ---------------------------------------------------------------------------
// Saturation storm: the scope walk, its free-slot cutoff, the probe table,
// the flat access-port check and the exact NIC pre-filter against
// kFullRescan's per-probe loop (no cutoff), on a fabric where the filter
// really fires. Three pods, so rejections scan up to datacenter scope;
// flowsim's bandwidth law (exponential, clamped to [link/100, link/2]), so
// NICs saturate; best-effort and multi-domain requests; servers and ports
// that stay failed across several operations. CI varies the seed window
// via SOAK_SEED_BASE; a failure names the seed.

std::uint64_t storm_seed_base() {
  const char* env = std::getenv("SOAK_SEED_BASE");
  if (env && *env) return std::strtoull(env, nullptr, 10);
  return 20261017ull;  // fixed default: the tier-1 run stays deterministic
}

// Test-side first-fit model of locality placement: the narrowest scope
// (server, rack, pod, datacenter) whose servers, in id order and each
// capped by its free slots and the fault-domain cap, hold the tenant.
// Locality checks no port, so the model pins the engine's scope walks
// (their server ranges, skips and cutoff) independently of both modes.
template <typename FreeOn>
std::optional<std::vector<int>> model_locality(
    const topology::TopologyConfig& cfg, const TenantRequest& req,
    const FreeOn& free_on) {
  const int n = req.num_vms;
  const int domains = std::max(1, req.min_fault_domains);
  const int domain_cap = (n + domains - 1) / domains;
  const int spr = cfg.servers_per_rack;
  const int racks = cfg.pods * cfg.racks_per_pod;
  if (domains == 1) {
    for (int s = 0; s < racks * spr; ++s)
      if (free_on(s) >= n)
        return std::vector<int>(static_cast<std::size_t>(n), s);
  }
  const auto fit = [&](int first,
                       int count) -> std::optional<std::vector<int>> {
    std::vector<int> out;
    for (int s = first; s < first + count; ++s) {
      const int m = std::min({free_on(s), n - static_cast<int>(out.size()),
                              domain_cap});
      out.insert(out.end(), static_cast<std::size_t>(m), s);
      if (static_cast<int>(out.size()) == n) return out;
    }
    return std::nullopt;
  };
  for (int r = 0; r < racks; ++r)
    if (auto v = fit(r * spr, spr)) return v;
  for (int p = 0; p < cfg.pods; ++p)
    if (auto v = fit(p * cfg.racks_per_pod * spr, cfg.racks_per_pod * spr))
      return v;
  return fit(0, racks * spr);
}

struct StormCounts {
  int admitted = 0;
  int cross_pod = 0;      ///< admitted placements spanning pods
  int nic_pressure = 0;   ///< place() calls the pre-filter can act on
  int boundary_hits = 0;  ///< ... admitted onto the threshold server
  /// Rejections while the datacenter still had >= n free slots: each one
  /// walked scopes whose slots could hold the tenant, where the cutoff
  /// acts once the servers passed leave too few.
  int walked_rejections = 0;
};

// One seeded storm through an incremental engine and the kFullRescan
// oracle; every decision, id and port load must agree.
void run_saturation_storm(Policy policy, bool hose_tightening,
                          std::uint64_t seed, StormCounts& counts) {
  SCOPED_TRACE("storm seed " + std::to_string(seed));
  topology::TopologyConfig cfg;
  cfg.pods = 3;
  cfg.racks_per_pod = 2;
  cfg.servers_per_rack = 4;
  cfg.vm_slots_per_server = 8;
  cfg.oversubscription = 2.0;
  topology::Topology topo(cfg);
  PlacementEngine inc(topo, policy, 50 * kUsec, hose_tightening,
                      AdmissionMode::kIncremental);
  PlacementEngine full(topo, policy, 50 * kUsec, hose_tightening,
                       AdmissionMode::kFullRescan);
  const double link = cfg.server_link_rate.bps();
  // port_admits admits a port while load + rate <= threshold.
  const double threshold = link * (1.0 + PlacementEngine::kRateEps);

  Rng rng(seed);
  std::vector<AdmittedTenant> live;  // same ids in both engines
  std::vector<int> used(static_cast<std::size_t>(topo.num_servers()), 0);
  std::vector<int> failed_ports;
  const auto free_on = [&](int s) {
    return inc.server_failed(s)
               ? 0
               : cfg.vm_slots_per_server - used[static_cast<std::size_t>(s)];
  };
  // Whole-bps loads: bandwidths are whole Mbps, so every NIC load is an
  // exact integer and port_reservation() * link recovers it exactly.
  const auto nic_load = [&](int s) {
    return std::round(inc.port_reservation(topo.server_up(s)) * link);
  };
  const auto sample_bw = [&] {
    const double bw = std::clamp(rng.exponential(link / 4), link / 100,
                                 link / 2);
    return RateBps{std::round(bw / 1e6) * 1e6};
  };
  std::optional<AdmittedTenant> last;  // place_both's decision
  const auto place_both = [&](const TenantRequest& req, int step) {
    if (req.tenant_class != TenantClass::kBestEffort) {
      for (int s = 0; s < topo.num_servers(); ++s) {
        if (free_on(s) > 0 &&
            link - nic_load(s) < req.guarantee.bandwidth.bps()) {
          ++counts.nic_pressure;
          break;
        }
      }
    }
    const bool slots_fit = req.num_vms <= inc.free_slots();
    const auto model = policy == Policy::kLocality
                           ? model_locality(cfg, req, free_on)
                           : std::nullopt;
    last = inc.place(req);
    const auto& a = last;
    const auto b = full.place(req);
    ASSERT_EQ(a.has_value(), b.has_value()) << "step " << step;
    if (policy == Policy::kLocality) {
      ASSERT_EQ(a.has_value(), model.has_value()) << "step " << step;
      if (a) {
        ASSERT_EQ(a->vm_to_server, *model) << "step " << step;
      }
    }
    if (!a && slots_fit) ++counts.walked_rejections;
    if (!a) return;
    ASSERT_EQ(a->id, b->id) << "step " << step;
    ASSERT_EQ(a->vm_to_server, b->vm_to_server) << "step " << step;
    ++counts.admitted;
    std::set<int> pods;
    for (const int s : a->vm_to_server) {
      ++used[static_cast<std::size_t>(s)];
      pods.insert(topo.pod_of_server(s));
    }
    if (pods.size() > 1) ++counts.cross_pod;
    live.push_back(*a);
  };

  for (int step = 0; step < 500; ++step) {
    const auto roll = rng.uniform_int(0, 99);
    if (roll < 50) {  // admit
      const int vms = 2 + static_cast<int>(rng.uniform_int(0, 8));
      const bool delay = rng.uniform_int(0, 1) != 0;
      const RateBps bw = sample_bw();
      TenantRequest req = delay ? class_a(vms, bw) : class_b(vms, bw);
      const auto kind = rng.uniform_int(0, 9);
      if (kind < 2) req.tenant_class = TenantClass::kBestEffort;
      if (kind >= 8) req.min_fault_domains = 2 + static_cast<int>(kind - 8);
      ASSERT_NO_FATAL_FAILURE(place_both(req, step));
    } else if (roll < 58 && policy == Policy::kOktopus) {
      // Exact-threshold request: two VMs in two fault domains, so packing
      // starts at rack scope with the first server of the first rack
      // holding two free slots. B puts that server's NIC exactly on the
      // threshold, which port_admits accepts; a pre-filter that also
      // skipped equality would place the tenant elsewhere.
      int first = -1;
      for (int r = 0; r < topo.num_racks() && first < 0; ++r) {
        int rack_free = 0;
        for (int i = 0; i < cfg.servers_per_rack; ++i)
          rack_free += free_on(topo.first_server_of_rack(r) + i);
        if (rack_free < 2) continue;
        for (int i = 0; i < cfg.servers_per_rack && first < 0; ++i)
          if (free_on(topo.first_server_of_rack(r) + i) > 0)
            first = topo.first_server_of_rack(r) + i;
      }
      if (first < 0) continue;
      const double headroom = threshold - nic_load(first);
      if (headroom > link / 2) continue;  // keep B below the line-rate cap
      TenantRequest req = class_b(2, RateBps{headroom});
      req.min_fault_domains = 2;
      ASSERT_NO_FATAL_FAILURE(place_both(req, step));
      if (last && std::count(last->vm_to_server.begin(),
                             last->vm_to_server.end(), first) > 0)
        ++counts.boundary_hits;
    } else if (roll < 80 && !live.empty()) {  // release
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      inc.remove(live[i].id);
      full.remove(live[i].id);
      for (const int s : live[i].vm_to_server)
        --used[static_cast<std::size_t>(s)];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (roll < 86) {  // fail a server until a later restore
      const int s =
          static_cast<int>(rng.uniform_int(0, topo.num_servers() - 1));
      inc.fail_server(s);
      full.fail_server(s);
    } else if (roll < 92) {  // fail a port until a later restore
      const auto p = topology::PortId{
          static_cast<int>(rng.uniform_int(0, topo.num_ports() - 1))};
      inc.fail_port(p);
      full.fail_port(p);
      failed_ports.push_back(p.value);
    } else {  // restore one failed server and one failed port
      const int s =
          static_cast<int>(rng.uniform_int(0, topo.num_servers() - 1));
      inc.restore_server(s);
      full.restore_server(s);
      if (!failed_ports.empty()) {
        const auto p = topology::PortId{failed_ports.back()};
        failed_ports.pop_back();
        inc.restore_port(p);
        full.restore_port(p);
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_state(inc, full)) << "step " << step;
  }
}

void expect_storms_match(Policy policy, bool hose_tightening) {
  StormCounts counts;
  for (std::uint64_t seed = storm_seed_base(); seed < storm_seed_base() + 3;
       ++seed) {
    ASSERT_NO_FATAL_FAILURE(
        run_saturation_storm(policy, hose_tightening, seed, counts));
  }
  // The storms must keep exercising what they pin: admissions that span
  // pods (datacenter-scope scans), rejections that walk scopes with enough
  // free slots, and guaranteed requests meeting a server with free slots
  // whose NIC headroom is below their B (locality reserves nothing, so
  // its NICs stay idle).
  EXPECT_GT(counts.admitted, 100);
  EXPECT_GT(counts.cross_pod, 0);
  EXPECT_GT(counts.walked_rejections, 0);
  if (policy != Policy::kLocality) {
    EXPECT_GT(counts.nic_pressure, 50);
  }
  if (policy == Policy::kOktopus) {
    EXPECT_GT(counts.boundary_hits, 0);
  }
}

TEST(PlacementSoak, SiloSaturationStormMatchesFullRescan) {
  expect_storms_match(Policy::kSilo, true);
}

TEST(PlacementSoak, OktopusSaturationStormMatchesFullRescan) {
  expect_storms_match(Policy::kOktopus, true);
}

TEST(PlacementSoak, SiloWithoutHoseTighteningMatchesFullRescan) {
  expect_storms_match(Policy::kSilo, false);
}

TEST(PlacementSoak, LocalitySaturationStormMatchesFullRescan) {
  expect_storms_match(Policy::kLocality, true);
}

}  // namespace
}  // namespace silo::placement
