#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "flowsim/flow_sim.h"
#include "flowsim/flow_table.h"
#include "flowsim/maxmin.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace silo::flowsim {
namespace {

FlowSimConfig quick(placement::Policy policy, double occupancy) {
  FlowSimConfig cfg;
  cfg.topo.pods = 2;
  cfg.topo.racks_per_pod = 2;
  cfg.topo.servers_per_rack = 8;
  cfg.topo.vm_slots_per_server = 8;
  cfg.policy = policy;
  cfg.occupancy = occupancy;
  cfg.sim_duration_s = 400;
  cfg.warmup_s = 100;
  cfg.compute_time_mean_s = 30;
  cfg.mean_vms = 6;
  cfg.seed = 9;
  cfg.mean_vms = 12;
  cfg.b_transfer_time_mean_s = 30;
  return cfg;
}

TEST(FlowSim, RunsAndProducesSaneMetrics) {
  const auto res = run_flow_sim(quick(placement::Policy::kSilo, 0.6));
  EXPECT_GT(res.arrivals, 20);
  EXPECT_GT(res.admitted, 0);
  EXPECT_LE(res.admitted, res.arrivals);
  EXPECT_GE(res.network_utilization, 0.0);
  EXPECT_LE(res.network_utilization, 1.0);
  EXPECT_GT(res.avg_occupancy, 0.2);
  EXPECT_LT(res.avg_occupancy, 1.0);
  EXPECT_GT(res.completed_jobs, 0);
}

TEST(FlowSim, LocalityAdmitsMostAtLowOccupancy) {
  // Locality only rejects on slot shortage, so at light load it admits
  // nearly everything (geometric-tail giants may still not fit).
  const auto res = run_flow_sim(quick(placement::Policy::kLocality, 0.4));
  EXPECT_GT(res.admitted_frac(), 0.9);
}

TEST(FlowSim, SiloRejectsMoreThanOktopus) {
  const auto silo = run_flow_sim(quick(placement::Policy::kSilo, 0.85));
  const auto okto = run_flow_sim(quick(placement::Policy::kOktopus, 0.85));
  EXPECT_LE(silo.admitted_frac(), okto.admitted_frac() + 0.02);
  // Class-A (delay) tenants are the harder ones for Silo (paper §6.3).
  EXPECT_LE(silo.admitted_frac_a(), silo.admitted_frac_b() + 0.05);
}

TEST(FlowSim, OccupancyTracksTarget) {
  const auto lo = run_flow_sim(quick(placement::Policy::kLocality, 0.3));
  const auto hi = run_flow_sim(quick(placement::Policy::kLocality, 0.8));
  EXPECT_LT(lo.avg_occupancy, hi.avg_occupancy);
}

TEST(FlowSim, DenserTrafficRaisesUtilization) {
  auto sparse = quick(placement::Policy::kSilo, 0.7);
  sparse.permutation_x = 0.5;
  auto dense = quick(placement::Policy::kSilo, 0.7);
  dense.permutation_x = 0;  // all-to-all
  const auto u_sparse = run_flow_sim(sparse).network_utilization;
  const auto u_dense = run_flow_sim(dense).network_utilization;
  EXPECT_GT(u_dense, u_sparse);
}

TEST(FlowSim, DeterministicForFixedSeed) {
  const auto a = run_flow_sim(quick(placement::Policy::kOktopus, 0.6));
  const auto b = run_flow_sim(quick(placement::Policy::kOktopus, 0.6));
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_DOUBLE_EQ(a.network_utilization, b.network_utilization);
}

TEST(FlowSim, RejectsDegenerateConfig) {
  // mean_vms = 0 makes the Poisson arrival rate infinite: every gap is 0,
  // so the arrival loop would never end. Each field that can stall or
  // poison the run is rejected before anything is built.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto base = quick(placement::Policy::kLocality, 0.5);
  const auto rejects = [&](double FlowSimConfig::*field, double value) {
    FlowSimConfig cfg = base;
    cfg.*field = value;
    EXPECT_THROW(run_flow_sim(cfg), std::invalid_argument) << value;
  };
  for (const double v : {0.0, 1.5, -3.0, nan, inf})
    rejects(&FlowSimConfig::mean_vms, v);
  for (const double v : {0.0, -0.5, nan, inf})
    rejects(&FlowSimConfig::occupancy, v);
  for (const double v : {-1.0, nan, inf})
    rejects(&FlowSimConfig::sim_duration_s, v);
  for (const double v : {-1.0, nan, inf})
    rejects(&FlowSimConfig::rate_update_s, v);

  // The edges of the domain still run: the smallest tenant size, and a
  // zero horizon, which admits nothing.
  FlowSimConfig edge = base;
  edge.mean_vms = 2;
  edge.sim_duration_s = 40;
  edge.warmup_s = 0;
  EXPECT_GT(run_flow_sim(edge).arrivals, 0);
  FlowSimConfig empty = base;
  empty.sim_duration_s = 0;
  EXPECT_EQ(run_flow_sim(empty).arrivals, 0);
}

// --- max-min solver properties ---------------------------------------------

/// Seeded random open-flow population over a topology, returned as a flow
/// table plus the rates the solver assigned.
struct SolverFixture {
  topology::Topology topo;
  FlowTable table;
  MaxMinSolver solver;
  std::vector<int> flow_ids;

  SolverFixture(topology::TopologyConfig tc, int n_flows, std::uint64_t seed)
      : topo(tc), table(topo.num_ports()), solver(topo, table) {
    Rng rng(seed);
    const int servers = topo.num_servers();
    for (int i = 0; i < n_flows; ++i) {
      const int src = static_cast<int>(rng.uniform_int(0, servers - 1));
      int dst = static_cast<int>(rng.uniform_int(0, servers - 2));
      if (dst >= src) ++dst;  // distinct, so every flow crosses the fabric
      flow_ids.push_back(table.allocate(topo.path_span(src, dst)));
    }
  }

  void apply(const std::vector<std::pair<int, double>>& rates) {
    for (const auto& [f, r] : rates) table.flow(f).rate = r;
  }
};

/// Validity of any max-min solution: no port over capacity, and every flow
/// is bottlenecked — some port on its path is saturated AND the flow's rate
/// is the largest on that port (otherwise its rate could be raised without
/// lowering a smaller flow, contradicting max-min fairness).
void expect_maxmin_valid(SolverFixture& fx) {
  std::vector<double> load(static_cast<std::size_t>(fx.topo.num_ports()), 0);
  for (const int f : fx.flow_ids) {
    const SimFlow& fl = fx.table.flow(f);
    EXPECT_GT(fl.rate, 0.0);
    for (int i = 0; i < fl.n_ports; ++i)
      load[static_cast<std::size_t>(fl.ports[static_cast<std::size_t>(i)])] +=
          fl.rate;
  }
  for (int p = 0; p < fx.topo.num_ports(); ++p) {
    const double cap = fx.topo.port({p}).rate.bps();
    EXPECT_LE(load[static_cast<std::size_t>(p)], cap * (1.0 + 1e-9))
        << "port " << p << " over capacity";
  }
  for (const int f : fx.flow_ids) {
    const SimFlow& fl = fx.table.flow(f);
    bool bottlenecked = false;
    for (int i = 0; i < fl.n_ports && !bottlenecked; ++i) {
      const int p = fl.ports[static_cast<std::size_t>(i)];
      const double cap = fx.topo.port({p}).rate.bps();
      if (load[static_cast<std::size_t>(p)] < cap * (1.0 - 1e-9)) continue;
      bool largest = true;
      for (const int g : fx.table.flows_on_port(p))
        if (fx.table.flow(g).rate > fl.rate * (1.0 + 1e-9)) largest = false;
      bottlenecked = largest;
    }
    EXPECT_TRUE(bottlenecked) << "flow " << f << " has no saturated "
                              << "bottleneck port where it is the largest";
  }
}

TEST(MaxMinSolver, SolutionIsValidAcrossSeeds) {
  topology::TopologyConfig tc;
  tc.pods = 2;
  tc.racks_per_pod = 2;
  tc.servers_per_rack = 4;
  for (const std::uint64_t seed : {1u, 7u, 21u, 33u, 54u}) {
    SolverFixture fx(tc, 120, seed);
    fx.apply(fx.solver.solve_all());
    expect_maxmin_valid(fx);
  }
}

TEST(MaxMinSolver, ComponentResolveMatchesGlobalBitIdentically) {
  topology::TopologyConfig tc;
  tc.pods = 3;
  tc.racks_per_pod = 2;
  tc.servers_per_rack = 5;
  for (const std::uint64_t seed : {2u, 11u, 40u}) {
    SolverFixture fx(tc, 90, seed);
    const auto global = fx.solver.solve_all();  // reference: all components
    // Re-solving the component touched by each flow must reproduce the
    // global rates exactly — this is the foundation of SolverMode
    // equivalence, so it is ==, not near.
    for (const int f : fx.flow_ids) {
      const SimFlow& fl = fx.table.flow(f);
      std::vector<int> ports;
      for (int i = 0; i < fl.n_ports; ++i)
        ports.push_back(fl.ports[static_cast<std::size_t>(i)]);
      for (const auto& [g, rate] : fx.solver.solve_touching(ports)) {
        const auto it = std::lower_bound(
            global.begin(), global.end(), g,
            [](const std::pair<int, double>& e, int id) { return e.first < id; });
        ASSERT_TRUE(it != global.end() && it->first == g);
        EXPECT_EQ(it->second, rate);
      }
    }
  }
}

TEST(MaxMinSolver, ManyComponentsMatchGlobalBitIdentically) {
  // Rack-local flow sets on six racks, a few cross-rack flows, and idle
  // ports: the shape a grid solve sees, many small components at once.
  topology::TopologyConfig tc;
  tc.pods = 2;
  tc.racks_per_pod = 3;
  tc.servers_per_rack = 6;
  topology::Topology topo(tc);
  FlowTable table(topo.num_ports());
  MaxMinSolver solver(topo, table);
  Rng rng(17);
  const int spr = tc.servers_per_rack;
  const int racks = tc.pods * tc.racks_per_pod;
  std::vector<std::pair<int, int>> pairs;
  // Rack 0 is all-to-one (one component, no cross-rack flow touches it);
  // the other racks draw random in-rack pairs, which may split into
  // several components per rack. Server spr-1 of each rack stays idle.
  for (int s = 1; s < spr - 1; ++s) pairs.emplace_back(s, 0);
  for (int r = 1; r < racks; ++r) {
    for (int i = 0; i < 5; ++i) {
      const int src = static_cast<int>(rng.uniform_int(0, spr - 2));
      int dst = static_cast<int>(rng.uniform_int(0, spr - 3));
      if (dst >= src) ++dst;
      pairs.emplace_back(r * spr + src, r * spr + dst);
    }
  }
  pairs.emplace_back(1 * spr + 1, 2 * spr + 2);  // within pod 0
  pairs.emplace_back(2 * spr + 3, 4 * spr + 1);  // across pods
  pairs.emplace_back(5 * spr + 0, 3 * spr + 4);
  // A crowded last rack makes the table much larger than rack 0's
  // component, so the rack-0 solve below emits through its sort path
  // while the all-port solve emits through the epoch-mark scan.
  for (int i = 0; i < 100; ++i) {
    const int src = static_cast<int>(rng.uniform_int(0, spr - 2));
    const int dst = (src + 1 + static_cast<int>(i % (spr - 2))) % (spr - 1);
    pairs.emplace_back((racks - 1) * spr + src, (racks - 1) * spr + dst);
  }
  std::vector<int> ids;
  for (const auto& [src, dst] : pairs)
    ids.push_back(table.allocate(topo.path_span(src, dst)));
  const int rack0_flows = spr - 2;

  // Census by union-find over shared ports, so the test pins that the
  // shape really is many components.
  std::vector<int> parent(ids.size());
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x)
      x = parent[static_cast<std::size_t>(x)];
    return x;
  };
  for (int p = 0; p < topo.num_ports(); ++p) {
    const auto& on = table.flows_on_port(p);
    for (std::size_t i = 1; i < on.size(); ++i)
      parent[static_cast<std::size_t>(find(on[i]))] = find(on[0]);
  }
  int components = 0;
  for (std::size_t i = 0; i < ids.size(); ++i)
    components += find(static_cast<int>(i)) == static_cast<int>(i);
  EXPECT_GE(components, 6);

  const std::int64_t r0 = solver.waterfill_rounds();
  const auto global = solver.solve_all();
  const std::int64_t global_rounds = solver.waterfill_rounds() - r0;
  ASSERT_EQ(global.size(), ids.size());

  // Every port as a seed, idle ones included: each component is found
  // once and solved on its own, and the union equals the global solve.
  std::vector<int> all_ports(static_cast<std::size_t>(topo.num_ports()));
  std::iota(all_ports.begin(), all_ports.end(), 0);
  const std::int64_t r1 = solver.waterfill_rounds();
  const auto touched = solver.solve_touching(all_ports);
  EXPECT_EQ(solver.waterfill_rounds() - r1, global_rounds);
  ASSERT_EQ(touched.size(), global.size());
  for (std::size_t i = 0; i < global.size(); ++i) {
    EXPECT_EQ(touched[i].first, global[i].first);
    EXPECT_EQ(touched[i].second, global[i].second) << "flow " << i;
  }

  // Seeded from rack 0's ports alone, the solve covers exactly rack 0's
  // component — and reproduces its global rates.
  const SimFlow& f0 = table.flow(ids[0]);
  std::vector<int> rack0_ports;
  for (int i = 0; i < f0.n_ports; ++i)
    rack0_ports.push_back(f0.ports[static_cast<std::size_t>(i)]);
  const std::int64_t s0 = solver.solved_flows();
  const auto rack0 = solver.solve_touching(rack0_ports);
  EXPECT_EQ(solver.solved_flows() - s0, rack0_flows);
  ASSERT_EQ(rack0.size(), static_cast<std::size_t>(rack0_flows));
  for (std::size_t i = 0; i < rack0.size(); ++i) {
    const auto [f, rate] = rack0[i];
    EXPECT_EQ(f, ids[i]) << "ascending flow id";
    EXPECT_EQ(rate, global[static_cast<std::size_t>(f)].second);
  }

  // An idle server's NIC seeds nothing.
  const std::int64_t s1 = solver.solved_flows();
  const int idle_nic = topo.path_span(spr - 1, 0).port[0].value;
  EXPECT_TRUE(solver.solve_touching({idle_nic}).empty());
  EXPECT_EQ(solver.solved_flows(), s1);
}

// --- cross-mode equivalence -------------------------------------------------

/// The reference solver re-solves globally on every flow change; the
/// incremental solver touches only the affected component/tenant. Both must
/// produce *bit-identical* runs — exact == on every result field, the same
/// pin placement applies to AdmissionMode::kFullRescan.
void expect_modes_equivalent(FlowSimConfig cfg) {
  cfg.solver = SolverMode::kIncremental;
  const auto inc = run_flow_sim(cfg);
  cfg.solver = SolverMode::kReference;
  const auto ref = run_flow_sim(cfg);
  EXPECT_EQ(inc.arrivals, ref.arrivals);
  EXPECT_EQ(inc.admitted, ref.admitted);
  EXPECT_EQ(inc.admitted_a, ref.admitted_a);
  EXPECT_EQ(inc.admitted_b, ref.admitted_b);
  EXPECT_EQ(inc.completed_jobs, ref.completed_jobs);
  EXPECT_EQ(inc.network_utilization, ref.network_utilization);
  EXPECT_EQ(inc.avg_occupancy, ref.avg_occupancy);
  EXPECT_EQ(inc.avg_job_duration_s, ref.avg_job_duration_s);
  // The perf counters are where the modes are *supposed* to differ.
  EXPECT_LE(inc.perf.solved_flows, ref.perf.solved_flows);
}

TEST(FlowSim, IncrementalMatchesReferenceSmall) {
  for (const auto policy :
       {placement::Policy::kSilo, placement::Policy::kOktopus,
        placement::Policy::kLocality}) {
    for (const std::uint64_t seed : {9ull, 77ull}) {
      auto cfg = quick(policy, 0.8);
      cfg.seed = seed;
      expect_modes_equivalent(cfg);
    }
  }
}

TEST(FlowSim, IncrementalMatchesReferenceMid) {
  for (const auto policy :
       {placement::Policy::kSilo, placement::Policy::kLocality}) {
    auto cfg = quick(policy, 0.9);
    cfg.topo.pods = 3;
    cfg.topo.racks_per_pod = 3;
    cfg.topo.servers_per_rack = 10;
    cfg.sim_duration_s = 250;
    expect_modes_equivalent(cfg);
  }
}

TEST(FlowSim, IncrementalMatchesReferenceAllToAll) {
  auto cfg = quick(placement::Policy::kOktopus, 0.7);
  cfg.permutation_x = 0;  // all-to-all class-B pattern
  cfg.sim_duration_s = 250;
  expect_modes_equivalent(cfg);
}

TEST(FlowSim, IncrementalMatchesReferenceCoalesced) {
  // rate_update_s > 0 batches flow-set changes onto a grid; the batching
  // decisions depend only on the shared event timeline, so cross-mode
  // equivalence must hold with coalescing on too (paper-scale Fig 15/16
  // runs with a 1 s grid).
  for (const auto policy :
       {placement::Policy::kSilo, placement::Policy::kLocality}) {
    auto cfg = quick(policy, 0.9);
    cfg.rate_update_s = 1.0;
    expect_modes_equivalent(cfg);
  }
}

TEST(FlowSim, CoalescedRunStaysSane) {
  // Coalescing changes the trajectory (new flows idle until their first
  // grid solve) but not the physics: utilization, occupancy, and
  // completions stay in range and jobs still finish.
  auto cfg = quick(placement::Policy::kLocality, 0.8);
  cfg.rate_update_s = 1.0;
  const auto res = run_flow_sim(cfg);
  EXPECT_GT(res.completed_jobs, 0);
  EXPECT_GT(res.network_utilization, 0.0);
  EXPECT_LE(res.network_utilization, 1.0);
  EXPECT_GT(res.avg_occupancy, 0.2);
  EXPECT_LT(res.avg_occupancy, 1.0);
}

TEST(FlowSim, PublishesMetricsFamily) {
  obs::MetricsRegistry reg;
  const auto res = run_flow_sim(quick(placement::Policy::kSilo, 0.6), &reg);
  EXPECT_EQ(reg.value("flowsim.events"), res.perf.events);
  EXPECT_EQ(reg.value("flowsim.solves"), res.perf.solves);
  EXPECT_EQ(reg.value("flowsim.solved_flows"), res.perf.solved_flows);
  EXPECT_EQ(reg.value("flowsim.rate_changes"), res.perf.rate_changes);
  EXPECT_EQ(reg.value("flowsim.maxmin_rounds"), res.perf.maxmin_rounds);
  EXPECT_EQ(reg.value("flowsim.stale_predictions"),
            res.perf.stale_predictions);
  EXPECT_GT(res.perf.events, 0);
  EXPECT_GT(res.perf.rate_changes, 0);
}

// --- rotating-seed equivalence soak -----------------------------------------

/// Small generated scenarios, incremental against the reference solver.
/// CI varies the seed window via SOAK_SEED_BASE; a failure names the seed.
std::uint64_t soak_seed_base() {
  const char* env = std::getenv("SOAK_SEED_BASE");
  if (env && *env) return std::strtoull(env, nullptr, 10);
  return 20261017ull;  // fixed default: the tier-1 run stays deterministic
}

TEST(FlowSimSoak, IncrementalMatchesReference) {
  const std::uint64_t base = soak_seed_base();
  const placement::Policy policies[] = {placement::Policy::kLocality,
                                        placement::Policy::kSilo,
                                        placement::Policy::kOktopus};
  const double xs[] = {0.0, 0.5, 1.0};
  for (std::uint64_t k = 0; k < 6; ++k) {
    const std::uint64_t seed = base + k;
    SCOPED_TRACE("soak seed " + std::to_string(seed));
    Rng rng(seed);
    FlowSimConfig cfg;
    cfg.topo.pods = static_cast<int>(rng.uniform_int(1, 3));
    cfg.topo.racks_per_pod = static_cast<int>(rng.uniform_int(2, 4));
    cfg.topo.servers_per_rack = static_cast<int>(rng.uniform_int(4, 10));
    cfg.topo.vm_slots_per_server = static_cast<int>(rng.uniform_int(2, 8));
    cfg.topo.oversubscription = rng.uniform(1.0, 5.0);
    cfg.policy = policies[rng.uniform_int(0, 2)];
    cfg.occupancy = rng.uniform(0.5, 0.95);
    cfg.rate_update_s = rng.uniform_int(0, 1) == 0 ? 0.0 : 1.0;
    cfg.permutation_x = xs[rng.uniform_int(0, 2)];
    // All-to-all flow counts are quadratic in tenant size, and kReference
    // re-solves every open flow per change: smaller tenants keep those
    // scenarios under a second.
    cfg.mean_vms = rng.uniform(4.0, cfg.permutation_x == 0.0 ? 6.0 : 12.0);
    cfg.compute_time_mean_s = 10;
    cfg.b_transfer_time_mean_s = 20;
    cfg.sim_duration_s = 150;
    cfg.warmup_s = 40;
    cfg.seed = seed;

    cfg.solver = SolverMode::kIncremental;
    const auto inc = run_flow_sim(cfg);
    cfg.solver = SolverMode::kReference;
    const auto ref = run_flow_sim(cfg);
    EXPECT_GT(inc.perf.events, 0);
    EXPECT_EQ(inc.arrivals, ref.arrivals);
    EXPECT_EQ(inc.admitted, ref.admitted);
    EXPECT_EQ(inc.arrivals_a, ref.arrivals_a);
    EXPECT_EQ(inc.admitted_a, ref.admitted_a);
    EXPECT_EQ(inc.arrivals_b, ref.arrivals_b);
    EXPECT_EQ(inc.admitted_b, ref.admitted_b);
    EXPECT_EQ(inc.network_utilization, ref.network_utilization);
    EXPECT_EQ(inc.avg_occupancy, ref.avg_occupancy);
    EXPECT_EQ(inc.avg_job_duration_s, ref.avg_job_duration_s);
    EXPECT_EQ(inc.completed_jobs, ref.completed_jobs);
    EXPECT_EQ(inc.perf.events, ref.perf.events);
    EXPECT_EQ(inc.perf.rate_changes, ref.perf.rate_changes);
    EXPECT_EQ(inc.perf.stale_predictions, ref.perf.stale_predictions);
  }
}

}  // namespace
}  // namespace silo::flowsim
