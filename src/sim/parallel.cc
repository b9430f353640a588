#include "sim/parallel.h"

#include <algorithm>
#include <set>
#include <utility>

namespace silo::sim {

namespace {

/// Union-find with the *smallest member index as root*, so the final
/// island numbering is a pure function of the inputs (never of merge
/// order or memory layout).
struct UnionFind {
  std::vector<int> parent;

  explicit UnionFind(int n) : parent(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) parent[static_cast<std::size_t>(i)] = i;
  }
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }
  bool unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (b < a) std::swap(a, b);
    parent[static_cast<std::size_t>(b)] = a;
    return true;
  }
};

}  // namespace

IslandPartition IslandPartition::single(const topology::Topology& topo) {
  IslandPartition p;
  p.num_islands = 1;
  p.num_components = 1;
  p.rack_island.assign(static_cast<std::size_t>(topo.num_racks()), 0);
  p.port_island.assign(static_cast<std::size_t>(topo.num_ports()), 0);
  p.component.assign(1, 0);
  p.component_lookahead.assign(1, kTimeInfinity);
  return p;
}

IslandPartition IslandPartition::build(
    const topology::Topology& topo, TimeNs link_delay,
    const std::vector<std::vector<int>>& tenant_servers) {
  const int num_racks = topo.num_racks();
  const int num_pods = topo.num_pods();
  const int num_tenants = static_cast<int>(tenant_servers.size());

  // 1. Tenant state must be island-local: union every rack a tenant
  //    touches. Per-tenant rack lists, deduplicated and sorted, so the
  //    union sequence is deterministic.
  UnionFind uf(num_racks);
  std::vector<std::vector<int>> tenant_racks(
      static_cast<std::size_t>(num_tenants));
  std::vector<std::vector<int>> tenant_pods(
      static_cast<std::size_t>(num_tenants));
  for (int t = 0; t < num_tenants; ++t) {
    auto& racks = tenant_racks[static_cast<std::size_t>(t)];
    for (int s : tenant_servers[static_cast<std::size_t>(t)])
      racks.push_back(topo.rack_of_server(s));
    std::sort(racks.begin(), racks.end());
    racks.erase(std::unique(racks.begin(), racks.end()), racks.end());
    auto& pods = tenant_pods[static_cast<std::size_t>(t)];
    for (int r : racks) pods.push_back(topo.pod_of_rack(r));
    pods.erase(std::unique(pods.begin(), pods.end()), pods.end());
    for (std::size_t k = 1; k < racks.size(); ++k)
      uf.unite(racks[0], racks[k]);
  }

  // 2. Which rack groups send traffic through each pod's shared up/down
  //    aggregation queues? Only pod-spanning tenants do (intra-pod paths
  //    stay on ToR queues the tenant's own island owns).
  std::vector<std::set<int>> pod_user_roots(
      static_cast<std::size_t>(num_pods));
  for (int t = 0; t < num_tenants; ++t) {
    const auto& pods = tenant_pods[static_cast<std::size_t>(t)];
    if (pods.size() < 2) continue;
    const int root = uf.find(tenant_racks[static_cast<std::size_t>(t)][0]);
    for (int p : pods)
      pod_user_roots[static_cast<std::size_t>(p)].insert(root);
  }

  IslandPartition out;

  // 3. Zero-lookahead edge case: a conservative window cannot advance past
  //    a 0 ns crossing (the horizon formula would pin W to the minimum
  //    next-event time forever — livelock). Merge the would-be neighbors
  //    instead; what cannot be overlapped safely runs sequentially.
  if (link_delay <= TimeNs{0}) {
    for (int p = 0; p < num_pods; ++p) {
      const auto& users = pod_user_roots[static_cast<std::size_t>(p)];
      if (users.size() < 2) continue;
      const int first = *users.begin();
      for (int g : users)
        if (uf.unite(first, g)) ++out.merged_zero_latency;
    }
  }

  // 4. Compact rack-group islands, numbered by smallest rack index.
  out.rack_island.assign(static_cast<std::size_t>(num_racks), -1);
  std::vector<int> root_id(static_cast<std::size_t>(num_racks), -1);
  int next_island = 0;
  for (int r = 0; r < num_racks; ++r) {
    const int root = uf.find(r);
    if (root_id[static_cast<std::size_t>(root)] < 0)
      root_id[static_cast<std::size_t>(root)] = next_island++;
    out.rack_island[static_cast<std::size_t>(r)] =
        root_id[static_cast<std::size_t>(root)];
  }

  // 5. Port ownership. Rack-level queues belong to their rack's island;
  //    pod queues shared by >= 2 islands become dedicated single-port
  //    islands (numbered after the rack islands, pods in order, up before
  //    down — again input-determined).
  out.port_island.assign(static_cast<std::size_t>(topo.num_ports()), 0);
  const int num_servers = topo.num_servers();
  for (int s = 0; s < num_servers; ++s) {
    const int isl =
        out.rack_island[static_cast<std::size_t>(topo.rack_of_server(s))];
    out.port_island[static_cast<std::size_t>(topo.server_up(s).value)] = isl;
    out.port_island[static_cast<std::size_t>(topo.server_down(s).value)] = isl;
  }
  for (int r = 0; r < num_racks; ++r) {
    const int isl = out.rack_island[static_cast<std::size_t>(r)];
    out.port_island[static_cast<std::size_t>(topo.rack_up(r).value)] = isl;
    out.port_island[static_cast<std::size_t>(topo.rack_down(r).value)] = isl;
  }
  for (int p = 0; p < num_pods; ++p) {
    const auto& users = pod_user_roots[static_cast<std::size_t>(p)];
    std::set<int> user_islands;
    for (int g : users)
      user_islands.insert(out.rack_island[static_cast<std::size_t>(uf.find(g))]);
    int up_isl;
    int down_isl;
    if (user_islands.size() >= 2) {
      up_isl = next_island++;
      down_isl = next_island++;
    } else if (user_islands.size() == 1) {
      up_isl = down_isl = *user_islands.begin();
    } else {
      up_isl = down_isl = out.rack_island[static_cast<std::size_t>(
          topo.first_rack_of_pod(p))];
    }
    out.port_island[static_cast<std::size_t>(topo.pod_up(p).value)] = up_isl;
    out.port_island[static_cast<std::size_t>(topo.pod_down(p).value)] = down_isl;
  }
  out.num_islands = next_island;

  // 6. Crossing edges: walk every pod-spanning tenant's inter-pod path
  //    shape (ToR up -> pod up -> pod down -> ToR down) and record each
  //    boundary between differently-owned consecutive queues.
  std::set<std::pair<int, int>> edges;
  for (int t = 0; t < num_tenants; ++t) {
    const auto& pods = tenant_pods[static_cast<std::size_t>(t)];
    if (pods.size() < 2) continue;
    // All of the tenant's racks were united in step 1: any one names it.
    const int isl = out.rack_island[static_cast<std::size_t>(
        tenant_racks[static_cast<std::size_t>(t)][0])];
    for (int ps : pods) {
      for (int pd : pods) {
        if (ps == pd) continue;
        const int seq[4] = {
            isl,
            out.port_island[static_cast<std::size_t>(topo.pod_up(ps).value)],
            out.port_island[static_cast<std::size_t>(topo.pod_down(pd).value)],
            isl};
        for (int k = 0; k + 1 < 4; ++k)
          if (seq[k] != seq[k + 1]) edges.insert({seq[k], seq[k + 1]});
      }
    }
  }
  out.crossing_edges = static_cast<int>(edges.size());

  // 7. Weakly-connected components over the crossing graph; the lookahead
  //    inside a component is the minimum crossing latency (uniform
  //    link_delay here), infinity for isolated islands.
  UnionFind cf(out.num_islands);
  for (const auto& e : edges) cf.unite(e.first, e.second);
  std::vector<int> comp_id(static_cast<std::size_t>(out.num_islands), -1);
  out.component.assign(static_cast<std::size_t>(out.num_islands), 0);
  int next_comp = 0;
  for (int i = 0; i < out.num_islands; ++i) {
    const int root = cf.find(i);
    if (comp_id[static_cast<std::size_t>(root)] < 0)
      comp_id[static_cast<std::size_t>(root)] = next_comp++;
    out.component[static_cast<std::size_t>(i)] =
        comp_id[static_cast<std::size_t>(root)];
  }
  out.num_components = next_comp;
  out.component_lookahead.assign(static_cast<std::size_t>(next_comp),
                                 kTimeInfinity);
  for (const auto& e : edges) {
    const int c = out.component[static_cast<std::size_t>(e.first)];
    if (link_delay < out.component_lookahead[static_cast<std::size_t>(c)])
      out.component_lookahead[static_cast<std::size_t>(c)] = link_delay;
  }
  return out;
}

}  // namespace silo::sim
