// Max-min fair rate solver over the flow<->port sharing graph, used by the
// flow-level simulator's locality baseline (ideal per-flow TCP fairness).
//
// Two entry points:
//   - solve_touching(ports): incremental — BFS each connected component of
//     the sharing graph reachable from the given ports and waterfill it on
//     its own compact arrays before discovering the next. A flow add/remove
//     can only change rates inside its own component, so this is exact,
//     not approximate. At 32K servers and 90% locality occupancy (seed 1,
//     1 s grid) a grid solve touches ~430-660 components of at most ~190
//     flows until ~345 s; from ~415 s the graph percolates into one giant
//     component that grows to ~173K flows by 1500 s. The same path solves
//     both.
//   - solve_all(): reference — waterfill every open fabric flow at once,
//     straight off the flow table. Only SolverMode::kReference calls it.
//
// Bit-identical equivalence: the waterfill freezes flows bottleneck-first,
// always picking the *strictly* smallest per-port fair share, with ties
// broken by ascending port id. A port's fair share and residual capacity
// are arithmetic over that port's own flows only, and components share no
// port, so interleaving other components into the pop sequence (as
// solve_all does) changes neither the values nor the round a flow freezes
// in. Within a round every frozen flow subtracts the same share, so the
// order flows freeze in changes no port's capacity. Results are returned
// in ascending flow id under both entry points — the caller's apply order,
// and the foundation of SolverMode::kReference equivalence.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "flowsim/flow_table.h"
#include "topology/topology.h"

namespace silo::flowsim {

class MaxMinSolver {
 public:
  MaxMinSolver(const topology::Topology& topo, const FlowTable& table);

  /// Re-solve the component(s) of the sharing graph containing `ports`
  /// (the path ports of just-added or just-removed flows; removed flows
  /// must already be unlinked). Returns (flow, rate_bps) sorted by flow
  /// id, covering every flow in the touched components — including flows
  /// whose rate comes out unchanged; the caller's apply gate skips those.
  const std::vector<std::pair<int, double>>& solve_touching(
      const std::vector<int>& ports);

  /// Reference: solve every open fabric flow from scratch.
  const std::vector<std::pair<int, double>>& solve_all();

  std::int64_t waterfill_rounds() const { return rounds_; }
  std::int64_t solved_flows() const { return solved_flows_; }

 private:
  /// Heap key of the component waterfill: fair share, then global port id
  /// (the tie-break), carrying the component-local port id.
  struct PortKey {
    double share;
    std::int32_t port, local;
  };

  void discover_component(int seed_port);
  void fill_component();
  void visit_flow(int f);
  void waterfill();

  const topology::Topology& topo_;
  const FlowTable& table_;

  // Epoch-stamped scratch: bumping epoch_ invalidates every mark without
  // touching the arrays, so a component re-solve costs O(component), not
  // O(cluster).
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> flow_epoch_, port_epoch_;
  /// Port list already enumerated by this solve's BFS. Without this mark
  /// a port's list is rescanned once per incident visited flow — O(k^2)
  /// per k-flow port, ruinous on saturated core ports.
  std::vector<std::uint32_t> scan_epoch_;

  // --- solve_touching: one component at a time, on compact arrays -------
  std::vector<int> port_local_;  ///< global port -> local id, when marked
  std::vector<int> bfs_stack_;
  std::vector<int> cf_;          ///< local flow -> global flow id
  std::vector<int> cf_port_off_, cf_ports_;  ///< CSR flow -> local ports
  std::vector<int> cp_;          ///< local port -> global port id
  std::vector<double> cp_cap_;   ///< residual capacity
  std::vector<int> cp_count_;    ///< unfrozen flows crossing
  std::vector<int> cp_flow_off_, cp_flows_;  ///< CSR port -> local flows
  std::vector<int> cp_fill_;     ///< CSR fill cursor per local port
  std::vector<std::uint8_t> cf_frozen_;  ///< per local flow
  std::vector<PortKey> comp_heap_;       ///< lazy, like heap_ below
  std::vector<double> rate_;     ///< flow-indexed solved rate, when marked
  std::vector<int> solved_;      ///< every flow this solve discovered

  // --- solve_all: the reference waterfill over the flow table -----------
  std::vector<double> port_cap_;   ///< residual capacity, valid when marked
  std::vector<int> port_count_;    ///< unfrozen flows crossing, when marked
  std::vector<int> comp_flows_, comp_ports_;  ///< discovery order
  std::vector<int> freeze_;
  std::vector<std::uint32_t> frozen_epoch_;
  /// Lazy min-heap of (fair share, port id) candidates. Shares only rise
  /// as rounds release capacity, so a stored key is never above the true
  /// share — popping a key that still matches is popping the true minimum.
  std::vector<std::pair<double, int>> heap_;

  std::vector<std::pair<int, double>> result_;
  std::int64_t rounds_ = 0, solved_flows_ = 0;
};

}  // namespace silo::flowsim
