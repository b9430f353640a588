#include "flowsim/maxmin.h"

#include <algorithm>

namespace silo::flowsim {

MaxMinSolver::MaxMinSolver(const topology::Topology& topo,
                           const FlowTable& table)
    : topo_(topo), table_(table) {
  port_epoch_.assign(static_cast<std::size_t>(topo.num_ports()), 0);
  scan_epoch_.assign(static_cast<std::size_t>(topo.num_ports()), 0);
  port_local_.assign(static_cast<std::size_t>(topo.num_ports()), 0);
  port_cap_.assign(static_cast<std::size_t>(topo.num_ports()), 0.0);
  port_count_.assign(static_cast<std::size_t>(topo.num_ports()), 0);
}

const std::vector<std::pair<int, double>>& MaxMinSolver::solve_touching(
    const std::vector<int>& ports) {
  ++epoch_;
  const auto n_slots = static_cast<std::size_t>(table_.size());
  flow_epoch_.resize(n_slots, 0);
  rate_.resize(n_slots);
  solved_.clear();
  // Each seed port not yet reached names a new component: discover it,
  // waterfill it, move on. Components share no port, so solving them one
  // by one pops each component's keys in the order the interleaved global
  // heap would.
  for (int p : ports) {
    if (scan_epoch_[static_cast<std::size_t>(p)] == epoch_) continue;
    discover_component(p);
    if (!cf_.empty()) fill_component();
  }
  // Emit in ascending flow id. A grid solve discovers a large share of the
  // table, so one pass over the epoch marks is cheapest; an event-driven
  // solve discovers a few dozen flows of a table thousands of slots long,
  // where sorting the discovered ids costs less than the pass.
  result_.clear();
  if (solved_.size() * 32 < n_slots) {
    std::sort(solved_.begin(), solved_.end());
    for (int f : solved_)
      result_.emplace_back(f, rate_[static_cast<std::size_t>(f)]);
  } else {
    for (std::size_t f = 0; f < n_slots; ++f)
      if (flow_epoch_[f] == epoch_)
        result_.emplace_back(static_cast<int>(f), rate_[f]);
  }
  return result_;
}

void MaxMinSolver::discover_component(int seed_port) {
  cf_.clear();
  cf_ports_.clear();
  cf_port_off_.assign(1, 0);
  cp_.clear();
  cp_cap_.clear();
  cp_count_.clear();
  // Seed the walk with every open flow crossing the seed port and expand
  // across shared ports until the component closes. Each port's list is
  // enumerated at most once (scan_epoch_) — membership is static during a
  // solve, so one scan discovers everything. Each flow's SimFlow is read
  // once, here: its ports become component-local ids and per-port counts.
  auto push_port_flows = [&](int p) {
    const auto si = static_cast<std::size_t>(p);
    if (scan_epoch_[si] == epoch_) return;
    scan_epoch_[si] = epoch_;
    for (int f : table_.flows_on_port(p)) {
      const auto fi = static_cast<std::size_t>(f);
      if (flow_epoch_[fi] != epoch_) {
        flow_epoch_[fi] = epoch_;
        bfs_stack_.push_back(f);
      }
    }
  };
  push_port_flows(seed_port);
  while (!bfs_stack_.empty()) {
    const int f = bfs_stack_.back();
    bfs_stack_.pop_back();
    cf_.push_back(f);
    const SimFlow& fl = table_.flow(f);
    for (int i = 0; i < fl.n_ports; ++i) {
      const int p = fl.ports[static_cast<std::size_t>(i)];
      const auto pi = static_cast<std::size_t>(p);
      if (port_epoch_[pi] != epoch_) {
        port_epoch_[pi] = epoch_;
        port_local_[pi] = static_cast<int>(cp_.size());
        cp_.push_back(p);
        cp_cap_.push_back(topo_.port({p}).rate.bps());
        cp_count_.push_back(0);
      }
      const int q = port_local_[pi];
      ++cp_count_[static_cast<std::size_t>(q)];
      cf_ports_.push_back(q);
      push_port_flows(p);
    }
    cf_port_off_.push_back(static_cast<int>(cf_ports_.size()));
  }
}

void MaxMinSolver::fill_component() {
  const std::size_t nf = cf_.size(), np = cp_.size();
  solved_flows_ += static_cast<std::int64_t>(nf);
  solved_.insert(solved_.end(), cf_.begin(), cf_.end());

  // CSR port -> local flows, sized by the counts the walk took. A port's
  // flow order is irrelevant: every flow a round freezes subtracts the
  // same share.
  cp_flow_off_.assign(np + 1, 0);
  for (std::size_t q = 0; q < np; ++q)
    cp_flow_off_[q + 1] = cp_flow_off_[q] + cp_count_[q];
  cp_flows_.resize(static_cast<std::size_t>(cp_flow_off_[np]));
  cp_fill_.assign(cp_flow_off_.begin(), cp_flow_off_.end() - 1);
  for (std::size_t i = 0; i < nf; ++i) {
    for (int k = cf_port_off_[i]; k < cf_port_off_[i + 1]; ++k) {
      int& at = cp_fill_[static_cast<std::size_t>(
          cf_ports_[static_cast<std::size_t>(k)])];
      cp_flows_[static_cast<std::size_t>(at++)] = static_cast<int>(i);
    }
  }

  // The same lazy-heap waterfill as waterfill(), keyed (share, global port
  // id) so ties break exactly as there.
  const auto later = [](const PortKey& a, const PortKey& b) {
    return a.share != b.share ? a.share > b.share : a.port > b.port;
  };
  comp_heap_.clear();
  for (std::size_t q = 0; q < np; ++q)
    comp_heap_.push_back({cp_cap_[q] / cp_count_[q], cp_[q],
                          static_cast<std::int32_t>(q)});
  std::make_heap(comp_heap_.begin(), comp_heap_.end(), later);
  cf_frozen_.assign(nf, 0);
  while (!comp_heap_.empty()) {
    std::pop_heap(comp_heap_.begin(), comp_heap_.end(), later);
    const PortKey key = comp_heap_.back();
    comp_heap_.pop_back();
    const auto q = static_cast<std::size_t>(key.local);
    if (cp_count_[q] == 0) continue;  // fully frozen since the push
    const double share = cp_cap_[q] / cp_count_[q];
    if (share != key.share) {  // stale-low key: refresh and retry
      comp_heap_.push_back({share, key.port, key.local});
      std::push_heap(comp_heap_.begin(), comp_heap_.end(), later);
      continue;
    }
    ++rounds_;
    for (int j = cp_flow_off_[q]; j < cp_flow_off_[q + 1]; ++j) {
      const auto i =
          static_cast<std::size_t>(cp_flows_[static_cast<std::size_t>(j)]);
      if (cf_frozen_[i]) continue;
      cf_frozen_[i] = 1;
      rate_[static_cast<std::size_t>(cf_[i])] = share;
      for (int k = cf_port_off_[i]; k < cf_port_off_[i + 1]; ++k) {
        const auto r =
            static_cast<std::size_t>(cf_ports_[static_cast<std::size_t>(k)]);
        cp_cap_[r] -= share;
        if (cp_cap_[r] < 0.0) cp_cap_[r] = 0.0;
        --cp_count_[r];
      }
    }
  }
}

// --- reference: solve_all() over the flow table --------------------------

void MaxMinSolver::visit_flow(int f) {
  comp_flows_.push_back(f);
  const SimFlow& fl = table_.flow(f);
  for (int i = 0; i < fl.n_ports; ++i) {
    const int p = fl.ports[static_cast<std::size_t>(i)];
    const auto pi = static_cast<std::size_t>(p);
    if (port_epoch_[pi] != epoch_) {
      port_epoch_[pi] = epoch_;
      port_cap_[pi] = topo_.port({p}).rate.bps();
      port_count_[pi] = 0;
      comp_ports_.push_back(p);
    }
    ++port_count_[pi];
  }
}

const std::vector<std::pair<int, double>>& MaxMinSolver::solve_all() {
  ++epoch_;
  comp_flows_.clear();
  comp_ports_.clear();
  const int n = table_.size();
  for (int f = 0; f < n; ++f) {
    const SimFlow& fl = table_.flow(f);
    if (fl.open && fl.n_ports > 0) visit_flow(f);
  }
  waterfill();
  return result_;
}

void MaxMinSolver::waterfill() {
  // comp_flows_/comp_ports_ stay in discovery order: the heap's (share,
  // port id) comparator is a total order, so the pop sequence — and with
  // it every freeze — is independent of insertion order, and the final
  // result sort restores the canonical ascending-flow-id apply order.
  solved_flows_ += static_cast<std::int64_t>(comp_flows_.size());
  result_.clear();
  frozen_epoch_.resize(static_cast<std::size_t>(table_.size()), 0);

  // Bottleneck selection via a lazy min-heap instead of a per-round port
  // scan (dense components made that O(rounds x ports)). Fair shares only
  // rise as rounds release capacity, so a stored key is never above the
  // port's true share: a popped key that still matches the live value is
  // the true strict minimum, with ties to the lowest port id via the pair
  // ordering — the same selection, and the same freeze arithmetic in the
  // same ascending-flow-id order, as the scan it replaces.
  const auto later = [](const std::pair<double, int>& a,
                        const std::pair<double, int>& b) { return a > b; };
  heap_.clear();
  for (int p : comp_ports_) {
    const auto pi = static_cast<std::size_t>(p);
    if (port_count_[pi] > 0)
      heap_.emplace_back(port_cap_[pi] / port_count_[pi], p);
  }
  std::make_heap(heap_.begin(), heap_.end(), later);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [key, p] = heap_.back();
    heap_.pop_back();
    const auto pi = static_cast<std::size_t>(p);
    if (port_count_[pi] == 0) continue;  // fully frozen since the push
    const double share = port_cap_[pi] / port_count_[pi];
    if (share != key) {  // stale-low key: refresh and retry
      heap_.emplace_back(share, p);
      std::push_heap(heap_.begin(), heap_.end(), later);
      continue;
    }
    ++rounds_;
    // Freeze every unfrozen flow crossing the tightest port at its fair
    // share and release that bandwidth from the flow's other ports.
    freeze_.clear();
    for (int f : table_.flows_on_port(p))
      if (frozen_epoch_[static_cast<std::size_t>(f)] != epoch_)
        freeze_.push_back(f);
    std::sort(freeze_.begin(), freeze_.end());
    for (int f : freeze_) {
      frozen_epoch_[static_cast<std::size_t>(f)] = epoch_;
      result_.emplace_back(f, share);
      const SimFlow& fl = table_.flow(f);
      for (int i = 0; i < fl.n_ports; ++i) {
        const auto qi =
            static_cast<std::size_t>(fl.ports[static_cast<std::size_t>(i)]);
        port_cap_[qi] -= share;
        if (port_cap_[qi] < 0.0) port_cap_[qi] = 0.0;
        --port_count_[qi];
      }
    }
  }
  std::sort(result_.begin(), result_.end());
}

}  // namespace silo::flowsim
