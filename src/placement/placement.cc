#include "placement/placement.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace silo::placement {
namespace {

// Highest reserved rate a port admits. The NIC pre-filter compares
// against the same value, which is what makes it exact.
double rate_limit(const topology::Port& p) {
  return p.rate.bps() * (1.0 + PlacementEngine::kRateEps);
}

// Whether a contribution reserves capacity. A dead port refuses those;
// zero-reservation probes (best-effort tenants) pass so degraded
// placement stays feasible.
bool reserves(const PortContribution& c) {
  return c.rate_bps > 0 || c.burst_bytes > 0;
}

enum class PortKind {
  kServerUp,
  kServerDown,
  kRackUp,
  kRackDown,
  kPodUp,
  kPodDown
};

}  // namespace

PlacementEngine::PlacementEngine(const topology::Topology& topo, Policy policy,
                                 TimeNs nic_delay_allowance,
                                 bool hose_tightening, AdmissionMode mode)
    : topo_(topo),
      policy_(policy),
      nic_delay_allowance_(nic_delay_allowance),
      hose_tightening_(hose_tightening),
      mode_(mode) {
  free_slots_.assign(topo.num_servers(), topo.config().vm_slots_per_server);
  free_slots_rack_.assign(
      topo.num_racks(),
      topo.config().vm_slots_per_server * topo.config().servers_per_rack);
  free_slots_pod_.assign(topo.num_pods(), topo.config().vm_slots_per_server *
                                              topo.config().servers_per_rack *
                                              topo.config().racks_per_pod);
  rack_max_free_.assign(topo.num_racks(), topo.config().vm_slots_per_server);
  free_slots_total_ = topo.total_vm_slots();
  port_load_.resize(topo.num_ports());
  server_failed_.assign(static_cast<std::size_t>(topo.num_servers()), 0);
  quarantined_slots_.assign(static_cast<std::size_t>(topo.num_servers()), 0);
  port_failed_.assign(static_cast<std::size_t>(topo.num_ports()), 0);
  nic_base_ = topo.server_up(0).value;
  tor_base_ = topo.server_down(0).value;
  const auto& access = topo.port(topo.server_up(0));
  access_rate_limit_ = rate_limit(access);
  access_rate_ = access.rate;
  access_queue_capacity_ = access.queue_capacity;

  // Shard layout: racks own their servers' ports, pods their racks' ports,
  // one core shard owns the pod ports. Every port has exactly one owner.
  const std::size_t num_shards =
      static_cast<std::size_t>(topo.num_racks() + topo.num_pods() + 1);
  shard_of_port_.assign(static_cast<std::size_t>(topo.num_ports()), -1);
  shard_ports_.resize(num_shards);
  auto own = [this](int shard, topology::PortId p) {
    shard_of_port_[static_cast<std::size_t>(p.value)] = shard;
    shard_ports_[static_cast<std::size_t>(shard)].push_back(p.value);
  };
  for (int s = 0; s < topo.num_servers(); ++s) {
    own(topo.rack_of_server(s), topo.server_up(s));
    own(topo.rack_of_server(s), topo.server_down(s));
  }
  for (int r = 0; r < topo.num_racks(); ++r) {
    own(topo.num_racks() + topo.pod_of_rack(r), topo.rack_up(r));
    own(topo.num_racks() + topo.pod_of_rack(r), topo.rack_down(r));
  }
  const int core_shard = topo.num_racks() + topo.num_pods();
  for (int p = 0; p < topo.num_pods(); ++p) {
    own(core_shard, topo.pod_up(p));
    own(core_shard, topo.pod_down(p));
  }
  shard_dirty_.assign(num_shards, 0);
  shard_max_resv_.assign(num_shards, 0.0);
  shard_max_qfrac_.assign(num_shards, 0.0);
  tenants_by_server_.resize(static_cast<std::size_t>(topo.num_servers()));
  tenants_by_port_.resize(static_cast<std::size_t>(topo.num_ports()));
  const auto rows =
      static_cast<std::size_t>(topo.config().vm_slots_per_server) + 1;
  nic_row_.resize(rows);
  nic_min_rate_.resize(rows);
  for (auto& row : tor_rows_) row.resize(rows);
}

void PlacementEngine::recompute_rack_max_free(int rack) {
  const int first = topo_.first_server_of_rack(rack);
  int best = 0;
  for (int i = 0; i < topo_.config().servers_per_rack; ++i)
    best = std::max(best, free_slots_[first + i]);
  rack_max_free_[static_cast<std::size_t>(rack)] = best;
}

void PlacementEngine::adjust_free_slots(int server, int delta) {
  if (delta == 0) return;
  const int rack = topo_.rack_of_server(server);
  const int old = free_slots_[server];
  free_slots_[server] = old + delta;
  free_slots_rack_[rack] += delta;
  free_slots_pod_[topo_.pod_of_server(server)] += delta;
  free_slots_total_ += delta;
  auto& rmf = rack_max_free_[static_cast<std::size_t>(rack)];
  if (delta > 0) {
    rmf = std::max(rmf, free_slots_[server]);
  } else if (old == rmf) {
    recompute_rack_max_free(rack);  // the rack max may have shrunk
  }
}

void PlacementEngine::touch_port(int port) {
  shard_dirty_[static_cast<std::size_t>(
      shard_of_port_[static_cast<std::size_t>(port)])] = 1;
}

void PlacementEngine::fail_server(int server) {
  if (server_failed_[static_cast<std::size_t>(server)]) return;
  server_failed_[static_cast<std::size_t>(server)] = 1;
  const int f = free_slots_[server];
  quarantined_slots_[static_cast<std::size_t>(server)] = f;
  adjust_free_slots(server, -f);
}

void PlacementEngine::restore_server(int server) {
  if (!server_failed_[static_cast<std::size_t>(server)]) return;
  server_failed_[static_cast<std::size_t>(server)] = 0;
  const int f = quarantined_slots_[static_cast<std::size_t>(server)];
  quarantined_slots_[static_cast<std::size_t>(server)] = 0;
  adjust_free_slots(server, f);
}

void PlacementEngine::fail_port(topology::PortId p) {
  port_failed_[static_cast<std::size_t>(p.value)] = 1;
}

void PlacementEngine::restore_port(topology::PortId p) {
  port_failed_[static_cast<std::size_t>(p.value)] = 0;
}

std::vector<TenantId> PlacementEngine::tenants_on_server(int server) const {
  if (mode_ == AdmissionMode::kIncremental)
    return tenants_by_server_[static_cast<std::size_t>(server)];  // sorted
  std::vector<TenantId> out;
  for (const auto& [id, rec] : tenants_) {
    for (const auto& [s, count] : rec.slot_usage) {
      if (s == server) {
        out.push_back(id);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool PlacementEngine::placement_uses_port(const TenantRecord& rec,
                                          int port) const {
  if (rec.slot_usage.size() < 2) return false;  // colocated: never on fabric
  int first_rack = -1, first_pod = -1;
  bool multi_rack = false, multi_pod = false;
  for (const auto& [s, count] : rec.slot_usage) {
    const int r = topo_.rack_of_server(s);
    const int p = topo_.pod_of_rack(r);
    if (first_rack < 0) first_rack = r;
    if (first_pod < 0) first_pod = p;
    multi_rack = multi_rack || r != first_rack;
    multi_pod = multi_pod || p != first_pod;
  }
  for (const auto& [s, count] : rec.slot_usage) {
    if (topo_.server_up(s).value == port || topo_.server_down(s).value == port)
      return true;
    const int r = topo_.rack_of_server(s);
    if (multi_rack &&
        (topo_.rack_up(r).value == port || topo_.rack_down(r).value == port))
      return true;
    const int p = topo_.pod_of_server(s);
    if (multi_pod &&
        (topo_.pod_up(p).value == port || topo_.pod_down(p).value == port))
      return true;
  }
  return false;
}

std::vector<TenantId> PlacementEngine::tenants_using_port(
    topology::PortId p) const {
  if (mode_ == AdmissionMode::kIncremental)
    return tenants_by_port_[static_cast<std::size_t>(p.value)];  // sorted
  std::vector<TenantId> out;
  for (const auto& [id, rec] : tenants_) {
    if (placement_uses_port(rec, p.value)) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int> PlacementEngine::used_ports_for(const CountMap& counts) const {
  // Enumerates exactly the ports placement_uses_port() tests positive for:
  // colocated placements never touch the fabric; rack/pod ports only count
  // once the placement actually spans racks/pods.
  std::vector<int> out;
  if (counts.size() < 2) return out;
  int first_rack = -1, first_pod = -1;
  bool multi_rack = false, multi_pod = false;
  for (const auto& [s, count] : counts) {
    const int r = topo_.rack_of_server(s);
    const int p = topo_.pod_of_rack(r);
    if (first_rack < 0) first_rack = r;
    if (first_pod < 0) first_pod = p;
    multi_rack = multi_rack || r != first_rack;
    multi_pod = multi_pod || p != first_pod;
  }
  for (const auto& [s, count] : counts) {
    out.push_back(topo_.server_up(s).value);
    out.push_back(topo_.server_down(s).value);
    if (multi_rack) {
      const int r = topo_.rack_of_server(s);
      out.push_back(topo_.rack_up(r).value);
      out.push_back(topo_.rack_down(r).value);
    }
    if (multi_pod) {
      const int p = topo_.pod_of_server(s);
      out.push_back(topo_.pod_up(p).value);
      out.push_back(topo_.pod_down(p).value);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TimeNs PlacementEngine::scope_path_capacity(Scope scope) const {
  const TimeNs qs = topo_.port(topo_.server_up(0)).queue_capacity;
  const TimeNs qr = topo_.num_racks() > 0
                        ? topo_.port(topo_.rack_up(0)).queue_capacity
                        : TimeNs{0};
  const TimeNs qp = topo_.port(topo_.pod_up(0)).queue_capacity;
  // Only switch queues count: the source NIC is a pacing conformance
  // point (void packets keep the wire curve-compliant).
  switch (scope) {
    case Scope::kServer:
      return TimeNs{0};
    case Scope::kRack:  // ToR egress toward the destination server
      return nic_delay_allowance_ + qs;
    case Scope::kPod:
      return nic_delay_allowance_ + qs + 2 * qr;
    case Scope::kDatacenter:
      return nic_delay_allowance_ + qs + 2 * qr + 2 * qp;
  }
  return TimeNs{0};
}

Scope PlacementEngine::widest_scope_for_delay(const SiloGuarantee& g) const {
  if (policy_ != Policy::kSilo || !g.wants_delay_guarantee())
    return Scope::kDatacenter;
  for (Scope s : {Scope::kDatacenter, Scope::kPod, Scope::kRack}) {
    if (scope_path_capacity(s) <= g.delay) return s;
  }
  return Scope::kServer;
}

TimeNs PlacementEngine::upstream_capacity(int kind_int, Scope scope) const {
  const auto kind = static_cast<PortKind>(kind_int);
  const TimeNs qr = topo_.port(topo_.rack_up(0)).queue_capacity;
  const TimeNs qp = topo_.port(topo_.pod_up(0)).queue_capacity;
  // Queueing the tenant's traffic may already have absorbed before it
  // reaches a port of this kind (Kurose propagation). The NIC egress is a
  // conformance point, so up-traffic first queues at the ToR.
  switch (kind) {
    case PortKind::kServerUp:
    case PortKind::kRackUp:
      return TimeNs{0};
    case PortKind::kPodUp:
      return qr;  // crossed the ToR uplink queue
    case PortKind::kPodDown:
      return qr + qp;
    case PortKind::kRackDown:
      return scope == Scope::kDatacenter ? qr + 2 * qp : qr;
    case PortKind::kServerDown:
      switch (scope) {
        case Scope::kRack:
          return TimeNs{0};  // straight from conformant source NICs
        case Scope::kPod:
          return 2 * qr;
        default:
          return 2 * qr + 2 * qp;
      }
  }
  return TimeNs{0};
}

PortContribution PlacementEngine::cut_contribution(const TenantRequest& req,
                                                   int m_side,
                                                   TimeNs upstream,
                                                   RateBps line_cap) const {
  PortContribution c;
  const int n = req.num_vms;
  if (m_side <= 0 || m_side >= n) return c;  // nothing crosses this cut
  const auto& g = req.guarantee;
  const double hose_rate =
      static_cast<double>(hose_tightening_ ? std::min(m_side, n - m_side)
                                           : m_side) *
      g.bandwidth.bps();

  if (policy_ == Policy::kOktopus) {
    c.rate_bps = std::min(hose_rate, static_cast<double>(line_cap));
    c.burst_rate_bps = c.rate_bps;
    return c;
  }

  const RateBps bmax = g.burst_rate > RateBps{0} ? g.burst_rate : g.bandwidth;
  // The m source VMs occupy at least ceil(m / slots-per-server) servers,
  // so their combined wire rate cannot exceed that many access links.
  const int min_servers =
      (m_side + topo_.config().vm_slots_per_server - 1) /
      topo_.config().vm_slots_per_server;
  const RateBps source_cap =
      static_cast<double>(min_servers) * topo_.config().server_link_rate;

  // Closed-form equivalent of tenant_cut_curve + propagate_through_port
  // (this runs in the inner loop of admission control, so no Curve
  // allocations): the cut curve is min(mtu + brate*t, m*S + hose*t);
  // shifting it left by `upstream` (Kurose) inflates both intercepts.
  const double sustained = std::min(hose_rate, source_cap.bps());
  const double brate = std::max(
      sustained,
      std::min(static_cast<double>(m_side) * bmax.bps(), source_cap.bps()));
  const double up_ns = static_cast<double>(upstream);
  const double burst0 =
      static_cast<double>(m_side) * static_cast<double>(g.burst);
  c.rate_bps = sustained;
  c.burst_bytes = burst0 + sustained / 8e9 * up_ns;
  c.jump_bytes =
      std::min(static_cast<double>(kMtu) + brate / 8e9 * up_ns, c.burst_bytes);
  c.jump_bytes = std::max(c.jump_bytes, static_cast<double>(kMtu));
  c.burst_rate_bps = upstream == TimeNs{0} ? brate : source_cap.bps();
  (void)line_cap;
  return c;
}

bool PlacementEngine::port_admits(int port, const PortContribution& c) const {
  if (port_failed_[static_cast<std::size_t>(port)] && reserves(c)) return false;
  if (policy_ == Policy::kLocality) return true;
  const auto id = topology::PortId{port};
  const auto& p = topo_.port(id);
  const auto& load = port_load_[port];
  if (load.rate_bps() + c.rate_bps > rate_limit(p)) return false;
  // Bandwidth reservation is the whole story for Oktopus, and for the NIC
  // egress (the pacer absorbs bursts before the wire, so feasibility there
  // is purely about sustained rate).
  if (policy_ == Policy::kOktopus || topo_.is_nic_port(id)) return true;
  const TimeNs bound = load.queue_bound(p.rate, &c);
  return bound >= TimeNs{0} && bound <= p.queue_capacity;
}

bool PlacementEngine::server_ports_ok(const TenantRequest& req, int server,
                                      int m_here, Scope scope) const {
  if (policy_ == Policy::kLocality) return true;
  // Best-effort tenants reserve nothing (slots-only admission, matching
  // tenant_contributions): probing ports with their nominal guarantee
  // would wrongly block the degraded fallback on failed or loaded ports.
  if (req.tenant_class == TenantClass::kBestEffort) return true;
  const int n = req.num_vms;
  if (m_here >= n) return true;  // all VMs colocated: no fabric traffic
  const RateBps link = topo_.config().server_link_rate;
  const auto up = cut_contribution(
      req, m_here, upstream_capacity(static_cast<int>(PortKind::kServerUp), scope),
      link);
  if (!port_admits(topo_.server_up(server).value, up)) return false;
  const auto down = cut_contribution(
      req, n - m_here,
      upstream_capacity(static_cast<int>(PortKind::kServerDown), scope), link);
  return port_admits(topo_.server_down(server).value, down);
}

int PlacementEngine::rescan_vms_on(const TenantRequest& req, int server,
                                   int cap, Scope scope) const {
  for (int m = cap; m >= 1; --m)
    if (server_ports_ok(req, server, m, scope)) return m;
  return 0;
}

void PlacementEngine::fill_nic_row(const TenantRequest& req, int cap) {
  // upstream_capacity(kServerUp, scope) is 0 at every scope: the NIC
  // egress is the pacer's conformance point.
  const RateBps link = topo_.config().server_link_rate;
  for (int m = nic_filled_ + 1; m <= cap; ++m) {
    const auto i = static_cast<std::size_t>(m);
    nic_row_[i] = cut_contribution(req, m, TimeNs{0}, link);
    nic_min_rate_[i] = m == 1 ? nic_row_[i].rate_bps
                              : std::min(nic_min_rate_[i - 1],
                                         nic_row_[i].rate_bps);
  }
  nic_filled_ = cap;
}

const PortContribution& PlacementEngine::tor_entry(const TenantRequest& req,
                                                   Scope scope, int m) {
  auto& e = tor_rows_[static_cast<std::size_t>(scope)]
                     [static_cast<std::size_t>(m)];
  if (e.stamp != probe_stamp_) {
    e.c = cut_contribution(
        req, req.num_vms - m,
        upstream_capacity(static_cast<int>(PortKind::kServerDown), scope),
        topo_.config().server_link_rate);
    e.stamp = probe_stamp_;
  }
  return e.c;
}

int PlacementEngine::vms_on(const TenantRequest& req, int server, int cap,
                            Scope scope) {
  // server_ports_ok passes every probe without touching a port for these.
  if (policy_ == Policy::kLocality ||
      req.tenant_class == TenantClass::kBestEffort || cap >= req.num_vms)
    return cap;
  if (cap > nic_filled_) fill_nic_row(req, cap);
  const auto up = static_cast<std::size_t>(nic_base_ + server);
  const auto down = static_cast<std::size_t>(tor_base_ + server);
  const PortLoad& up_load = port_load_[up];
  // Exact NIC pre-filter: the cheapest probe's rate already overflows the
  // NIC, and fl(a + x) is monotone in x, so port_admits' rate check fails
  // for every m <= cap.
  if (up_load.rate_bps() + nic_min_rate_[static_cast<std::size_t>(cap)] >
      access_rate_limit_)
    return 0;
  // port_admits for both access ports, inlined: a failed port refuses any
  // reservation, the NIC checks rate only (the pacer absorbs bursts before
  // the wire), and the ToR port also checks the queue bound under Silo.
  const PortLoad& down_load = port_load_[down];
  const bool up_failed = port_failed_[up] != 0;
  const bool down_failed = port_failed_[down] != 0;
  for (int m = cap; m >= 1; --m) {
    const PortContribution& nic = nic_row_[static_cast<std::size_t>(m)];
    if ((up_failed && reserves(nic)) ||
        up_load.rate_bps() + nic.rate_bps > access_rate_limit_)
      continue;
    const PortContribution& tor = tor_entry(req, scope, m);
    if ((down_failed && reserves(tor)) ||
        down_load.rate_bps() + tor.rate_bps > access_rate_limit_)
      continue;
    if (policy_ == Policy::kOktopus) return m;
    const TimeNs bound = down_load.queue_bound(access_rate_, &tor);
    if (bound >= TimeNs{0} && bound <= access_queue_capacity_) return m;
  }
  return 0;
}

std::optional<PlacementEngine::CountMap> PlacementEngine::pack_servers(
    const TenantRequest& req, Scope scope, int first_rack, int end_rack,
    int free_ahead) {
  CountMap counts;
  int remaining = req.num_vms;
  // Fault domains (§4.2.3): capping each server at ceil(n/d) VMs forces
  // the tenant across at least d servers.
  const int domains = std::max(1, req.min_fault_domains);
  const int domain_cap = (req.num_vms + domains - 1) / domains;
  // The oracle walks every server, so the storms catch a wrong cutoff.
  const bool cutoff = mode_ == AdmissionMode::kIncremental;
  const int per_rack = topo_.config().servers_per_rack;
  for (int r = first_rack; r < end_rack; ++r) {
    if (free_slots_rack_[static_cast<std::size_t>(r)] == 0) continue;
    const int first = topo_.first_server_of_rack(r);
    for (int s = first; s < first + per_rack; ++s) {
      const int slots = free_slots_[static_cast<std::size_t>(s)];
      if (slots == 0) continue;
      // free_ahead counts this server's free slots and those of every
      // server after it. No server takes more than its free slots, so once
      // the VMs still to place exceed it, the rest of the walk must fail.
      if (cutoff && remaining > free_ahead) return std::nullopt;
      free_ahead -= slots;
      const int cap = std::min({slots, remaining, domain_cap});
      const int m = cutoff ? vms_on(req, s, cap, scope)
                           : rescan_vms_on(req, s, cap, scope);
      if (m == 0) continue;
      counts.emplace_back(s, m);
      remaining -= m;
      if (remaining == 0) return counts;
    }
  }
#ifdef SILO_AUDIT
  // A walk that reached the end of its range has passed every free slot
  // the scope's aggregate counted, no more and no fewer.
  if (free_ahead != 0)
    throw std::logic_error("PlacementEngine: walk and free-slot total differ");
#endif
  return std::nullopt;
}

std::vector<std::pair<int, PortContribution>>
PlacementEngine::tenant_contributions(const TenantRequest& req,
                                      const CountMap& counts,
                                      Scope scope) const {
  std::vector<std::pair<int, PortContribution>> out;
  if (policy_ == Policy::kLocality ||
      req.tenant_class == TenantClass::kBestEffort)
    return out;  // best-effort traffic rides low priority: no reservation

  const int n = req.num_vms;
  const RateBps link = topo_.config().server_link_rate;
  auto push = [&](topology::PortId id, int m_side, PortKind kind) {
    const auto c = cut_contribution(
        req, m_side, upstream_capacity(static_cast<int>(kind), scope), link);
    if (reserves(c)) out.emplace_back(id.value, c);
  };

  // VMs per rack or per pod, ascending by index (the order the ports are
  // listed in). Packing lists servers in id order, so each count appends
  // or bumps the last entry.
  const auto tally = [&counts](auto key_of) {
    std::vector<std::pair<int, int>> v;
    v.reserve(counts.size());
    for (const auto& [server, m] : counts) {
      const int key = key_of(server);
#ifdef SILO_AUDIT
      if (!v.empty() && v.back().first > key)
        throw std::logic_error("PlacementEngine: counts not in server order");
#endif
      if (!v.empty() && v.back().first == key)
        v.back().second += m;
      else
        v.emplace_back(key, m);
    }
    return v;
  };
  for (const auto& [server, m] : counts) {
    push(topo_.server_up(server), m, PortKind::kServerUp);
    push(topo_.server_down(server), n - m, PortKind::kServerDown);
  }
  if (scope >= Scope::kPod) {
    const auto per_rack =
        tally([this](int server) { return topo_.rack_of_server(server); });
    for (const auto& [rack, m] : per_rack) {
      push(topo_.rack_up(rack), m, PortKind::kRackUp);
      push(topo_.rack_down(rack), n - m, PortKind::kRackDown);
    }
  }
  if (scope >= Scope::kDatacenter && topo_.num_pods() > 1) {
    const auto per_pod =
        tally([this](int server) { return topo_.pod_of_server(server); });
    for (const auto& [pod, m] : per_pod) {
      push(topo_.pod_up(pod), m, PortKind::kPodUp);
      push(topo_.pod_down(pod), n - m, PortKind::kPodDown);
    }
  }
  return out;
}

bool PlacementEngine::validate_candidate(const TenantRequest& req,
                                         const CountMap& counts,
                                         Scope scope) const {
  if (policy_ == Policy::kLocality) return true;
  for (const auto& [port, c] : tenant_contributions(req, counts, scope)) {
    if (!port_admits(port, c)) return false;
  }
  return true;
}

std::optional<PlacementEngine::CountMap> PlacementEngine::try_scope(
    const TenantRequest& req, Scope scope, int anchor) {
  if (scope == Scope::kServer) {
    if (req.min_fault_domains > 1 || free_slots_[anchor] < req.num_vms)
      return std::nullopt;
    return CountMap{{anchor, req.num_vms}};
  }
  // The scope's racks and their free slots: the anchor rack, the anchor
  // pod's racks, or every rack.
  int first_rack = 0, racks = topo_.num_racks(), slots = free_slots_total_;
  if (scope == Scope::kRack) {
    first_rack = anchor;
    racks = 1;
    slots = free_slots_rack_[static_cast<std::size_t>(anchor)];
  } else if (scope == Scope::kPod) {
    first_rack = topo_.first_rack_of_pod(anchor);
    racks = topo_.config().racks_per_pod;
    slots = free_slots_pod_[static_cast<std::size_t>(anchor)];
  }
  auto counts = pack_servers(req, scope, first_rack, first_rack + racks, slots);
  if (!counts || !validate_candidate(req, *counts, scope)) return std::nullopt;
  return counts;
}

std::optional<AdmittedTenant> PlacementEngine::place(
    const TenantRequest& request) {
  if (request.num_vms < 1) return std::nullopt;
  if (request.num_vms > free_slots_total_) return std::nullopt;
  if (policy_ == Policy::kSilo &&
      request.tenant_class != TenantClass::kBestEffort &&
      request.guarantee.burst_rate > RateBps{0} &&
      request.guarantee.burst_rate < request.guarantee.bandwidth)
    return std::nullopt;  // malformed guarantee

  const Scope widest = widest_scope_for_delay(request.guarantee);
  ++probe_stamp_;  // a new request: every probe-table entry is stale
  nic_filled_ = 0;

  for (int sc = static_cast<int>(Scope::kServer);
       sc <= static_cast<int>(widest); ++sc) {
    const auto scope = static_cast<Scope>(sc);
    auto attempt = [&](int anchor) -> std::optional<AdmittedTenant> {
      auto counts = try_scope(request, scope, anchor);
      if (!counts) return std::nullopt;
      TenantRecord rec;
      rec.request = request;
      rec.slot_usage = *counts;
      rec.contributions = tenant_contributions(request, *counts, scope);
      AdmittedTenant admitted;
      commit(std::move(rec), admitted);
      return admitted;
    };
    if (scope == Scope::kServer) {
      // First-fit over servers, but rack by rack: the per-rack max-free
      // cache skips a whole rack (40 slot probes) when no server in it
      // could colocate the tenant. Iteration order — and therefore the
      // placement decision — is identical to the flat per-server loop.
      for (int r = 0; r < topo_.num_racks(); ++r) {
        if (rack_max_free_[static_cast<std::size_t>(r)] < request.num_vms)
          continue;
        const int first = topo_.first_server_of_rack(r);
        for (int i = 0; i < topo_.config().servers_per_rack; ++i) {
          const int s = first + i;
          if (free_slots_[s] < request.num_vms) continue;
          if (auto admitted = attempt(s)) return admitted;
        }
      }
      continue;
    }
    int anchors = 1;
    switch (scope) {
      case Scope::kServer:
        break;  // handled above
      case Scope::kRack:
        anchors = topo_.num_racks();
        break;
      case Scope::kPod:
        anchors = topo_.num_pods();
        break;
      case Scope::kDatacenter:
        anchors = 1;
        break;
    }
    for (int a = 0; a < anchors; ++a) {
      // Cheap slot-count skips keep first-fit fast in large datacenters.
      if (scope == Scope::kRack && free_slots_rack_[a] < request.num_vms)
        continue;
      if (scope == Scope::kPod && free_slots_pod_[a] < request.num_vms)
        continue;
      if (auto admitted = attempt(a)) return admitted;
    }
  }
  return std::nullopt;
}

void PlacementEngine::commit(TenantRecord&& rec, AdmittedTenant& out) {
  out.id = next_id_++;
  for (const auto& [server, count] : rec.slot_usage) {
    adjust_free_slots(server, -count);
    for (int i = 0; i < count; ++i) out.vm_to_server.push_back(server);
  }
  for (const auto& [port, c] : rec.contributions) {
    port_load_[port].add(c);
    touch_port(port);
  }
  rec.vm_to_server = out.vm_to_server;
  rec.used_ports = used_ports_for(rec.slot_usage);
  if (mode_ == AdmissionMode::kIncremental) {
    // Ids are monotonic, so push_back keeps every index list sorted.
    for (const auto& [server, count] : rec.slot_usage)
      tenants_by_server_[static_cast<std::size_t>(server)].push_back(out.id);
    for (int p : rec.used_ports)
      tenants_by_port_[static_cast<std::size_t>(p)].push_back(out.id);
  }
  tenants_.emplace(out.id, std::move(rec));
  if (mode_ == AdmissionMode::kFullRescan) rebuild_port_loads();
}

void PlacementEngine::remove(TenantId id) {
  auto it = tenants_.find(id);
  if (it == tenants_.end()) return;
  for (const auto& [server, count] : it->second.slot_usage) {
    if (server_failed_[static_cast<std::size_t>(server)]) {
      // Evacuating a dead server: the slots exist but are unusable until
      // the hardware comes back.
      quarantined_slots_[static_cast<std::size_t>(server)] += count;
      continue;
    }
    adjust_free_slots(server, count);
  }
  for (const auto& [port, c] : it->second.contributions) {
    port_load_[port].remove(c);
    touch_port(port);
  }
  if (mode_ == AdmissionMode::kIncremental) {
    // Index lists are sorted (monotonic ids, ascending restore).
    auto drop = [id](std::vector<TenantId>& list) {
      const auto at = std::lower_bound(list.begin(), list.end(), id);
      if (at != list.end() && *at == id) {
        list.erase(at);
        return;
      }
#ifdef SILO_AUDIT
      throw std::logic_error("PlacementEngine: tenant missing from an index");
#endif
    };
    for (const auto& [server, count] : it->second.slot_usage)
      drop(tenants_by_server_[static_cast<std::size_t>(server)]);
    for (int p : it->second.used_ports)
      drop(tenants_by_port_[static_cast<std::size_t>(p)]);
  }
  tenants_.erase(it);
  if (mode_ == AdmissionMode::kFullRescan) rebuild_port_loads();
}

EngineSnapshot PlacementEngine::snapshot() const {
  EngineSnapshot snap = snapshot_globals();
  snap.tenants.reserve(tenants_.size());
  for (const auto& [id, rec] : tenants_)  // map order: ascending id
    snap.tenants.push_back(*snapshot_tenant(id));
  return snap;
}

std::optional<EngineSnapshot::Tenant> PlacementEngine::snapshot_tenant(
    TenantId id) const {
  const auto it = tenants_.find(id);
  if (it == tenants_.end()) return std::nullopt;
  EngineSnapshot::Tenant t;
  t.id = id;
  t.request = it->second.request;
  t.vm_to_server = it->second.vm_to_server;
  t.contributions = it->second.contributions;
  return t;
}

EngineSnapshot PlacementEngine::snapshot_globals() const {
  EngineSnapshot snap;
  for (int s = 0; s < topo_.num_servers(); ++s) {
    if (!server_failed_[static_cast<std::size_t>(s)]) continue;
    snap.failed_servers.push_back(
        {s, free_slots_[static_cast<std::size_t>(s)],
         quarantined_slots_[static_cast<std::size_t>(s)]});
  }
  for (int p = 0; p < topo_.num_ports(); ++p) {
    if (port_failed_[static_cast<std::size_t>(p)]) snap.failed_ports.push_back(p);
  }
  snap.next_id = next_id_;
  return snap;
}

void PlacementEngine::restore(const EngineSnapshot& snap) {
  if (next_id_ != 0 || !tenants_.empty())
    throw std::logic_error("PlacementEngine::restore requires a fresh engine");
  for (const int p : snap.failed_ports)
    port_failed_[static_cast<std::size_t>(p)] = 1;
  for (const auto& t : snap.tenants) {  // ascending id keeps indexes sorted
    TenantRecord rec;
    rec.request = t.request;
    rec.vm_to_server = t.vm_to_server;
    rec.contributions = t.contributions;
    // commit() lays VMs out as runs of slot_usage entries, one run per
    // server, so run-length decoding vm_to_server reproduces it exactly.
    for (const int s : t.vm_to_server) {
      if (!rec.slot_usage.empty() && rec.slot_usage.back().first == s)
        ++rec.slot_usage.back().second;
      else
        rec.slot_usage.emplace_back(s, 1);
    }
    rec.used_ports = used_ports_for(rec.slot_usage);
    for (const auto& [server, count] : rec.slot_usage)
      adjust_free_slots(server, -count);
    for (const auto& [port, c] : rec.contributions) {
      port_load_[port].add(c);
      touch_port(port);
    }
    if (mode_ == AdmissionMode::kIncremental) {
      for (const auto& [server, count] : rec.slot_usage)
        tenants_by_server_[static_cast<std::size_t>(server)].push_back(t.id);
      for (const int p : rec.used_ports)
        tenants_by_port_[static_cast<std::size_t>(p)].push_back(t.id);
    }
    tenants_.emplace(t.id, std::move(rec));
  }
  next_id_ = snap.next_id;
  for (const auto& f : snap.failed_servers) {
    server_failed_[static_cast<std::size_t>(f.server)] = 1;
    // The captured free count already excludes the quarantined pool; pull
    // the aggregates down to it so a later restore_server() returns
    // exactly the quarantined slots the original engine held back.
    adjust_free_slots(f.server,
                      f.free_slots - free_slots_[static_cast<std::size_t>(f.server)]);
    quarantined_slots_[static_cast<std::size_t>(f.server)] = f.quarantined;
  }
  if (mode_ == AdmissionMode::kFullRescan) rebuild_port_loads();
}

void PlacementEngine::rebuild_port_loads() {
  // The kFullRescan baseline: forget every aggregate and re-sum all
  // admitted tenants' contributions — O(tenants x ports-per-tenant) per
  // admit/release, the cost profile the sharded path exists to avoid.
  for (auto& load : port_load_) load = PortLoad{};
  for (const auto& [id, rec] : tenants_)
    for (const auto& [port, c] : rec.contributions) port_load_[port].add(c);
  std::fill(shard_dirty_.begin(), shard_dirty_.end(), 1);
}

void PlacementEngine::refresh_shard(std::size_t shard) const {
  double resv = 0.0, qfrac = 0.0;
  for (int p : shard_ports_[shard]) {
    const topology::PortId id{p};
    const auto& port = topo_.port(id);
    const auto& load = port_load_[p];
    if (load.empty()) continue;
    resv = std::max(resv, load.rate_bps() / port.rate.bps());
    const TimeNs bound = port_queue_bound(id);
    if (bound >= TimeNs{0} && port.queue_capacity > TimeNs{0})
      qfrac = std::max(qfrac, static_cast<double>(bound) /
                                  static_cast<double>(port.queue_capacity));
  }
  shard_max_resv_[shard] = resv;
  shard_max_qfrac_[shard] = qfrac;
  shard_dirty_[shard] = 0;
}

void PlacementEngine::refresh_dirty_shards() const {
  for (std::size_t sh = 0; sh < shard_dirty_.size(); ++sh)
    if (shard_dirty_[sh]) refresh_shard(sh);
}

double PlacementEngine::max_port_reservation() const {
  refresh_dirty_shards();
  double out = 0.0;
  for (double v : shard_max_resv_) out = std::max(out, v);
  return out;
}

double PlacementEngine::max_queue_headroom_used() const {
  refresh_dirty_shards();
  double out = 0.0;
  for (double v : shard_max_qfrac_) out = std::max(out, v);
  return out;
}

double PlacementEngine::port_reservation(topology::PortId p) const {
  return port_load_[p.value].rate_bps() / topo_.port(p).rate.bps();
}

TimeNs PlacementEngine::port_queue_bound(topology::PortId p) const {
  const auto& load = port_load_[p.value];
  if (load.empty()) return TimeNs{0};
  const auto analysis = netcalc::analyze_queue(
      load.arrival_curve(), netcalc::Curve::constant_rate(topo_.port(p).rate));
  return analysis.queue_bound.value_or(TimeNs{-1});
}

}  // namespace silo::placement
