// VM placement & admission control (§4.2).
//
// Silo's placement maps a tenant's {B, S, d, Bmax} guarantees to two
// queueing constraints at every switch port its traffic crosses:
//   1. queue bound  <= queue capacity      (buffers never overflow)
//   2. sum of queue capacities on each VM-pair path <= d
// and then greedily packs VMs into the smallest topology scope (server,
// rack, pod, datacenter) that satisfies both, preserving "high" links for
// future tenants.
//
// The same greedy skeleton, parameterized by its admission policy, yields
// the two baselines of the paper's evaluation: Oktopus (bandwidth-only
// constraint) and locality-aware placement (no network constraint).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <map>
#include <vector>

#include "model/guarantee.h"
#include "placement/port_load.h"
#include "topology/topology.h"

namespace silo::placement {

using TenantId = std::int64_t;

enum class Policy {
  kSilo,      ///< queue-bound + delay constraints via network calculus
  kOktopus,   ///< hose-model bandwidth reservation only
  kLocality,  ///< slots only; pack as close as possible
};

/// Topology scopes in packing order.
enum class Scope { kServer = 0, kRack = 1, kPod = 2, kDatacenter = 3 };

/// How admission maintains its derived state.
///
/// kIncremental (the default) shards per-port load and headroom caches by
/// rack/pod/DC and maintains per-server and per-port tenant indexes, so an
/// admit or release touches only the shards on the tenant's placement
/// path. Its packing reads each access-port contribution from a
/// per-request probe table, checks both access ports against per-level
/// constants, skips servers whose NIC cannot carry even the cheapest
/// probe, and abandons a scope as soon as the free slots left in its walk
/// cannot hold the VMs still to place. kFullRescan is the reference
/// baseline: after every mutation it recomputes all port loads from the
/// tenant map, answers index queries by scanning every tenant, walks every
/// server of a scope with no cutoff, and re-derives both access-port
/// contributions on every (server, VM count) probe — the costs the
/// incremental path replaces. Both modes make bit-identical placement
/// decisions.
enum class AdmissionMode { kIncremental, kFullRescan };

struct AdmittedTenant {
  TenantId id = -1;
  std::vector<int> vm_to_server;  ///< VM index -> server index
};

/// Exact logical state of a PlacementEngine, captured for the controller's
/// write-ahead journal (compacted snapshots). Holds everything restore()
/// needs to rebuild an engine bit-identically: per-tenant placements with
/// their admitted port contributions (so no re-derivation can drift), the
/// failed-hardware accounting, and the monotonic id counter.
struct EngineSnapshot {
  struct Tenant {
    TenantId id = -1;
    TenantRequest request;  ///< as admitted (degraded tenants: best-effort copy)
    std::vector<int> vm_to_server;
    std::vector<std::pair<int, PortContribution>> contributions;
    friend bool operator==(const Tenant&, const Tenant&) = default;
  };
  struct FailedServer {
    int server = -1;
    int free_slots = 0;    ///< free-slot count frozen at failure time
    int quarantined = 0;   ///< slots freed on the dead host since
    friend bool operator==(const FailedServer&, const FailedServer&) = default;
  };
  std::vector<Tenant> tenants;              ///< ascending id
  std::vector<FailedServer> failed_servers; ///< ascending server
  std::vector<int> failed_ports;            ///< ascending PortId value
  TenantId next_id = 0;
  friend bool operator==(const EngineSnapshot&, const EngineSnapshot&) = default;
};

class PlacementEngine {
 public:
  /// `nic_delay_allowance` is the per-path budget charged for source-NIC
  /// batching and same-server multiplexing (the pacer keeps the *wire*
  /// curve-conformant, but a packet may wait up to about one IO batch
  /// inside the NIC). It is added to every path's delay bound.
  /// `hose_tightening` toggles the min(m, N-m)*B aggregation of §4.2.2
  /// (ablation: the naive m*B bound admits strictly fewer tenants).
  PlacementEngine(const topology::Topology& topo, Policy policy,
                  TimeNs nic_delay_allowance = 50 * kUsec,
                  bool hose_tightening = true,
                  AdmissionMode mode = AdmissionMode::kIncremental);

  /// Admission control + placement. Returns nullopt when the request
  /// cannot be accommodated (its guarantees would be violated, or would
  /// violate an already-admitted tenant's).
  std::optional<AdmittedTenant> place(const TenantRequest& request);

  /// Releases a tenant's slots and port reservations.
  void remove(TenantId id);

  // --- Fault model -------------------------------------------------------
  // A failed server's free slots leave the pool, and slots later freed on
  // it (tenants being evacuated) are quarantined until restore_server — so
  // re-placement can never land VMs back on dead hardware. A failed port
  // rejects any placement that would reserve capacity on it; zero-
  // reservation (best-effort) placements still pass, which is what keeps
  // degraded-mode fallback feasible while a link is down.

  void fail_server(int server);
  void restore_server(int server);
  bool server_failed(int server) const {
    return server_failed_[static_cast<std::size_t>(server)] != 0;
  }
  void fail_port(topology::PortId p);
  void restore_port(topology::PortId p);
  bool port_failed(topology::PortId p) const {
    return port_failed_[static_cast<std::size_t>(p.value)] != 0;
  }

  /// Admitted tenants with at least one VM on `server`, ascending id.
  std::vector<TenantId> tenants_on_server(int server) const;
  /// Admitted tenants whose placement routes traffic through `p`,
  /// ascending id (derived from the placement's rack/pod spread).
  std::vector<TenantId> tenants_using_port(topology::PortId p) const;

  /// Relative slack of every rate check: a port admits a contribution
  /// while its reserved rate stays <= line rate * (1 + kRateEps).
  static constexpr double kRateEps = 1e-6;

  int free_slots() const { return free_slots_total_; }
  int admitted_tenants() const { return static_cast<int>(tenants_.size()); }
  AdmissionMode admission_mode() const { return mode_; }

  /// Fraction of a port's line rate reserved by admitted tenants.
  double port_reservation(topology::PortId p) const;

  /// Highest port_reservation() over every port. Incremental mode answers
  /// from the per-rack/pod/DC shard caches, recomputing only shards whose
  /// load changed since the last query; kFullRescan scans every port.
  double max_port_reservation() const;

  /// Worst admitted queue bound anywhere, as a fraction of that port's
  /// queue capacity (<= 1 by construction for Silo policy). Same shard
  /// caching as max_port_reservation().
  double max_queue_headroom_used() const;

  /// Worst-case queuing delay currently admitted at a port (ns); 0 for an
  /// idle port. Exposed for tests and the placement example.
  TimeNs port_queue_bound(topology::PortId p) const;

  /// Path-capacity delay bound for a tenant placed at the given scope —
  /// what Silo checks against the tenant's delay guarantee d.
  TimeNs scope_path_capacity(Scope scope) const;

  /// Capture the engine's exact logical state (journal compaction).
  EngineSnapshot snapshot() const;
  /// snapshot() in parts, for delta compaction: everything but the tenant
  /// list, and one tenant's entry (nullopt when `id` is not admitted).
  EngineSnapshot snapshot_globals() const;
  std::optional<EngineSnapshot::Tenant> snapshot_tenant(TenantId id) const;
  /// Rebuild from a snapshot. Only valid on a fresh engine (no tenants
  /// admitted, same topology/policy/mode as the captured one); throws
  /// std::logic_error otherwise. After restore the engine makes the same
  /// placement decisions the captured engine would.
  void restore(const EngineSnapshot& snap);

  const topology::Topology& topo() const { return topo_; }

 private:
  struct TenantRecord {
    TenantRequest request;
    std::vector<int> vm_to_server;
    std::vector<std::pair<int, PortContribution>> contributions;  // port -> c
    std::vector<std::pair<int, int>> slot_usage;  // server -> count
    std::vector<int> used_ports;  // sorted; ports this placement routes over
  };

  // Per-server VM counts for a candidate placement.
  using CountMap = std::vector<std::pair<int, int>>;  // (server, count)

  /// Packs and validates the scope around `anchor` (a server, rack or pod
  /// index; unused at datacenter scope).
  std::optional<CountMap> try_scope(const TenantRequest& req, Scope scope,
                                    int anchor);
  /// First-fit over the servers of racks [first_rack, end_rack) in id
  /// order, skipping full racks and servers; `free_ahead` is the range's
  /// free-slot total. nullopt when the servers cannot hold the tenant.
  std::optional<CountMap> pack_servers(const TenantRequest& req, Scope scope,
                                       int first_rack, int end_rack,
                                       int free_ahead);
  /// VMs (largest first, at most `cap`) that `server` can host under both
  /// access-port checks; 0 when none. vms_on answers from the probe table
  /// behind the NIC pre-filter, rescan_vms_on (kFullRescan, the oracle)
  /// re-derives both contributions per probe through server_ports_ok.
  int vms_on(const TenantRequest& req, int server, int cap, Scope scope);
  int rescan_vms_on(const TenantRequest& req, int server, int cap,
                    Scope scope) const;
  bool server_ports_ok(const TenantRequest& req, int server, int m_here,
                       Scope scope) const;
  /// Probe-table access for the current request: fill_nic_row extends
  /// nic_row_ (and its prefix minimum) from nic_filled_ to `cap`;
  /// tor_entry fills one ToR entry on first use.
  void fill_nic_row(const TenantRequest& req, int cap);
  const PortContribution& tor_entry(const TenantRequest& req, Scope scope,
                                    int m);
  bool validate_candidate(const TenantRequest& req, const CountMap& counts,
                          Scope scope) const;
  std::vector<std::pair<int, PortContribution>> tenant_contributions(
      const TenantRequest& req, const CountMap& counts, Scope scope) const;

  /// Tenant's arrival-curve contribution at one port: cut curve for
  /// `m_side` of `n` VMs behind the port, propagated through
  /// `upstream_capacity` of queueing (0 at the pacer conformance point).
  PortContribution cut_contribution(const TenantRequest& req, int m_side,
                                    TimeNs upstream_capacity,
                                    RateBps line_cap) const;

  bool port_admits(int port, const PortContribution& c) const;
  TimeNs upstream_capacity(int level, Scope scope) const;

  Scope widest_scope_for_delay(const SiloGuarantee& g) const;
  void commit(TenantRecord&& rec, AdmittedTenant& out);
  bool placement_uses_port(const TenantRecord& rec, int port) const;
  std::vector<int> used_ports_for(const CountMap& counts) const;

  /// Slot bookkeeping for one server: free_slots_, the rack/pod/total
  /// aggregates, and the per-rack max-free cache all move together.
  void adjust_free_slots(int server, int delta);
  void recompute_rack_max_free(int rack);

  /// Mark the shard owning `port` stale after a load change.
  void touch_port(int port);
  void refresh_shard(std::size_t shard) const;
  void refresh_dirty_shards() const;
  /// kFullRescan baseline: rebuild every port's aggregate load from the
  /// tenant map (the cost the sharded incremental path avoids).
  void rebuild_port_loads();

  const topology::Topology& topo_;
  Policy policy_;
  TimeNs nic_delay_allowance_;
  bool hose_tightening_;
  AdmissionMode mode_;
  std::vector<int> free_slots_;
  std::vector<int> free_slots_rack_;  // fast skip of full racks/pods
  std::vector<int> free_slots_pod_;
  std::vector<int> rack_max_free_;  // max free slots on any server in rack
  int free_slots_total_ = 0;
  std::vector<PortLoad> port_load_;
  std::vector<char> server_failed_;
  std::vector<int> quarantined_slots_;  ///< freed-on-failed-server slots
  std::vector<char> port_failed_;
  std::map<TenantId, TenantRecord> tenants_;
  TenantId next_id_ = 0;

  // Access ports (server NIC egress, ToR-to-server) as vms_on reads them:
  // each kind is one block of port ids indexed by server, and Topology
  // builds every one of them alike (server link rate, level 0) and never
  // changes a port, so one rate limit, service rate and queue capacity
  // serve them all.
  int nic_base_ = 0;  ///< PortId value of server 0's NIC egress
  int tor_base_ = 0;  ///< PortId value of server 0's ToR-to-server port
  double access_rate_limit_ = 0;
  RateBps access_rate_{};
  TimeNs access_queue_capacity_{};

  // --- Sharded derived state (incremental mode) --------------------------
  // Shard layout: one shard per rack (owning its servers' NIC/ToR ports),
  // one per pod (owning its racks' up/down ports), one for the DC core
  // (pod up/down ports). A load change dirties only the owning shard; the
  // max-headroom queries recompute dirty shards and fold cached maxima.
  std::vector<int> shard_of_port_;
  std::vector<std::vector<int>> shard_ports_;
  mutable std::vector<char> shard_dirty_;
  mutable std::vector<double> shard_max_resv_;
  mutable std::vector<double> shard_max_qfrac_;
  // Tenant indexes so failure handling touches only the affected shards
  // instead of scanning every tenant. Ids are kept sorted (admission ids
  // are monotonic). Maintained in incremental mode only; kFullRescan
  // answers the same queries by scanning the tenant map.
  std::vector<std::vector<TenantId>> tenants_by_server_;
  std::vector<std::vector<TenantId>> tenants_by_port_;

  // --- Per-request probe table (incremental mode) ------------------------
  // Entry m is the request's contribution with m of its n VMs on one
  // server, for m <= min(n - 1, slots per server). nic_row_ holds the NIC
  // egress side, cut_contribution(m): its upstream is 0 at every scope, so
  // one row serves the whole request. tor_rows_[scope] holds the
  // ToR-to-server side, cut_contribution(n - m), whose upstream queueing
  // depends on the scope. Port loads cannot change inside one place()
  // call, so the entries are exact for all of it. place() invalidates the
  // table in O(1): nic_filled_ drops to 0 and probe_stamp_ moves past
  // every ToR entry's stamp.
  struct ProbeEntry {
    PortContribution c;
    std::uint64_t stamp = 0;  // valid while == probe_stamp_
  };
  std::uint64_t probe_stamp_ = 0;
  int nic_filled_ = 0;                ///< nic_row_[1..nic_filled_] valid
  std::vector<PortContribution> nic_row_;
  std::vector<double> nic_min_rate_;  ///< prefix minimum of nic_row_ rates
  std::array<std::vector<ProbeEntry>, 4> tor_rows_;  // indexed by Scope
};

}  // namespace silo::placement
