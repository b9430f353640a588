// SiloController: the provider-facing control plane.
//
// This is the non-simulation API a deployment would embed: it owns the
// datacenter model and admission control, and for every admitted tenant
// emits the per-server pacer configuration records that the hypervisor
// filter driver (the prototype's NDIS driver) consumes — which VM slots
// to pace, with what {B, S, Bmax}, and which peer VMs share the tenant's
// hose so destination buckets can be coordinated. Config shipping is
// incremental in both admission modes: each admit/release/recovery
// enqueues PacerConfigDeltas for the affected servers only
// (drain_config_deltas); server_config() stays available as the
// full-snapshot reference the deltas must reproduce. Placement itself is
// kept once, by the PlacementEngine: the controller keeps each tenant's
// request, engine id and status, and derives what the pacers hold from
// them.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "model/guarantee.h"
#include "core/journal.h"
#include "obs/metrics.h"
#include "pacer/pacer_config.h"
#include "placement/placement.h"
#include "topology/topology.h"

namespace silo {

struct TenantHandle {
  placement::TenantId id = -1;
  std::vector<int> vm_to_server;
};

/// Per-tenant guarantee status after failures (§4.1 only holds while the
/// tenant's reservation is in place end to end).
enum class TenantStatus {
  kGuaranteed,  ///< placed with full guarantees validated
  kDegraded,    ///< re-placed best-effort after a failure; no guarantees
  kUnplaced,    ///< no capacity anywhere; awaiting hardware restore
};

struct DatacenterStats {
  int total_slots = 0;
  int free_slots = 0;
  int admitted_tenants = 0;
  /// Tenants running without their guarantees after a failure.
  int degraded_tenants = 0;
  /// Tenants with no placement at all (evacuated, nowhere to go).
  int unplaced_tenants = 0;
  /// Highest fraction of any port's line rate that is reserved.
  double max_port_reservation = 0;
  /// Worst admitted queue bound anywhere, as a fraction of that port's
  /// queue capacity (<= 1 by construction for Silo policy).
  double max_queue_headroom_used = 0;
};

/// Outcome of one failure/restore event: which tenants were touched and
/// where they ended up. The pacer records of every re-placed guaranteed VM
/// ride the event's config deltas (drain_config_deltas).
struct RecoveryReport {
  std::vector<placement::TenantId> affected;  ///< sorted, deterministic
  std::vector<placement::TenantId> replaced;  ///< full guarantees re-validated
  std::vector<placement::TenantId> degraded;  ///< best-effort fallback
  std::vector<placement::TenantId> unplaced;  ///< no slots anywhere
};

class SiloController {
 public:
  /// Silo policy admission. `mode` picks how the placement engine keeps
  /// its derived state; kFullRescan is the quadratic reference path (full
  /// port-load rebuilds) for equivalence tests and benchmarks. Both modes
  /// make the same decisions and ship the same deltas.
  explicit SiloController(
      const topology::TopologyConfig& topo,
      placement::AdmissionMode mode = placement::AdmissionMode::kIncremental);

  /// Admission control + placement; nullopt when the request cannot be
  /// accommodated without violating someone's guarantees.
  std::optional<TenantHandle> admit(const TenantRequest& request);

  /// Release a tenant's VMs and reservations.
  void release(const TenantHandle& handle);

  /// A server died: evacuate every tenant with a VM on it and re-place
  /// each one under the same admission checks it was originally admitted
  /// with. Tenants that no longer fit with guarantees drop to explicit
  /// best-effort degraded mode (or unplaced when no slots exist at all).
  RecoveryReport handle_server_failure(int server);

  /// A fabric link died: re-place every tenant whose traffic crosses it so
  /// no guaranteed tenant depends on the dead link. Same fallback ladder.
  RecoveryReport handle_link_failure(topology::PortId port);

  /// Hardware came back: re-validate every degraded/unplaced tenant,
  /// promoting those whose full guarantees are feasible again.
  RecoveryReport restore_server(int server);
  RecoveryReport restore_link(topology::PortId port);

  TenantStatus tenant_status(placement::TenantId id) const {
    return tenants_.at(id).status;
  }
  /// Current placement (may differ from the admit-time handle after
  /// recovery; -1 entries mean the VM is unplaced).
  std::vector<int> tenant_placement(placement::TenantId id) const;

  /// Pacer configuration for every guaranteed VM currently on `server` —
  /// the full-snapshot reference the incremental deltas must reproduce.
  std::vector<PacerConfigRecord> server_config(int server) const;

  /// Incremental pacer-config updates queued since the last drain, in
  /// emission order: one delta per affected server per admit/release/
  /// recovery event. Applying each to its server's PacerConfigTable yields
  /// exactly server_config(server).
  std::vector<PacerConfigDelta> drain_config_deltas();

  // --- Work-conserving leases (docs/WORKCONSERVING.md) ------------------

  /// Lend `rate` of `owner`'s idle reservation to `borrower`'s VM
  /// `borrower_vm` on the server that hosts it, until `duration_epochs`
  /// lease epochs from now have elapsed. Validated: the owner must be a
  /// guaranteed (paced) tenant with a VM on the borrower's server, the
  /// borrower VM must be placed, and `rate` must be positive and within
  /// the owner's per-VM reservation. Returns the lease id, or nullopt on
  /// rejection (`controller.lease.rejected`). Journaled write-ahead like
  /// every other mutation, so leases survive crash recovery.
  std::optional<std::uint64_t> grant_lease(placement::TenantId owner,
                                           placement::TenantId borrower,
                                           int borrower_vm, RateBps rate,
                                           std::uint64_t duration_epochs = 1);

  /// Early reclamation — the owner's demand returned before expiry.
  /// Returns false when the lease is unknown (already expired/revoked).
  bool revoke_lease(std::uint64_t id);

  /// Advance the controller lease epoch by one: expires every due lease
  /// and emits an epoch-stamped heartbeat delta to each server that held
  /// lease state, so agent-side clocks advance even when no new grants
  /// flow. Returns the leases that expired this tick.
  std::vector<PacerLeaseRecord> advance_lease_epoch();

  std::uint64_t lease_epoch() const { return lease_epoch_; }
  /// Active (granted, unexpired) leases in ascending id order.
  std::vector<PacerLeaseRecord> active_leases() const;

  // --- Durability (write-ahead journal) ---------------------------------

  /// Journal every subsequent mutation (write-ahead: the record is
  /// appended before the op executes). When `snapshot_every > 0` the
  /// journal is compacted after that many journaled ops: the first
  /// compaction writes the full snapshot(), later ones fold in only the
  /// tenant entries changed since. The journal must outlive the controller.
  void attach_journal(DeltaJournal* journal, std::int64_t snapshot_every = 0);

  /// Rebuild state by replaying `journal` (snapshot restore + record
  /// replay), then attach it for subsequent ops. Only valid on a fresh
  /// controller (throws std::logic_error otherwise). Determinism makes the
  /// result bit-identical to the never-crashed controller: placement
  /// decisions, server_config snapshots, and metric counters all match.
  /// Pending config deltas are re-emitted for every replayed op — callers
  /// drain them and resync the fleet through the control channel.
  void recover_from_journal(DeltaJournal& journal,
                            std::int64_t snapshot_every = 0);

  /// Exact logical state (engine snapshot + tenant map + counters) — the
  /// reference every compacted journal snapshot must equal.
  ControllerSnapshot snapshot() const;
  /// Restore from snapshot(); fresh controllers only (throws
  /// std::logic_error otherwise). Throws std::invalid_argument when the
  /// snapshot does not carry exactly the controller's counters.
  void restore_snapshot(ControllerSnapshot snap);

  /// Servers with at least one shipped (paced) record, ascending — the
  /// control channel resyncs its shadow tables from these after recovery.
  std::vector<int> paced_servers() const;

  /// The §4.1 worst-case message latency a tenant admitted with
  /// `guarantee` may advertise to its application.
  static TimeNs message_latency_bound(const SiloGuarantee& guarantee,
                                      Bytes message) {
    return max_message_latency(guarantee, message);
  }

  DatacenterStats stats() const;

  /// Control-plane metric registry: admissions, rejections, and recovery
  /// ladder transitions, updated via cached handles.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  const topology::Topology& topo() const { return topo_; }
  const placement::PlacementEngine& placement() const { return engine_; }

 private:
  /// The placement is the engine's (PlacementEngine::placement_of).
  struct TenantState {
    TenantRequest request;
    /// Current placement-engine id — changes on every re-placement while
    /// the controller-facing tenant id stays stable; -1 when unplaced.
    placement::TenantId engine_id = -1;
    TenantStatus status = TenantStatus::kGuaranteed;
    /// The pacers hold records for this tenant's placement: it is placed,
    /// guaranteed and not best-effort.
    bool paced() const {
      return engine_id >= 0 && status == TenantStatus::kGuaranteed &&
             request.tenant_class != TenantClass::kBestEffort;
    }
  };

  /// Evacuate + re-place each affected tenant: full guarantees first,
  /// best-effort degraded second, unplaced as the last resort.
  RecoveryReport recover(std::vector<placement::TenantId> affected);
  std::vector<placement::TenantId> to_external(
      const std::vector<placement::TenantId>& engine_ids) const;
  /// Degraded and unplaced tenants, ascending: what a restore re-validates.
  std::vector<placement::TenantId> non_guaranteed_tenants() const {
    return {non_guaranteed_.begin(), non_guaranteed_.end()};
  }
  static PacerConfigRecord make_record(placement::TenantId id,
                                       const TenantRequest& request,
                                       const std::vector<int>& vm_to_server,
                                       int vm);
  /// The placement the pacers hold records for: the engine's when `state`
  /// is paced, else empty. A copy, taken before the engine drops it.
  std::vector<int> shipped_placement(const TenantState& state) const;
  /// Queue removals for the `shipped` records and, when `state` is paced,
  /// upserts for its current placement — one delta per affected server.
  void emit_config_deltas(placement::TenantId id, const TenantState& state,
                          const std::vector<int>& shipped);
  /// Every status change goes through here to keep non_guaranteed_ exact.
  void set_status(placement::TenantId id, TenantState& state,
                  TenantStatus status);
  /// Revoke every lease naming `id` as owner or borrower (placement is
  /// changing under it). Runs inside already-journaled ops — release and
  /// recovery — so replay reproduces the cascade without extra records.
  void revoke_leases_for_tenant(placement::TenantId id);
  /// Queue a lease-only delta (epoch-stamped) for `server`.
  void emit_lease_delta(int server, std::vector<std::uint64_t> removes,
                        std::vector<PacerLeaseRecord> upserts);
  /// Write-ahead append (no-op when unattached or replaying).
  void journal_op(JournalRecord rec);
  /// Compact the journal every snapshot_every_ ops: a full snapshot() when
  /// compact_full_, else the snapshot_delta().
  void maybe_compact();
  /// Record that tenant `id`'s and engine tenant `engine_id`'s snapshot
  /// entries changed (either may be -1), while a compaction will need it.
  void note_changed(placement::TenantId id, placement::TenantId engine_id);
  /// The entries changed since the last compaction, as a SnapshotDelta.
  SnapshotDelta snapshot_delta();
  /// The counters a snapshot carries, in its fixed order.
  std::array<obs::Counter, 14> snapshot_counters() const;
  /// Fill the controller-layer global fields of `snap`: counters, leases,
  /// lease epoch and lease id cursor.
  void capture_globals(ControllerSnapshot& snap) const;
  static ControllerSnapshot::Tenant snapshot_entry(placement::TenantId id,
                                                   const TenantState& state);

  topology::Topology topo_;
  placement::PlacementEngine engine_;
  std::map<placement::TenantId, TenantState> tenants_;
  /// Live engine id -> controller-facing tenant id (engine ids churn on
  /// every re-placement; this replaces the full-map scans to_external and
  /// server_config used to need).
  std::map<placement::TenantId, placement::TenantId> engine_to_external_;
  std::vector<PacerConfigDelta> pending_deltas_;
  /// Degraded and unplaced tenant ids: restores walk these, not tenants_.
  std::set<placement::TenantId> non_guaranteed_;
  std::map<std::uint64_t, PacerLeaseRecord> leases_;  ///< active, by id
  std::uint64_t lease_epoch_ = 0;
  std::uint64_t next_lease_id_ = 1;

  DeltaJournal* journal_ = nullptr;
  std::int64_t snapshot_every_ = 0;
  std::int64_t ops_since_snapshot_ = 0;
  bool replaying_ = false;
  /// Ids whose snapshot entries changed since the journal's retained
  /// snapshot (unsorted, may repeat). Kept through ops and replay.
  std::vector<placement::TenantId> changed_tenants_;
  std::vector<placement::TenantId> changed_engine_ids_;
  /// The state was not derived from the journal's retained snapshot
  /// (attach_journal, restore_snapshot): the next compaction is full.
  bool compact_full_ = false;

  obs::MetricsRegistry metrics_;
  obs::Counter m_admissions_;
  obs::Counter m_rejections_;
  obs::Counter m_releases_;
  obs::Counter m_replaced_;   ///< recoveries that kept full guarantees
  obs::Counter m_degraded_;   ///< recoveries falling to best-effort
  obs::Counter m_unplaced_;   ///< recoveries with no slots anywhere
  obs::Counter m_promotions_; ///< degraded/unplaced back to guaranteed
  obs::Counter m_diff_deltas_;   ///< per-server deltas emitted
  obs::Counter m_diff_upserts_;  ///< records upserted across all deltas
  obs::Counter m_diff_removes_;  ///< record keys removed across all deltas
  obs::Counter m_lease_granted_;  ///< leases issued
  obs::Counter m_lease_revoked_;  ///< early reclamations (incl. cascades)
  obs::Counter m_lease_expired_;  ///< clean epoch expiries
  obs::Counter m_lease_rejected_; ///< grant requests that failed validation
  obs::Gauge m_lease_active_;     ///< currently outstanding leases
};

}  // namespace silo
