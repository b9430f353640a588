#include "core/controller.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "netcalc/curve.h"

namespace silo {

SiloController::SiloController(const topology::TopologyConfig& topo,
                               placement::AdmissionMode mode)
    : topo_(topo),
      engine_(topo_, placement::Policy::kSilo, 50 * kUsec,
              /*hose_tightening=*/true, mode) {
  m_admissions_ = metrics_.counter("controller.admissions", "tenants",
                                   "controller");
  m_rejections_ = metrics_.counter("controller.rejections", "tenants",
                                   "controller");
  m_releases_ = metrics_.counter("controller.releases", "tenants",
                                 "controller");
  m_replaced_ = metrics_.counter("controller.recovery.replaced", "tenants",
                                 "controller");
  m_degraded_ = metrics_.counter("controller.recovery.degraded", "tenants",
                                 "controller");
  m_unplaced_ = metrics_.counter("controller.recovery.unplaced", "tenants",
                                 "controller");
  m_promotions_ = metrics_.counter("controller.recovery.promotions", "tenants",
                                   "controller");
  m_diff_deltas_ = metrics_.counter("controller.diff.deltas", "deltas",
                                    "controller");
  m_diff_upserts_ = metrics_.counter("controller.diff.upserts", "records",
                                     "controller");
  m_diff_removes_ = metrics_.counter("controller.diff.removes", "records",
                                     "controller");
  m_lease_granted_ = metrics_.counter("controller.lease.granted", "leases",
                                      "controller");
  m_lease_revoked_ = metrics_.counter("controller.lease.revoked", "leases",
                                      "controller");
  m_lease_expired_ = metrics_.counter("controller.lease.expired", "leases",
                                      "controller");
  m_lease_rejected_ = metrics_.counter("controller.lease.rejected", "leases",
                                       "controller");
  m_lease_active_ = metrics_.gauge("controller.lease.active", "leases",
                                   "controller");
}

void SiloController::journal_op(JournalRecord rec) {
  if (journal_ == nullptr || replaying_) return;
  journal_->append(std::move(rec));
}

void SiloController::maybe_compact() {
  if (journal_ == nullptr || replaying_ || snapshot_every_ <= 0) return;
  if (++ops_since_snapshot_ < snapshot_every_) return;
  if (compact_full_)
    journal_->compact(snapshot());
  else
    journal_->compact(snapshot_delta());
  compact_full_ = false;
  changed_tenants_.clear();
  changed_engine_ids_.clear();
  ops_since_snapshot_ = 0;
}

void SiloController::note_changed(placement::TenantId id,
                                  placement::TenantId engine_id) {
  // Replay tracks too: a recovered controller's next compaction folds the
  // replayed changes into the snapshot it was restored from.
  if (!replaying_ && (journal_ == nullptr || snapshot_every_ <= 0)) return;
  if (id >= 0) changed_tenants_.push_back(id);
  if (engine_id >= 0) changed_engine_ids_.push_back(engine_id);
}

SnapshotDelta SiloController::snapshot_delta() {
  const auto sort_unique = [](std::vector<placement::TenantId>& ids) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  };
  SnapshotDelta delta;
  delta.globals.engine = engine_.snapshot_globals();
  capture_globals(delta.globals);
  sort_unique(changed_tenants_);
  for (const auto id : changed_tenants_) {
    const auto it = tenants_.find(id);
    if (it == tenants_.end())
      delta.erased_tenants.push_back(id);
    else
      delta.tenants.push_back(snapshot_entry(id, it->second));
  }
  sort_unique(changed_engine_ids_);
  for (const auto eid : changed_engine_ids_) {
    if (auto t = engine_.snapshot_tenant(eid))
      delta.engine_tenants.push_back(std::move(*t));
    else
      delta.erased_engine_tenants.push_back(eid);
  }
  return delta;
}

void SiloController::attach_journal(DeltaJournal* journal,
                                    std::int64_t snapshot_every) {
  journal_ = journal;
  snapshot_every_ = snapshot_every;
  ops_since_snapshot_ = 0;
  // Nothing ties this state to the journal's retained snapshot.
  compact_full_ = true;
}

std::optional<TenantHandle> SiloController::admit(
    const TenantRequest& request) {
  JournalRecord jrec;
  jrec.op = JournalOp::kAdmit;
  jrec.request = request;
  journal_op(std::move(jrec));
  auto placed = engine_.place(request);
  if (!placed) {
    m_rejections_.inc();
    maybe_compact();
    return std::nullopt;
  }
  m_admissions_.inc();
  note_changed(placed->id, placed->id);
  TenantHandle handle{placed->id, std::move(placed->vm_to_server)};
  auto it = tenants_
                .emplace(placed->id, TenantState{request, placed->id,
                                                 TenantStatus::kGuaranteed})
                .first;
  engine_to_external_.emplace(placed->id, placed->id);
  emit_config_deltas(placed->id, it->second, /*shipped=*/{});
  maybe_compact();
  return handle;
}

void SiloController::release(const TenantHandle& handle) {
  auto it = tenants_.find(handle.id);
  if (it == tenants_.end()) return;
  JournalRecord jrec;
  jrec.op = JournalOp::kRelease;
  jrec.tenant = handle.id;
  journal_op(std::move(jrec));
  auto& state = it->second;
  note_changed(handle.id, state.engine_id);
  const std::vector<int> shipped = shipped_placement(state);
  if (state.engine_id >= 0) {
    engine_.remove(state.engine_id);
    engine_to_external_.erase(state.engine_id);
    state.engine_id = -1;
  }
  revoke_leases_for_tenant(handle.id);
  emit_config_deltas(handle.id, state, shipped);
  non_guaranteed_.erase(handle.id);
  tenants_.erase(it);
  m_releases_.inc();
  maybe_compact();
}

void SiloController::set_status(placement::TenantId id, TenantState& state,
                                TenantStatus status) {
  state.status = status;
  if (status == TenantStatus::kGuaranteed)
    non_guaranteed_.erase(id);
  else
    non_guaranteed_.insert(id);
}

std::vector<placement::TenantId> SiloController::to_external(
    const std::vector<placement::TenantId>& engine_ids) const {
  std::vector<placement::TenantId> out;
  out.reserve(engine_ids.size());
  for (const auto eid : engine_ids) {
    auto it = engine_to_external_.find(eid);
    if (it != engine_to_external_.end()) out.push_back(it->second);
  }
  std::sort(out.begin(), out.end());
  return out;
}

PacerConfigRecord SiloController::make_record(
    placement::TenantId id, const TenantRequest& request,
    const std::vector<int>& vm_to_server, int vm) {
  PacerConfigRecord rec;
  rec.tenant = id;
  rec.vm_index = vm;
  rec.server = vm_to_server[static_cast<std::size_t>(vm)];
  rec.guarantee = request.guarantee;
  for (int p = 0; p < request.num_vms; ++p) {
    if (p == vm) continue;
    rec.peers.emplace_back(p, vm_to_server[static_cast<std::size_t>(p)]);
  }
  return rec;
}

std::vector<int> SiloController::tenant_placement(
    placement::TenantId id) const {
  const auto& state = tenants_.at(id);
  if (state.engine_id < 0)
    return std::vector<int>(static_cast<std::size_t>(state.request.num_vms),
                            -1);
  return engine_.placement_of(state.engine_id);
}

std::vector<int> SiloController::shipped_placement(
    const TenantState& state) const {
  if (!state.paced()) return {};
  return engine_.placement_of(state.engine_id);
}

void SiloController::emit_config_deltas(placement::TenantId id,
                                        const TenantState& state,
                                        const std::vector<int>& shipped) {
  const bool now_paced = state.paced();
  if (shipped.empty() && !now_paced) return;
  // One delta per affected server; within a delta removals apply before
  // upserts, so a VM whose record merely changed (e.g. a peer moved) is
  // simply rewritten in place.
  std::map<int, PacerConfigDelta> by_server;
  for (std::size_t v = 0; v < shipped.size(); ++v)
    by_server[shipped[v]].removes.emplace_back(id, static_cast<int>(v));
  if (now_paced) {
    const auto& placed = engine_.placement_of(state.engine_id);
    for (int v = 0; v < state.request.num_vms; ++v) {
      by_server[placed[static_cast<std::size_t>(v)]].upserts.push_back(
          make_record(id, state.request, placed, v));
    }
  }
  for (auto& [server, delta] : by_server) {
    delta.server = server;
    delta.lease_epoch = lease_epoch_;
    m_diff_deltas_.inc();
    m_diff_upserts_.inc(static_cast<std::int64_t>(delta.upserts.size()));
    m_diff_removes_.inc(static_cast<std::int64_t>(delta.removes.size()));
    pending_deltas_.push_back(std::move(delta));
  }
}

std::vector<PacerConfigDelta> SiloController::drain_config_deltas() {
  std::vector<PacerConfigDelta> out;
  out.swap(pending_deltas_);
  return out;
}

// --- Work-conserving leases ---------------------------------------------

void SiloController::emit_lease_delta(int server,
                                      std::vector<std::uint64_t> removes,
                                      std::vector<PacerLeaseRecord> upserts) {
  PacerConfigDelta delta;
  delta.server = server;
  delta.lease_epoch = lease_epoch_;
  delta.lease_removes = std::move(removes);
  delta.lease_upserts = std::move(upserts);
  m_diff_deltas_.inc();
  pending_deltas_.push_back(std::move(delta));
}

std::optional<std::uint64_t> SiloController::grant_lease(
    placement::TenantId owner, placement::TenantId borrower, int borrower_vm,
    RateBps rate, std::uint64_t duration_epochs) {
  // Write-ahead: the *inputs* are journaled (like admit journals the
  // request); replay re-runs validation and the id allocator, so the
  // outcome — including rejections — reproduces deterministically.
  JournalRecord jrec;
  jrec.op = JournalOp::kLeaseGrant;
  jrec.lease.owner = owner;
  jrec.lease.borrower = borrower;
  jrec.lease.vm_index = borrower_vm;
  jrec.lease.rate = rate;
  jrec.lease.expiry_epoch = duration_epochs;  // relative until granted
  journal_op(std::move(jrec));

  const auto oit = tenants_.find(owner);
  const auto bit = tenants_.find(borrower);
  bool ok = oit != tenants_.end() && bit != tenants_.end() &&
            owner != borrower && duration_epochs > 0 && rate.bps() > 0;
  if (ok) {
    const auto& ostate = oit->second;
    // Only a paced, fully-guaranteed owner has a reservation to lend, and
    // it cannot lend more than its own per-VM hose rate.
    ok = ostate.status == TenantStatus::kGuaranteed &&
         ostate.request.tenant_class != TenantClass::kBestEffort &&
         rate.bps() <= ostate.request.guarantee.bandwidth.bps();
  }
  int server = -1;
  if (ok) {
    const auto& bstate = bit->second;
    ok = borrower_vm >= 0 && borrower_vm < bstate.request.num_vms &&
         bstate.engine_id >= 0;  // an unplaced borrower has no server
    if (ok)
      server = engine_.placement_of(
          bstate.engine_id)[static_cast<std::size_t>(borrower_vm)];
  }
  if (ok) {
    // Same-server lending only: the lent headroom is the owner's idle
    // uplink reservation on the very NIC the borrower shares.
    const auto& placed = engine_.placement_of(oit->second.engine_id);
    ok = std::find(placed.begin(), placed.end(), server) != placed.end();
  }
  if (!ok) {
    m_lease_rejected_.inc();
    maybe_compact();
    return std::nullopt;
  }
  PacerLeaseRecord lease;
  lease.id = next_lease_id_++;
  lease.owner = owner;
  lease.borrower = borrower;
  lease.vm_index = borrower_vm;
  lease.server = server;
  lease.rate = rate;
  lease.issued_epoch = lease_epoch_;
  lease.expiry_epoch = lease_epoch_ + duration_epochs;
  leases_.emplace(lease.id, lease);
  m_lease_granted_.inc();
  m_lease_active_.set(static_cast<std::int64_t>(leases_.size()));
  emit_lease_delta(server, {}, {lease});
  maybe_compact();
  return lease.id;
}

bool SiloController::revoke_lease(std::uint64_t id) {
  JournalRecord jrec;
  jrec.op = JournalOp::kLeaseRevoke;
  jrec.lease.id = id;
  journal_op(std::move(jrec));
  const auto it = leases_.find(id);
  if (it == leases_.end()) {
    maybe_compact();
    return false;
  }
  const int server = it->second.server;
  leases_.erase(it);
  m_lease_revoked_.inc();
  m_lease_active_.set(static_cast<std::int64_t>(leases_.size()));
  emit_lease_delta(server, {id}, {});
  maybe_compact();
  return true;
}

std::vector<PacerLeaseRecord> SiloController::advance_lease_epoch() {
  JournalRecord jrec;
  jrec.op = JournalOp::kLeaseEpoch;
  journal_op(std::move(jrec));
  ++lease_epoch_;
  // Expired leases get no remove: agents kill them locally when the
  // epoch-stamped heartbeat (or their own clock) reaches expiry_epoch —
  // data-plane expiry must never depend on a delivery.
  std::vector<PacerLeaseRecord> expired;
  std::vector<int> servers;
  for (auto it = leases_.begin(); it != leases_.end();) {
    servers.push_back(it->second.server);
    if (it->second.expiry_epoch <= lease_epoch_) {
      expired.push_back(it->second);
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
  m_lease_expired_.inc(static_cast<std::int64_t>(expired.size()));
  m_lease_active_.set(static_cast<std::int64_t>(leases_.size()));
  std::sort(servers.begin(), servers.end());
  servers.erase(std::unique(servers.begin(), servers.end()), servers.end());
  for (const int s : servers) emit_lease_delta(s, {}, {});
  maybe_compact();
  return expired;
}

void SiloController::revoke_leases_for_tenant(placement::TenantId id) {
  std::map<int, std::vector<std::uint64_t>> by_server;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.owner == id || it->second.borrower == id) {
      by_server[it->second.server].push_back(it->first);
      m_lease_revoked_.inc();
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
  if (by_server.empty()) return;
  m_lease_active_.set(static_cast<std::int64_t>(leases_.size()));
  for (auto& [server, ids] : by_server)
    emit_lease_delta(server, std::move(ids), {});
}

std::vector<PacerLeaseRecord> SiloController::active_leases() const {
  std::vector<PacerLeaseRecord> out;
  out.reserve(leases_.size());
  for (const auto& [id, lease] : leases_) out.push_back(lease);
  return out;
}

RecoveryReport SiloController::recover(
    std::vector<placement::TenantId> affected) {
  std::sort(affected.begin(), affected.end());
  RecoveryReport report;
  report.affected = affected;
  for (const auto id : affected) {
    auto& state = tenants_.at(id);
    const TenantStatus old_status = state.status;
    note_changed(id, state.engine_id);
    // Placement is about to change under any lease this tenant lends or
    // borrows; reclaim first (inside the already-journaled failure op).
    revoke_leases_for_tenant(id);
    const std::vector<int> shipped = shipped_placement(state);
    if (state.engine_id >= 0) {
      engine_.remove(state.engine_id);
      engine_to_external_.erase(state.engine_id);
      state.engine_id = -1;
    }
    // Full re-admission first: exactly the network-calculus checks the
    // tenant's original admission ran, against the post-failure fabric.
    if (auto placed = engine_.place(state.request)) {
      if (old_status != TenantStatus::kGuaranteed) m_promotions_.inc();
      state.engine_id = placed->id;
      note_changed(-1, placed->id);
      engine_to_external_.emplace(placed->id, id);
      set_status(id, state, TenantStatus::kGuaranteed);
      report.replaced.push_back(id);
      m_replaced_.inc();
      emit_config_deltas(id, state, shipped);
      continue;
    }
    // Guarantees infeasible: run the VMs best-effort (slots only, low
    // priority, unpaced) so the tenant keeps computing while degraded.
    TenantRequest degraded = state.request;
    degraded.tenant_class = TenantClass::kBestEffort;
    if (auto placed = engine_.place(degraded)) {
      state.engine_id = placed->id;
      note_changed(-1, placed->id);
      engine_to_external_.emplace(placed->id, id);
      set_status(id, state, TenantStatus::kDegraded);
      report.degraded.push_back(id);
      m_degraded_.inc();
      emit_config_deltas(id, state, shipped);
      continue;
    }
    set_status(id, state, TenantStatus::kUnplaced);
    report.unplaced.push_back(id);
    m_unplaced_.inc();
    emit_config_deltas(id, state, shipped);
  }
  return report;
}

RecoveryReport SiloController::handle_server_failure(int server) {
  JournalRecord jrec;
  jrec.op = JournalOp::kServerFailure;
  jrec.server = server;
  journal_op(std::move(jrec));
  const auto affected = to_external(engine_.tenants_on_server(server));
  engine_.fail_server(server);
  auto report = recover(affected);
  maybe_compact();
  return report;
}

RecoveryReport SiloController::handle_link_failure(topology::PortId port) {
  JournalRecord jrec;
  jrec.op = JournalOp::kLinkFailure;
  jrec.port = port.value;
  journal_op(std::move(jrec));
  const auto affected = to_external(engine_.tenants_using_port(port));
  engine_.fail_port(port);
  auto report = recover(affected);
  maybe_compact();
  return report;
}

RecoveryReport SiloController::restore_server(int server) {
  JournalRecord jrec;
  jrec.op = JournalOp::kServerRestore;
  jrec.server = server;
  journal_op(std::move(jrec));
  engine_.restore_server(server);
  auto report = recover(non_guaranteed_tenants());
  maybe_compact();
  return report;
}

RecoveryReport SiloController::restore_link(topology::PortId port) {
  JournalRecord jrec;
  jrec.op = JournalOp::kLinkRestore;
  jrec.port = port.value;
  journal_op(std::move(jrec));
  engine_.restore_port(port);
  auto report = recover(non_guaranteed_tenants());
  maybe_compact();
  return report;
}

ControllerSnapshot::Tenant SiloController::snapshot_entry(
    placement::TenantId id, const TenantState& state) {
  ControllerSnapshot::Tenant t;
  t.id = id;
  t.request = state.request;
  t.status = static_cast<std::uint8_t>(state.status);
  t.engine_id = state.engine_id;
  return t;
}

std::array<obs::Counter, 14> SiloController::snapshot_counters() const {
  // restore_snapshot() replays these onto fresh counters so recovered
  // metrics match the never-crashed controller exactly.
  return {m_admissions_,    m_rejections_,    m_releases_,
          m_replaced_,      m_degraded_,      m_unplaced_,
          m_promotions_,    m_diff_deltas_,   m_diff_upserts_,
          m_diff_removes_,  m_lease_granted_, m_lease_revoked_,
          m_lease_expired_, m_lease_rejected_};
}

void SiloController::capture_globals(ControllerSnapshot& snap) const {
  for (const auto& c : snapshot_counters()) snap.counters.push_back(c.value());
  snap.leases = active_leases();
  snap.lease_epoch = lease_epoch_;
  snap.next_lease_id = next_lease_id_;
}

ControllerSnapshot SiloController::snapshot() const {
  ControllerSnapshot snap;
  snap.engine = engine_.snapshot();
  snap.tenants.reserve(tenants_.size());
  for (const auto& [id, state] : tenants_)  // map order: ascending id
    snap.tenants.push_back(snapshot_entry(id, state));
  capture_globals(snap);
  return snap;
}

void SiloController::restore_snapshot(ControllerSnapshot snap) {
  if (!tenants_.empty() || m_admissions_.value() != 0 ||
      m_rejections_.value() != 0)
    throw std::logic_error(
        "SiloController::restore_snapshot requires a fresh controller");
  auto counters = snapshot_counters();
  if (snap.counters.size() != counters.size())
    throw std::invalid_argument(
        "SiloController::restore_snapshot: snapshot has " +
        std::to_string(snap.counters.size()) + " counters, expected " +
        std::to_string(counters.size()));
  engine_.restore(snap.engine);
  for (auto& t : snap.tenants) {  // ascending id
    TenantState state;
    state.request = t.request;
    state.engine_id = t.engine_id;
    state.status = static_cast<TenantStatus>(t.status);
    if (t.engine_id >= 0) engine_to_external_.emplace(t.engine_id, t.id);
    if (state.status != TenantStatus::kGuaranteed)
      non_guaranteed_.insert(non_guaranteed_.end(), t.id);
    tenants_.emplace_hint(tenants_.end(), t.id, std::move(state));
  }
  for (std::size_t i = 0; i < counters.size(); ++i)
    counters[i].inc(snap.counters[i]);
  for (const auto& lease : snap.leases) leases_.emplace(lease.id, lease);
  lease_epoch_ = snap.lease_epoch;
  next_lease_id_ = snap.next_lease_id;
  m_lease_active_.set(static_cast<std::int64_t>(leases_.size()));
  compact_full_ = true;  // this state is not the journal's retained snapshot
}

void SiloController::recover_from_journal(DeltaJournal& journal,
                                          std::int64_t snapshot_every) {
  if (!tenants_.empty() || journal_ != nullptr)
    throw std::logic_error(
        "SiloController::recover_from_journal requires a fresh controller");
  replaying_ = true;
  if (journal.has_snapshot()) restore_snapshot(journal.snapshot());
  for (const auto& rec : journal.records()) {
    switch (rec.op) {
      case JournalOp::kAdmit:
        admit(rec.request);
        break;
      case JournalOp::kRelease: {
        TenantHandle handle;
        handle.id = rec.tenant;
        release(handle);
        break;
      }
      case JournalOp::kServerFailure:
        handle_server_failure(rec.server);
        break;
      case JournalOp::kLinkFailure:
        handle_link_failure(topology::PortId{rec.port});
        break;
      case JournalOp::kServerRestore:
        restore_server(rec.server);
        break;
      case JournalOp::kLinkRestore:
        restore_link(topology::PortId{rec.port});
        break;
      case JournalOp::kLeaseGrant:
        // expiry_epoch holds the requested duration in grant records.
        grant_lease(rec.lease.owner, rec.lease.borrower, rec.lease.vm_index,
                    rec.lease.rate, rec.lease.expiry_epoch);
        break;
      case JournalOp::kLeaseRevoke:
        revoke_lease(rec.lease.id);
        break;
      case JournalOp::kLeaseEpoch:
        advance_lease_epoch();
        break;
    }
  }
  replaying_ = false;
  journal.note_replay(static_cast<std::int64_t>(journal.records().size()));
  attach_journal(&journal, snapshot_every);
  // The state is the journal's snapshot plus the replayed ops, whose
  // changes were tracked: compaction carries on with deltas.
  compact_full_ = false;
}

std::vector<int> SiloController::paced_servers() const {
  std::vector<int> out;
  for (const auto& [id, state] : tenants_) {
    if (!state.paced()) continue;
    const auto& placed = engine_.placement_of(state.engine_id);
    out.insert(out.end(), placed.begin(), placed.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<PacerConfigRecord> SiloController::server_config(
    int server) const {
  std::vector<PacerConfigRecord> out;
  // Only tenants placed on this server can have records here.
  for (const auto eid : engine_.tenants_on_server(server)) {
    const auto ext = engine_to_external_.find(eid);
    if (ext == engine_to_external_.end()) continue;
    const auto& state = tenants_.at(ext->second);
    // Best-effort VMs run unpaced at low priority (§4.4), and degraded
    // tenants are not paced.
    if (!state.paced()) continue;
    const auto& placed = engine_.placement_of(eid);
    for (int v = 0; v < state.request.num_vms; ++v) {
      if (placed[static_cast<std::size_t>(v)] != server) continue;
      out.push_back(make_record(ext->second, state.request, placed, v));
    }
  }
  // Deterministic order for config diffing by the driver.
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.tenant != b.tenant ? a.tenant < b.tenant
                                : a.vm_index < b.vm_index;
  });
  return out;
}

DatacenterStats SiloController::stats() const {
  DatacenterStats s;
  s.total_slots = topo_.total_vm_slots();
  s.free_slots = engine_.free_slots();
  s.admitted_tenants = engine_.admitted_tenants();
  for (const auto id : non_guaranteed_) {
    if (tenants_.at(id).status == TenantStatus::kDegraded)
      ++s.degraded_tenants;
    else
      ++s.unplaced_tenants;
  }
  s.max_port_reservation = engine_.max_port_reservation();
  s.max_queue_headroom_used = engine_.max_queue_headroom_used();
  return s;
}

}  // namespace silo
