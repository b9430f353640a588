// Write-ahead delta journal for the SiloController (control-plane
// durability).
//
// Every public controller mutation — admit, release, server/link failure,
// server/link restore, lease grant/revoke/epoch — appends one JournalRecord
// *before* it executes.
// Because the controller is deterministic, replaying the journal through a
// fresh controller rebuilds the full placement/pacer state bit-identically:
// placement decisions, shipped pacer configs, and metric counters all match
// a controller that never crashed (pinned by the storm equivalence tests in
// tests/test_journal.cc).
//
// A record has one byte encoding, and its `chain` value is FNV-1a over
// exactly those bytes, seeded with the previous chain head: truncation,
// reordering, or bit-rot anywhere breaks verification of everything after
// it. Periodic compaction replaces the prefix with an exact
// ControllerSnapshot, which the journal retains keyed by tenant id with
// one cached digest per entry (FNV-1a over the entry's encoding). A delta
// compaction folds in only the entries that changed (SnapshotDelta), and
// the snapshot's digest — a fold of the entry digests and the global
// fields' digest — is mixed into the chain, keeping it continuous across
// compactions at a cost proportional to what changed.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "model/guarantee.h"
#include "obs/metrics.h"
#include "pacer/pacer_config.h"
#include "placement/placement.h"

namespace silo {

/// The controller operations that mutate placement/pacer state.
enum class JournalOp : std::uint8_t {
  kAdmit = 1,
  kRelease = 2,
  kServerFailure = 3,
  kLinkFailure = 4,
  kServerRestore = 5,
  kLinkRestore = 6,
  kLeaseGrant = 7,
  kLeaseRevoke = 8,
  kLeaseEpoch = 9,
};

struct JournalRecord {
  JournalOp op = JournalOp::kAdmit;
  TenantRequest request;     ///< kAdmit payload
  std::int64_t tenant = -1;  ///< kRelease payload
  std::int32_t server = -1;  ///< kServerFailure / kServerRestore payload
  std::int32_t port = -1;    ///< kLinkFailure / kLinkRestore payload
  /// kLeaseGrant payload (full record); kLeaseRevoke uses lease.id only;
  /// kLeaseEpoch uses lease.issued_epoch as the epoch being advanced to.
  PacerLeaseRecord lease;
  /// Chain head after hashing this record (filled by append()).
  std::uint64_t chain = 0;
};

/// Exact logical controller state at a compaction point: the placement
/// engine's snapshot (which holds every placement) plus the
/// controller-layer tenant map and metric counter values. Pending
/// (undrained) config deltas are *not* captured — recovery re-emits every
/// delta since the snapshot, and the control channel reconciles the fleet
/// via resync + anti-entropy.
struct ControllerSnapshot {
  struct Tenant {
    std::int64_t id = -1;
    TenantRequest request;    ///< the original (pre-degradation) request
    std::uint8_t status = 0;  ///< TenantStatus
    /// The engine entry holding the placement; -1 when unplaced.
    std::int64_t engine_id = -1;
    friend bool operator==(const Tenant&, const Tenant&) = default;
  };
  placement::EngineSnapshot engine;
  std::vector<Tenant> tenants;           ///< ascending id
  std::vector<std::int64_t> counters;    ///< controller counters, fixed order
  std::vector<PacerLeaseRecord> leases;  ///< active leases, ascending id
  std::uint64_t lease_epoch = 0;         ///< controller lease epoch
  std::uint64_t next_lease_id = 1;       ///< lease id allocator cursor
  friend bool operator==(const ControllerSnapshot&,
                         const ControllerSnapshot&) = default;
};

/// What a delta compaction folds into the retained snapshot: the tenant
/// entries (controller and engine) that changed since it was taken, and
/// the small global fields in full. Applying it to the retained snapshot
/// yields exactly the controller's snapshot().
struct SnapshotDelta {
  /// Every ControllerSnapshot field except the two tenant lists (empty).
  ControllerSnapshot globals;
  std::vector<ControllerSnapshot::Tenant> tenants;  ///< upserted entries
  std::vector<std::int64_t> erased_tenants;
  std::vector<placement::EngineSnapshot::Tenant> engine_tenants;
  std::vector<placement::TenantId> erased_engine_tenants;
};

/// Append-only op log with chained checksums and compacted snapshots.
/// Owns its own MetricsRegistry (`controller.journal.*`) because the
/// journal outlives controller crashes — the counters must too.
class DeltaJournal {
 public:
  DeltaJournal();

  /// Chain and store one record (write-ahead: call before the op
  /// executes). Returns the new chain head.
  std::uint64_t append(JournalRecord rec);

  /// Replace everything up to now with an exact snapshot; subsequent
  /// records chain from the snapshot's digest.
  void compact(ControllerSnapshot snapshot);
  /// The same, but folding only what changed into the retained snapshot
  /// (which must exist unless the delta carries the whole state):
  /// re-encodes, re-hashes and copies only the delta's entries.
  void compact(SnapshotDelta delta);

  bool has_snapshot() const { return retained_.has_value(); }
  /// The retained snapshot, materialized (tenant lists in ascending id).
  /// Requires has_snapshot().
  ControllerSnapshot snapshot() const;
  /// Records appended since the last compaction (oldest first).
  const std::vector<JournalRecord>& records() const { return records_; }
  std::uint64_t chain() const { return chain_; }
  std::int64_t total_appends() const { return m_appends_.value(); }

  /// Recompute the chain from the last trusted base (snapshot-or-genesis,
  /// re-hashing every snapshot entry) and compare against every stored
  /// chain value.
  bool verify() const;

  /// Durable byte form (what a deployment would fsync). deserialize()
  /// re-derives and checks every chain value and throws std::runtime_error
  /// on any corruption or truncation.
  std::string serialize() const;
  static DeltaJournal deserialize(const std::string& bytes);

  /// Called by SiloController::recover_from_journal after a replay.
  void note_replay(std::int64_t replayed_records);

  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// The retained snapshot, keyed by id. Each entry caches the FNV-1a
  /// digest of its encoding; the sums let a compaction update the
  /// snapshot digest in O(changed entries).
  struct Retained {
    template <class T>
    struct Entry {
      T value;
      std::uint64_t digest = 0;
    };
    ControllerSnapshot globals;  ///< tenant lists always empty
    std::uint64_t globals_digest = 0;
    std::map<std::int64_t, Entry<ControllerSnapshot::Tenant>> tenants;
    std::map<placement::TenantId, Entry<placement::EngineSnapshot::Tenant>>
        engine_tenants;
    std::uint64_t tenant_sum = 0;  ///< wrapping sum of tenants' digests
    std::uint64_t engine_sum = 0;  ///< wrapping sum of engine_tenants'
  };

  /// Fold the cached digests into the snapshot digest; with `rehash`,
  /// recompute every entry's digest from its value instead.
  static std::uint64_t digest(const Retained& r, bool rehash);
  /// Check every stored chain value, starting from the given digest of
  /// the retained snapshot (ignored when there is none).
  bool chain_holds(std::uint64_t snapshot_digest) const;

  /// Chain value at the last compaction, before the snapshot digest was
  /// mixed in (FNV offset basis when never compacted). verify() restarts
  /// from here.
  std::uint64_t pre_snapshot_chain_;
  std::optional<Retained> retained_;
  std::vector<JournalRecord> records_;
  std::uint64_t chain_;

  obs::MetricsRegistry metrics_;
  obs::Counter m_appends_;           ///< records ever appended
  obs::Counter m_snapshots_;         ///< compactions performed
  obs::Counter m_compacted_entries_; ///< snapshot entries written or erased
  obs::Counter m_replays_;           ///< recoveries replayed from this journal
  obs::Counter m_replayed_records_;  ///< records replayed across recoveries
};

}  // namespace silo
