// Pacer configuration protocol between the controller and the per-server
// hypervisor pacer (the prototype's NDIS filter driver).
//
// The controller's admission/recovery decisions materialize as
// PacerConfigRecords — one per guaranteed VM, naming the server that hosts
// it, its {B, S, d, Bmax} guarantee and its peer VMs. Historically the
// controller pushed a *full snapshot* of every server's records after each
// change; at datacenter scale (32K servers, thousands of tenants) that is
// quadratic. The incremental protocol here ships a PacerConfigDelta per
// *affected* server instead: a batch of keyed removals and upserts that a
// PacerConfigTable folds into its state. Applying every delta in emission
// order reproduces the full snapshot bit for bit — the controller tests
// pin table checksums against freshly computed snapshots.
//
// Header-only on purpose: the pacer library sits below the controller in
// the link graph, so both sides share these types without a dependency
// cycle.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "model/guarantee.h"
#include "util/fnv.h"

namespace silo {

/// One VM's pacing assignment on a server — everything the hypervisor
/// needs to enforce the tenant's guarantees locally.
struct PacerConfigRecord {
  std::int64_t tenant = -1;
  int vm_index = 0;   ///< tenant-local VM id
  int server = 0;
  SiloGuarantee guarantee;
  /// (tenant-local VM id, server) of every peer VM: the hypervisor keys
  /// its per-destination token buckets and EyeQ coordination off these.
  std::vector<std::pair<int, int>> peers;
};

/// Epoch-bounded loan of an idle owner's reserved uplink rate to a
/// colocated borrower VM (EyeQ/QShare-style work conservation, see
/// docs/WORKCONSERVING.md). A lease is an *overlay*: it never edits the
/// owner's PacerConfigRecord, and it dies automatically once the applying
/// table's epoch reaches `expiry_epoch` — so a returning owner can never
/// be outlived by its own lent headroom, even if every revoke delta is
/// lost on the control channel.
struct PacerLeaseRecord {
  std::uint64_t id = 0;        ///< issuer-unique lease id
  std::int64_t owner = -1;     ///< lending (guaranteed) tenant
  std::int64_t borrower = -1;  ///< borrowing tenant
  int vm_index = 0;            ///< borrower-local VM id receiving the rate
  int server = 0;              ///< server both VMs share
  RateBps rate {};             ///< extra send rate on loan
  std::uint64_t issued_epoch = 0;
  std::uint64_t expiry_epoch = 0;  ///< dead once table epoch >= this
  friend bool operator==(const PacerLeaseRecord&,
                         const PacerLeaseRecord&) = default;
};

/// Incremental update to one server's pacer state. Removals apply before
/// upserts, so a VM that moved onto this server within one recovery pass
/// ends up present exactly once. Lease fields default to no-ops so the
/// admission/recovery paths are byte-for-byte unaffected by lending.
struct PacerConfigDelta {
  int server = -1;
  /// (tenant, vm_index) keys whose records leave this server.
  std::vector<std::pair<std::int64_t, int>> removes;
  /// Records added or replaced on this server.
  std::vector<PacerConfigRecord> upserts;
  /// Issuer's lease epoch when this delta was emitted; 0 = issuer is not
  /// running lease epochs (legacy deltas). Applying tables adopt the max.
  std::uint64_t lease_epoch = 0;
  /// Lease ids revoked early (owner demand returned before expiry).
  std::vector<std::uint64_t> lease_removes;
  /// Leases granted or extended on this server.
  std::vector<PacerLeaseRecord> lease_upserts;
};

/// What PacerConfigTable::apply observed while folding a delta in.
/// `stale_removes` is a protocol smell (a remove for a key that was never
/// present) that the control channel reports; `lease_expired` is the
/// benign race of a revoke arriving after the lease already died by epoch
/// expiry — counted separately so anti-entropy does not flag clean expiry.
struct PacerApplyResult {
  int stale_removes = 0;
  int lease_expired = 0;
};

namespace detail {

/// The rate's IEEE-754 bit pattern: what the checksum folds and what the
/// exact record comparison compares.
inline std::uint64_t rate_bits(RateBps r) {
  return std::bit_cast<std::uint64_t>(r.bps());
}

/// One record's contribution to pacer_config_checksum.
inline void fnv_mix_record(std::uint64_t& h, const PacerConfigRecord& rec) {
  h = fnv1a_word(h, static_cast<std::uint64_t>(rec.tenant));
  h = fnv1a_word(h, static_cast<std::uint64_t>(rec.vm_index));
  h = fnv1a_word(h, static_cast<std::uint64_t>(rec.server));
  h = fnv1a_word(h, rate_bits(rec.guarantee.bandwidth));
  h = fnv1a_word(h, static_cast<std::uint64_t>(rec.guarantee.burst.count()));
  h = fnv1a_word(h, static_cast<std::uint64_t>(rec.guarantee.delay.count()));
  h = fnv1a_word(h, rate_bits(rec.guarantee.burst_rate));
  h = fnv1a_word(h, static_cast<std::uint64_t>(rec.peers.size()));
  for (const auto& [vm, server] : rec.peers) {
    h = fnv1a_word(h, static_cast<std::uint64_t>(vm));
    h = fnv1a_word(h, static_cast<std::uint64_t>(server));
  }
}

/// Field-for-field equality over exactly what fnv_mix_record folds, rates
/// by bit pattern: two records are equal iff they fold the same bytes.
inline bool same_record(const PacerConfigRecord& a,
                        const PacerConfigRecord& b) {
  return a.tenant == b.tenant && a.vm_index == b.vm_index &&
         a.server == b.server &&
         rate_bits(a.guarantee.bandwidth) == rate_bits(b.guarantee.bandwidth) &&
         a.guarantee.burst == b.guarantee.burst &&
         a.guarantee.delay == b.guarantee.delay &&
         rate_bits(a.guarantee.burst_rate) ==
             rate_bits(b.guarantee.burst_rate) &&
         a.peers == b.peers;
}

}  // namespace detail

/// Exact equality of two record sequences: the collision-free oracle for
/// "these fold to the same pacer_config_checksum".
inline bool same_records(std::span<const PacerConfigRecord> a,
                         std::span<const PacerConfigRecord> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    detail::same_record);
}

/// FNV-1a over a record sequence; the golden tests compare delta-built
/// tables against full snapshots through this.
inline std::uint64_t pacer_config_checksum(
    const std::vector<PacerConfigRecord>& records) {
  std::uint64_t h = kFnvTruncatedBasis;
  for (const auto& rec : records) detail::fnv_mix_record(h, rec);
  return h;
}

/// FNV-1a over a lease sequence. Kept *separate* from
/// pacer_config_checksum on purpose: anti-entropy compares config
/// checksums only, because lease divergence self-heals by epoch expiry
/// within one epoch and must not trigger snapshot repairs (see
/// docs/WORKCONSERVING.md "Why leases are outside anti-entropy").
inline std::uint64_t pacer_lease_checksum(
    const std::vector<PacerLeaseRecord>& leases) {
  std::uint64_t h = kFnvTruncatedBasis;
  for (const auto& l : leases) {
    h = fnv1a_word(h, l.id);
    h = fnv1a_word(h, static_cast<std::uint64_t>(l.owner));
    h = fnv1a_word(h, static_cast<std::uint64_t>(l.borrower));
    h = fnv1a_word(h, static_cast<std::uint64_t>(l.vm_index));
    h = fnv1a_word(h, static_cast<std::uint64_t>(l.server));
    h = fnv1a_word(h, detail::rate_bits(l.rate));
    h = fnv1a_word(h, l.issued_epoch);
    h = fnv1a_word(h, l.expiry_epoch);
  }
  return h;
}

/// One server's applied pacer state, keyed by (tenant, vm_index) — the
/// hypervisor-side consumer of PacerConfigDeltas. The records sit in one
/// vector sorted by key: a server holds at most its slot count of them, so
/// a binary search and a short shift beat a tree node per record. Also
/// tracks the active lease overlays and the local lease epoch; expiry is
/// driven by advance_epoch (the server's own clock), never by delta
/// delivery, so a lost revoke can delay *reclamation of borrowed* rate by
/// at most the epochs already promised — never the owner's guarantee.
class PacerConfigTable {
 public:
  /// How many epochs a cleanly-expired lease id is remembered so that a
  /// late-arriving revoke counts as `lease_expired`, not `stale_removes`.
  static constexpr std::uint64_t kExpiredRetentionEpochs = 4;

  PacerConfigTable() = default;
  /// The table that upserting `records` in order into an empty one builds
  /// (the last upsert of a key wins).
  explicit PacerConfigTable(std::vector<PacerConfigRecord> records) {
    records_.reserve(records.size());
    for (auto& rec : records) upsert(std::move(rec));
  }

  /// Folds one delta in (removes before upserts, config before leases).
  PacerApplyResult apply(const PacerConfigDelta& delta) {
    PacerApplyResult res;
    if (!delta.removes.empty() || !delta.upserts.empty()) checksum_.reset();
    for (const auto& key : delta.removes) {
      const auto it = lower_bound(key);
      if (it == records_.end() || key_of(*it) != key)
        ++res.stale_removes;
      else
        records_.erase(it);
    }
    for (const auto& rec : delta.upserts) upsert(rec);
    if (delta.lease_epoch > epoch_) advance_epoch(delta.lease_epoch);
    for (const auto id : delta.lease_removes) {
      if (leases_.erase(id) > 0) continue;
      if (expired_.erase(id) > 0)
        ++res.lease_expired;
      else
        ++res.stale_removes;
    }
    for (const auto& l : delta.lease_upserts) {
      if (l.expiry_epoch <= epoch_) {
        // Dead on arrival: the grant was delayed past its own expiry.
        // Remember the id so the matching revoke is also counted benign.
        expired_.insert_or_assign(l.id, l.expiry_epoch);
        ++res.lease_expired;
        continue;
      }
      leases_.insert_or_assign(l.id, l);
    }
    return res;
  }

  /// Clock-driven epoch advance. Kills every lease with
  /// expiry_epoch <= epoch and returns the casualties (so the host can
  /// withdraw the lent rate from its pacers). Monotonic; no-op backwards.
  std::vector<PacerLeaseRecord> advance_epoch(std::uint64_t epoch) {
    std::vector<PacerLeaseRecord> died;
    if (epoch <= epoch_) return died;
    epoch_ = epoch;
    for (auto it = leases_.begin(); it != leases_.end();) {
      if (it->second.expiry_epoch <= epoch_) {
        expired_.insert_or_assign(it->first, it->second.expiry_epoch);
        died.push_back(it->second);
        it = leases_.erase(it);
      } else {
        ++it;
      }
    }
    // Bound the expired-id memory: once a revoke for a dead lease is this
    // old it would be a genuine protocol bug, not a benign race.
    for (auto it = expired_.begin(); it != expired_.end();) {
      if (it->second + kExpiredRetentionEpochs <= epoch_)
        it = expired_.erase(it);
      else
        ++it;
    }
    return died;
  }

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  std::uint64_t epoch() const { return epoch_; }
  std::size_t lease_count() const { return leases_.size(); }

  /// Records in (tenant, vm_index) order — the same deterministic order
  /// SiloController::server_config emits, so snapshots diff cleanly. The
  /// view lasts until the next apply().
  const std::vector<PacerConfigRecord>& records() const { return records_; }

  /// Active (unexpired) leases in ascending id order.
  std::vector<PacerLeaseRecord> leases() const {
    std::vector<PacerLeaseRecord> out;
    out.reserve(leases_.size());
    for (const auto& [id, l] : leases_) out.push_back(l);
    return out;
  }

  /// pacer_config_checksum(records()), folded over the table in place and
  /// cached until the next apply() that touches records: anti-entropy and
  /// convergence checks ask every server for it, most of them unchanged.
  std::uint64_t checksum() const {
    if (!checksum_) checksum_ = pacer_config_checksum(records_);
    return *checksum_;
  }
  std::uint64_t lease_checksum() const {
    return pacer_lease_checksum(leases());
  }

 private:
  using Key = std::pair<std::int64_t, int>;  ///< (tenant, vm_index)
  static Key key_of(const PacerConfigRecord& r) {
    return {r.tenant, r.vm_index};
  }

  /// The first record whose key is not below `key`.
  std::vector<PacerConfigRecord>::iterator lower_bound(const Key& key) {
    return std::lower_bound(
        records_.begin(), records_.end(), key,
        [](const PacerConfigRecord& r, const Key& k) { return key_of(r) < k; });
  }

  /// Insert or replace by key. Replacing assigns in place, so a copied
  /// record reuses the old one's peers buffer.
  template <class Rec>
  void upsert(Rec&& rec) {
    const auto it = lower_bound(key_of(rec));
    if (it != records_.end() && key_of(*it) == key_of(rec))
      *it = std::forward<Rec>(rec);
    else
      records_.insert(it, std::forward<Rec>(rec));
  }

  std::vector<PacerConfigRecord> records_;  ///< sorted by (tenant, vm_index)
  mutable std::optional<std::uint64_t> checksum_;  ///< of records_, if known
  std::map<std::uint64_t, PacerLeaseRecord> leases_;  ///< by lease id
  /// Cleanly-expired lease ids -> expiry epoch, kept a few epochs so a
  /// racing revoke is classified benign (pruned in advance_epoch).
  std::map<std::uint64_t, std::uint64_t> expired_;
  std::uint64_t epoch_ = 0;
};

}  // namespace silo
