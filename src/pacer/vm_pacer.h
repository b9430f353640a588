// Per-VM pacer (§4.3, Fig. 8): a chain of virtual token buckets stamps each
// packet with its release time.
//
//   top    : one bucket per destination VM, rate B_i with sum(B_i) <= B —
//            the hose-model receiver constraint, coordinated EyeQ-style
//   middle : rate B, depth S — the tenant-visible average rate and burst
//   bottom : rate Bmax, depth one MTU — a burst is sent at Bmax, never
//            at line rate
//
// The stamp is the max of the three conformance times; tokens are consumed
// at the stamped time so that chained buckets compose correctly.
#pragma once

#include <algorithm>
#include <memory>
#include <map>
#include <vector>

#include "model/guarantee.h"
#include "pacer/hose_allocator.h"
#include "pacer/token_bucket.h"

namespace silo::pacer {

class VmPacer {
 public:
  VmPacer(const SiloGuarantee& guarantee, Bytes mtu = kMtu);

  const SiloGuarantee& guarantee() const { return guarantee_; }

  /// EyeQ-style coordination sets the per-destination rate; unknown
  /// destinations default to the full hose rate B until coordinated.
  void set_destination_rate(TimeNs now, int dst, RateBps rate);

  /// Reset every known destination bucket to `rate`. Coordination calls
  /// this before applying fresh allocations so that pairs that went idle
  /// recover the full hose rate instead of keeping a stale small share —
  /// the middle {B, S} bucket still enforces the VM's aggregate curve, so
  /// bursts stay destination-unlimited as §4.1 specifies.
  void reset_destination_rates(TimeNs now, RateBps rate);

  /// Work-conserving overlay (docs/WORKCONSERVING.md): raise this VM's hose
  /// rate to B + `extra` for the lifetime of a lease. Zero restores the
  /// admitted guarantee exactly. The burst depth S is never touched — a
  /// borrower gains average rate, not burst credit, so revocation returns
  /// the pacer to the admitted curve within one token-refill interval.
  void set_lease_rate(TimeNs now, RateBps extra);
  RateBps lease_rate() const { return lease_rate_; }
  /// Current hose rate: the admitted B plus any active lease overlay.
  RateBps hose_rate() const { return guarantee_.bandwidth + lease_rate_; }

  /// Bytes stamped since the last call — the lender's per-epoch demand
  /// signal. Reading clears the counter.
  Bytes take_stamped_bytes();

  /// Stamp a packet toward `dst`: the earliest time >= now at which the
  /// packet conforms to all three buckets. Consumes the tokens.
  TimeNs stamp(TimeNs now, int dst, Bytes bytes) {
    return stamp(now, dest_bucket(dst), bytes);
  }

  /// The stamp the packet *would* get, without consuming tokens — lets a
  /// finite-queue hypervisor drop instead of admitting hopeless packets.
  TimeNs peek(TimeNs now, int dst, Bytes bytes) {
    return peek(now, dest_bucket(dst), bytes);
  }

  /// The top bucket toward `dst`, created at rate B on first use. Buckets
  /// are never erased and map nodes never move, so a caller may keep the
  /// reference for the pacer's lifetime and pass it to the overloads below
  /// instead of looking the destination up per packet.
  TokenBucket& dest_bucket(int dst);
  TimeNs stamp(TimeNs now, TokenBucket& top, Bytes bytes);
  TimeNs peek(TimeNs now, const TokenBucket& top, Bytes bytes) const;

 private:
  SiloGuarantee guarantee_;
  Bytes mtu_;
  TokenBucket bottom_;  // Bmax
  TokenBucket middle_;  // B, S
  std::map<int, TokenBucket> per_dest_;
  RateBps lease_rate_ {};  // work-conserving overlay, 0 when no lease
  Bytes stamped_ {};       // bytes stamped since take_stamped_bytes()
};

/// Owns the pacers of one tenant's VMs and periodically recomputes the
/// per-destination rates from observed demands (the hypervisor-to-
/// hypervisor coordination of §4.3).
class TenantPacerGroup {
 public:
  /// `dst_key_base` translates tenant-local VM indices into the namespace
  /// the pacers' destination buckets are keyed with (global VM ids in the
  /// cluster simulator; 0 for standalone use).
  TenantPacerGroup(const SiloGuarantee& guarantee, int num_vms,
                   Bytes mtu = kMtu, int dst_key_base = 0);

  VmPacer& vm(int i) { return *pacers_.at(i); }
  int size() const { return static_cast<int>(pacers_.size()); }

  /// Recompute hose-fair destination rates from pairwise demands (given
  /// with tenant-local src/dst indices) and push them to the pacers.
  void rebalance(TimeNs now, const std::vector<HoseDemand>& demands);

 private:
  SiloGuarantee guarantee_;
  int dst_key_base_;
  std::vector<std::unique_ptr<VmPacer>> pacers_;
};

}  // namespace silo::pacer
