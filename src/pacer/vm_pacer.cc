#include "pacer/vm_pacer.h"

#include <stdexcept>

namespace silo::pacer {
namespace {

RateBps effective_burst_rate(const SiloGuarantee& g) {
  return g.burst_rate > RateBps{0} ? g.burst_rate : g.bandwidth;
}

}  // namespace

VmPacer::VmPacer(const SiloGuarantee& guarantee, Bytes mtu)
    : guarantee_(guarantee),
      mtu_(mtu),
      bottom_(effective_burst_rate(guarantee), mtu),
      middle_(guarantee.bandwidth, std::max(guarantee.burst, mtu)) {
  if (guarantee.bandwidth <= RateBps{0})
    throw std::invalid_argument("pacer needs a positive bandwidth guarantee");
  if (effective_burst_rate(guarantee) < guarantee.bandwidth)
    throw std::invalid_argument("Bmax must be >= B");
}

TokenBucket& VmPacer::dest_bucket(int dst) {
  auto it = per_dest_.find(dst);
  if (it == per_dest_.end()) {
    it = per_dest_
             .emplace(dst, TokenBucket(guarantee_.bandwidth,
                                       std::max(guarantee_.burst, mtu_)))
             .first;
  }
  return it->second;
}

void VmPacer::reset_destination_rates(TimeNs now, RateBps rate) {
  for (auto& [dst, bucket] : per_dest_) bucket.set_rate(now, rate);
}

void VmPacer::set_lease_rate(TimeNs now, RateBps extra) {
  lease_rate_ = std::max(extra, RateBps{0});
  // The middle bucket carries the lease: average rate B + extra, burst depth
  // unchanged. The bottom bucket must not cap below the lease rate, but also
  // never drops below the admitted Bmax.
  middle_.set_rate(now, hose_rate());
  bottom_.set_rate(now, std::max(effective_burst_rate(guarantee_), hose_rate()));
  // Known destinations recover the full (leased) hose rate; the next
  // coordination round redistributes within the new caps.
  reset_destination_rates(now, hose_rate());
}

Bytes VmPacer::take_stamped_bytes() {
  const Bytes out = stamped_;
  stamped_ = Bytes{0};
  return out;
}

void VmPacer::set_destination_rate(TimeNs now, int dst, RateBps rate) {
  // A zero allocation (idle pair) parks the bucket at a trickle so that
  // the next packet re-triggers coordination instead of blocking forever.
  const RateBps floor = guarantee_.bandwidth * 1e-3;
  dest_bucket(dst).set_rate(now, std::max(rate, floor));
}

TimeNs VmPacer::peek(TimeNs now, const TokenBucket& top, Bytes bytes) const {
  if (bytes <= Bytes{0} || bytes > mtu_)
    throw std::invalid_argument("pacer stamps wire packets of <= one MTU");
  TimeNs t = now;
  t = std::max(t, top.earliest_conformance(t, bytes));
  t = std::max(t, middle_.earliest_conformance(t, bytes));
  t = std::max(t, bottom_.earliest_conformance(t, bytes));
  return t;
}

TimeNs VmPacer::stamp(TimeNs now, TokenBucket& top, Bytes bytes) {
  const TimeNs t = peek(now, top, bytes);
  top.consume(t, bytes);
  middle_.consume(t, bytes);
  bottom_.consume(t, bytes);
  stamped_ += bytes;
  return t;
}

TenantPacerGroup::TenantPacerGroup(const SiloGuarantee& guarantee, int num_vms,
                                   Bytes mtu, int dst_key_base)
    : guarantee_(guarantee), dst_key_base_(dst_key_base) {
  if (num_vms < 1) throw std::invalid_argument("tenant needs >= 1 VM");
  pacers_.reserve(static_cast<std::size_t>(num_vms));
  for (int i = 0; i < num_vms; ++i)
    pacers_.push_back(std::make_unique<VmPacer>(guarantee, mtu));
}

void TenantPacerGroup::rebalance(TimeNs now,
                                 const std::vector<HoseDemand>& demands) {
  // Idle pairs first recover the full hose rate (their last allocation is
  // stale); backlogged pairs then get their max-min hose-fair share. Caps
  // are per-VM so that a lease overlay (hose_rate() > B) survives the
  // coordination round instead of being clipped back to the admitted B.
  std::vector<RateBps> caps;
  caps.reserve(pacers_.size());
  for (auto& p : pacers_) {
    p->reset_destination_rates(now, p->hose_rate());
    caps.push_back(p->hose_rate());
  }
  const auto rates = hose_allocate(demands, caps, caps);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    vm(demands[i].src)
        .set_destination_rate(now, dst_key_base_ + demands[i].dst, rates[i]);
  }
}

}  // namespace silo::pacer
