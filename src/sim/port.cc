#include "sim/port.h"

#include <algorithm>

#include "util/fnv.h"

namespace silo::sim {

namespace {

/// Uniform in [0, 1): an FNV-1a fold of the port's loss key and the
/// packet's identity (see SwitchPortSim::set_loss), top 53 bits.
double loss_draw(std::uint64_t seed, std::int32_t port, const Packet& p) {
  std::uint64_t h = fnv1a_word(kFnvOffsetBasis, seed);
  h = fnv1a_word(h, static_cast<std::uint64_t>(port));
  h = fnv1a_word(h, static_cast<std::uint64_t>(p.src_vm));
  h = fnv1a_word(h, static_cast<std::uint64_t>(p.dst_vm));
  h = fnv1a_word(h, p.is_ack ? 1u : 0u);
  h = fnv1a_word(h, p.id);
  // FNV-1a alone leaves nearby ids correlated; murmur3's finalizer makes
  // the drops independent coin flips.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

void SwitchPortSim::maybe_mark(Packet& p) {
  if (cfg_.phantom_queue) {
    // HULL: a virtual queue drains at a fraction of line rate; marking off
    // it keeps the *real* queue near-empty at the cost of bandwidth headroom.
    const TimeNs now = events_.now();
    const double drained = cfg_.rate.bps() * cfg_.phantom_drain / 8e9 *
                           static_cast<double>(now - phantom_updated_);
    phantom_bytes_ = std::max(0.0, phantom_bytes_ - drained);
    phantom_updated_ = now;
    phantom_bytes_ += static_cast<double>(p.wire_bytes);
    if (phantom_bytes_ > static_cast<double>(cfg_.phantom_threshold)) {
      p.ecn_marked = true;
      ++stats_.ecn_marks;
      metrics_.ecn_marks.inc();
    }
    return;
  }
  if (cfg_.ecn_threshold > Bytes{0} && queued_bytes_ > cfg_.ecn_threshold) {
    p.ecn_marked = true;
    ++stats_.ecn_marks;
    metrics_.ecn_marks.inc();
  }
}

void SwitchPortSim::enqueue_pfabric(PacketHandle h) {
  PacketPool& pool = events_.pool();
  const Packet& p = pool.get(h);
  // Buffer full: evict the queued packet with the most remaining bytes if
  // the newcomer is more urgent; otherwise drop the newcomer. The set is
  // ordered by (remaining, arrival), so the victim — earliest arrival among
  // the largest remaining — is found with one lower_bound from the back.
  while (!pfabric_queue_.empty() &&
         queued_bytes_ + p.wire_bytes > cfg_.buffer) {
    const std::int64_t worst_remaining =
        std::prev(pfabric_queue_.end())->remaining;
    if (worst_remaining <= p.remaining) {
      ++stats_.drops;
      metrics_.drops.inc();
      record_flight(events_, p, obs::FlightEventType::kDropped, location_);
      pool.free(h);
      return;
    }
    const auto worst = pfabric_queue_.lower_bound(
        PfEntry{worst_remaining, 0, {kNullPacket, 0}});
    const Bytes worst_bytes{worst->packet.wire_bytes};
    queued_bytes_ -= worst_bytes;
    audit_leave(worst_bytes);
    ++stats_.drops;
    metrics_.drops.inc();
    record_flight(events_, pool.get(worst->packet.handle),
                  obs::FlightEventType::kDropped, location_);
    pool.free(worst->packet.handle);
    pfabric_queue_.erase(worst);
  }
  if (queued_bytes_ + p.wire_bytes > cfg_.buffer) {
    ++stats_.drops;  // alone it exceeds the buffer
    metrics_.drops.inc();
    record_flight(events_, p, obs::FlightEventType::kDropped, location_);
    pool.free(h);
    return;
  }
  queued_bytes_ += p.wire_bytes;
  audit_accept(p.wire_bytes);
  stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queued_bytes_);
  metrics_.peak_queue_bytes.set_max(queued_bytes_.count());
  metrics_.queue_bytes.record(static_cast<double>(queued_bytes_));
  record_flight(events_, p, obs::FlightEventType::kEnqueued, location_);
  pfabric_queue_.insert(
      PfEntry{p.remaining, pfabric_arrivals_++,
              {h, static_cast<std::uint32_t>(p.wire_bytes.count())}});
  if (!busy_) start_tx();
}

void SwitchPortSim::set_link_up(bool up) {
  if (up == link_up_) return;
  link_up_ = up;
  if (!up) {
    // Queued packets die with the link; the one on the wire (if any) dies
    // at its tx-done. Freeing here, not at restore, keeps the pool's live
    // count honest through the whole outage.
    flush_queues();
  } else if (!busy_) {
    start_tx();  // queues are empty after the flush, but stay consistent
  }
}

void SwitchPortSim::flush_queues() {
  PacketPool& pool = events_.pool();
  const auto drop = [&](const Queued& e) {
    ++stats_.fault_drops;
    metrics_.fault_drops.inc();
    audit_leave(Bytes{e.wire_bytes});
    record_flight(events_, pool.get(e.handle), obs::FlightEventType::kDropped,
                  location_, /*fault=*/true);
    pool.free(e.handle);
  };
  for (auto& q : queue_) {
    for (const Queued& e : q) drop(e);
    q.clear();
  }
  for (const auto& e : pfabric_queue_) drop(e.packet);
  pfabric_queue_.clear();
  queued_bytes_ = Bytes{0};
}

void SwitchPortSim::enqueue(PacketHandle h) {
  if (!link_up_) {
    ++stats_.fault_drops;
    metrics_.fault_drops.inc();
    record_flight(events_, events_.pool().get(h),
                  obs::FlightEventType::kDropped, location_, /*fault=*/true);
    events_.pool().free(h);
    return;
  }
  if (loss_rate_ > 0 &&
      loss_draw(loss_seed_, location_, events_.pool().get(h)) < loss_rate_) {
    ++stats_.fault_drops;
    metrics_.fault_drops.inc();
    record_flight(events_, events_.pool().get(h),
                  obs::FlightEventType::kDropped, location_, /*fault=*/true);
    events_.pool().free(h);
    return;
  }
  if (cfg_.pfabric) {
    enqueue_pfabric(h);
    return;
  }
  Packet& p = events_.pool().get(h);
  if (queued_bytes_ + p.wire_bytes > cfg_.buffer) {
    ++stats_.drops;
    metrics_.drops.inc();
    record_flight(events_, p, obs::FlightEventType::kDropped, location_);
    events_.pool().free(h);
    return;
  }
  maybe_mark(p);
  queued_bytes_ += p.wire_bytes;
  audit_accept(p.wire_bytes);
  stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queued_bytes_);
  metrics_.peak_queue_bytes.set_max(queued_bytes_.count());
  metrics_.queue_bytes.record(static_cast<double>(queued_bytes_));
  record_flight(events_, p, obs::FlightEventType::kEnqueued, location_);
  queue_[static_cast<int>(p.priority)].push_back(
      {h, static_cast<std::uint32_t>(p.wire_bytes.count())});
  if (!busy_) start_tx();
}

SwitchPortSim::Queued SwitchPortSim::dequeue_next() {
  if (cfg_.pfabric) {
    if (pfabric_queue_.empty()) return {kNullPacket, 0};
    // Head of the set: fewest remaining bytes, earliest arrival among ties.
    const auto best = pfabric_queue_.begin();
    const Queued e = best->packet;
    pfabric_queue_.erase(best);
    return e;
  }
  auto& q = !queue_[0].empty() ? queue_[0] : queue_[1];
  if (q.empty()) return {kNullPacket, 0};
  const Queued e = q.front();
  q.pop_front();
  return e;
}

void SwitchPortSim::start_tx() {
  const Queued e = dequeue_next();
  if (e.handle == kNullPacket) {
    busy_ = false;
    return;
  }
  busy_ = true;
  tx_start_ = events_.now();
  tx_bytes_ = Bytes{e.wire_bytes};
  queued_bytes_ -= tx_bytes_;
  audit_leave(tx_bytes_);
  audit_conserved();
  if (events_.flight_recorder())  // else leave the packet's lines cold
    record_flight(events_, events_.pool().get(e.handle),
                  obs::FlightEventType::kDequeued, location_);
  const TimeNs tx = transmission_time(tx_bytes_ + kEthOverhead, cfg_.rate);
  events_.schedule_after(tx, EventKind::kPortTxDone, this, e.handle);
  // Tx-done is the packet's next touch; its slot has gone cold in queue.
  events_.pool().prefetch(e.handle);
}

void SwitchPortSim::handle_tx_done(PacketHandle h) {
  if (!link_up_) {
    // The link died mid-transmission: the packet never made it across.
    ++stats_.fault_drops;
    metrics_.fault_drops.inc();
    record_flight(events_, events_.pool().get(h),
                  obs::FlightEventType::kDropped, location_, /*fault=*/true);
    events_.pool().free(h);
    start_tx();  // queue was flushed, so this just clears busy_
    return;
  }
  ++stats_.tx_packets;
  stats_.tx_bytes += tx_bytes_.count();
  metrics_.tx_packets.inc();
  metrics_.tx_bytes.inc(tx_bytes_.count());
  // Everything from acceptance to tx start was queue wait, the rest wire
  // time (see tx_start_).
  obs::PacketStages& st = events_.pool().stages(h);
  st.advance(tx_start_, obs::Stage::kQueueing);
  st.advance(events_.now(), obs::Stage::kSerialization);
  // Cross-island egress: if a handoff hook claims the packet, it leaves
  // this island here and re-enters the destination island's queue at the
  // same absolute time a local kPortDeliver would have fired.
  if (handoff_ != nullptr &&
      handoff_->offer(*this, h, events_.now() + cfg_.link_delay)) {
    start_tx();
    return;
  }
  // Hand to the next hop after propagation; transmission of the next
  // packet overlaps with propagation of this one.
  events_.schedule_after(cfg_.link_delay, EventKind::kPortDeliver, this, h);
  start_tx();
}

void SwitchPortSim::handle_deliver(PacketHandle h) {
  // Charge the propagation delay to serialization (wire time, not queue).
  events_.pool().stages(h).advance(events_.now(), obs::Stage::kSerialization);
  deliver_(h);  // ownership moves to the next hop
}

}  // namespace silo::sim
