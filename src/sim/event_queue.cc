#include "sim/event_queue.h"

#include <algorithm>

#include "sim/cluster.h"
#include "sim/network.h"
#include "sim/parallel.h"
#include "sim/port.h"
#include "sim/transport.h"

namespace silo::sim {

namespace {
bool event_before(TimeNs ta, std::uint64_t sa, TimeNs tb, std::uint64_t sb) {
  return ta != tb ? ta < tb : sa < sb;
}
}  // namespace

void EventQueue::push(const Event& ev) {
  ++size_;
  if (tick_of(ev.time) <= cur_tick_) {
    // Current (or already-passed) tick: joins the sorted due run directly.
    // cur_tick_ can sit ahead of now_ after a run_until peek, so "passed"
    // ticks are possible and ordering is restored by the sorted insert.
    insert_due(ev);
  } else {
    place_in_wheel(ev);
  }
}

void EventQueue::insert_due(const Event& ev) {
  if (due_head_ == due_.size()) {
    due_.clear();
    due_head_ = 0;
    due_.push_back(ev);
    return;
  }
  if (event_before(due_.back().time, due_.back().seq, ev.time, ev.seq)) {
    due_.push_back(ev);  // common case: later than everything pending
    return;
  }
  const auto pos = std::upper_bound(
      due_.begin() + static_cast<std::ptrdiff_t>(due_head_), due_.end(), ev,
      [](const Event& a, const Event& b) {
        return event_before(a.time, a.seq, b.time, b.seq);
      });
  due_.insert(pos, ev);
}

void EventQueue::place_in_wheel(const Event& ev) {
  const std::uint64_t tick = tick_of(ev.time);
  if ((tick >> kSlotBits) == (cur_tick_ >> kSlotBits)) {
    const auto slot = static_cast<std::uint32_t>(tick & kSlotMask);
    wheel_[0][slot].push_back(ev);
    occupied_[0][slot >> 6] |= 1ull << (slot & 63);
  } else if ((tick >> (2 * kSlotBits)) == (cur_tick_ >> (2 * kSlotBits))) {
    const auto slot = static_cast<std::uint32_t>((tick >> kSlotBits) & kSlotMask);
    wheel_[1][slot].push_back(ev);
    occupied_[1][slot >> 6] |= 1ull << (slot & 63);
  } else {
    overflow_.push(ev);
  }
}

int EventQueue::find_slot(const std::uint64_t* bits, int from) {
  if (from >= kSlots) return -1;
  int word = from >> 6;
  std::uint64_t w = bits[word] & (~0ull << (from & 63));
  for (;;) {
    if (w != 0)
      return (word << 6) + static_cast<int>(__builtin_ctzll(w));
    if (++word >= kSlots / 64) return -1;
    w = bits[word];
  }
}

void EventQueue::take_slot(int level, std::uint32_t slot) {
  occupied_[level][slot >> 6] &= ~(1ull << (slot & 63));
  if (level == 0) {
    // Becomes the due run: sort by (time, seq) — slot order is insertion
    // order, so the sort restores the exact global tie-break contract.
    due_.clear();
    due_head_ = 0;
    due_.swap(wheel_[0][slot]);  // recycles both vectors' capacity
    std::sort(due_.begin(), due_.end(), [](const Event& a, const Event& b) {
      return event_before(a.time, a.seq, b.time, b.seq);
    });
  } else {
    // Cascade one level-1 slot into level 0; cur_tick_ already points at
    // the slot's first tick so every event lands in the level-0 window.
    auto& bucket = wheel_[1][slot];
    for (const Event& ev : bucket) {
      const std::uint64_t tick = tick_of(ev.time);
      const auto s0 = static_cast<std::uint32_t>(tick & kSlotMask);
      wheel_[0][s0].push_back(ev);
      occupied_[0][s0 >> 6] |= 1ull << (s0 & 63);
    }
    bucket.clear();
  }
}

bool EventQueue::advance() {
  for (;;) {
    // Next occupied level-0 slot in the current 256-tick group.
    const int s0 = find_slot(occupied_[0],
                             static_cast<int>(cur_tick_ & kSlotMask));
    if (s0 >= 0) {
      cur_tick_ = (cur_tick_ & ~kSlotMask) | static_cast<std::uint64_t>(s0);
      take_slot(0, static_cast<std::uint32_t>(s0));
      return true;
    }
    // Level 0 exhausted: cascade the next occupied level-1 slot of the
    // current 65536-tick group.
    const std::uint64_t group = cur_tick_ >> kSlotBits;
    const int s1 =
        find_slot(occupied_[1], static_cast<int>(group & kSlotMask) + 1);
    if (s1 >= 0) {
      cur_tick_ = ((group & ~kSlotMask) | static_cast<std::uint64_t>(s1))
                  << kSlotBits;
      take_slot(1, static_cast<std::uint32_t>(s1));
      continue;
    }
    // Both wheels empty: jump to the overflow heap's earliest super-group
    // and drain that whole 16.8 ms window into the wheels.
    if (overflow_.empty()) return false;
    const std::uint64_t super = tick_of(overflow_.top().time) >> (2 * kSlotBits);
    cur_tick_ = super << (2 * kSlotBits);
    while (!overflow_.empty() &&
           (tick_of(overflow_.top().time) >> (2 * kSlotBits)) == super) {
      place_in_wheel(overflow_.top());
      overflow_.pop();
    }
  }
}

bool EventQueue::prepare_next() {
  if (due_head_ != due_.size()) return true;
  if (size_ == 0) return false;
  return advance();
}

void EventQueue::run_callback(const Event& ev) {
  // Free the slot before invoking so a reentrant at() can recycle it.
  Callback cb = std::move(cb_slots_[ev.arg]);
  cb_slots_[ev.arg] = nullptr;
  cb_free_.push_back(ev.arg);
  cb();
}

void EventQueue::dispatch(const Event& ev) {
  switch (ev.kind) {
    case EventKind::kCallback:
      run_callback(ev);
      break;
    case EventKind::kRawCall:
      reinterpret_cast<RawFn>(ev.aux)(ev.target, ev.arg);
      break;
    case EventKind::kPortTxDone:
      static_cast<SwitchPortSim*>(ev.target)->handle_tx_done(ev.arg);
      break;
    case EventKind::kPortDeliver:
      static_cast<SwitchPortSim*>(ev.target)->handle_deliver(ev.arg);
      break;
    case EventKind::kHostRelease:
      static_cast<Host*>(ev.target)->handle_release(ev.arg, ev.aux);
      break;
    case EventKind::kHostBuild:
      static_cast<Host*>(ev.target)->handle_build(ev.aux);
      break;
    case EventKind::kHostBatchEnd:
      static_cast<Host*>(ev.target)->handle_batch_end();
      break;
    case EventKind::kHostIngress:
      static_cast<Host*>(ev.target)->handle_ingress(ev.arg);
      break;
    case EventKind::kFlowRtoTimer:
      static_cast<TcpFlow*>(ev.target)->rto_timer_fired();
      break;
    case EventKind::kFlowTsqRetry:
      static_cast<TcpFlow*>(ev.target)->handle_tsq_retry();
      break;
    case EventKind::kClusterRebalance:
      static_cast<ClusterSim*>(ev.target)->rebalance_tenant(
          static_cast<int>(ev.arg));
      break;
    case EventKind::kClusterLeaseEpoch:
      static_cast<ClusterSim*>(ev.target)->lease_epoch_tick();
      break;
    case EventKind::kIslandArrival:
      static_cast<IslandGateway*>(ev.target)->handle_arrival(ev.arg);
      break;
  }
}

}  // namespace silo::sim
