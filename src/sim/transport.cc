#include "sim/transport.h"

#include <algorithm>

namespace silo::sim {

TcpFlow::TcpFlow(EventQueue& events, int flow_id, int src_vm, int dst_vm,
                 int src_server, int dst_server, TcpConfig cfg,
                 SendFn send_data, SendFn send_ack)
    : events_(events),
      cfg_(cfg),
      flow_id_(flow_id),
      src_vm_(src_vm),
      dst_vm_(dst_vm),
      src_server_(src_server),
      dst_server_(dst_server),
      send_data_(std::move(send_data)),
      send_ack_(std::move(send_ack)) {
  cwnd_ = cfg.init_cwnd_pkts * static_cast<double>(cfg.mss);
  ssthresh_ = cfg.max_cwnd_pkts * static_cast<double>(cfg.mss);
  rto_ = cfg.min_rto;
}

void TcpFlow::app_write(Bytes n) {
  // Fresh data on an idle stream starts a new progress epoch, so a long
  // quiet period can never trip the connection deadline by itself.
  if (snd_una_ >= stream_end_) last_progress_ = events_.now();
  stream_end_ += n.count();
  try_send();
}

void TcpFlow::try_send() {
  const auto cwnd_cap = static_cast<std::int64_t>(
      std::min(cwnd_, cfg_.max_cwnd_pkts * static_cast<double>(cfg_.mss)));
  while (snd_next_ < stream_end_) {
    const std::int64_t in_flight = snd_next_ - snd_una_;
    const Bytes len{
        std::min<std::int64_t>(cfg_.mss.count(), stream_end_ - snd_next_)};
    if (in_flight + len.count() > cwnd_cap) break;
    if (can_send_ && !can_send_(dst_vm_, len)) {
      // Pacer backpressure. ACKs usually re-trigger sending, but a flow
      // blocked with nothing outstanding would never hear one — poll.
      if (!tsq_retry_pending_) {
        tsq_retry_pending_ = true;
        events_.schedule_after(250 * kUsec, EventKind::kFlowTsqRetry, this);
      }
      break;
    }
    emit_segment(snd_next_, len, false);
    snd_next_ += len.count();
  }
  if (snd_una_ < snd_next_ && !rto_armed_) arm_rto();
}

void TcpFlow::handle_tsq_retry() {
  tsq_retry_pending_ = false;
  try_send();
}

void TcpFlow::emit_segment(std::int64_t seq, Bytes len, bool retransmit) {
  const PacketHandle h = events_.pool().alloc();
  Packet& p = events_.pool().get(h);
  p.id = next_packet_id_++;
  p.flow_id = flow_id_;
  p.src_vm = src_vm_;
  p.dst_vm = dst_vm_;
  p.src_server = src_server_;
  p.dst_server = dst_server_;
  p.payload = len;
  p.wire_bytes = len + kHeaderBytes;
  p.seq = seq;
  p.enqueue_time = events_.now();
  p.priority = priority_;
  p.remaining = stream_end_ - seq;  // pFabric urgency
  metrics_.segments.inc();
  if (retransmit) metrics_.retransmits.inc();
  events_.pool().stages(h).on_emit(events_.now(), retransmit);
  send_data_(h);
}

void TcpFlow::on_packet(const Packet& p) {
  if (p.is_ack)
    handle_ack(p);
  else
    handle_data(p);
}

void TcpFlow::handle_data(const Packet& p) {
  const std::int64_t start = p.seq;
  const std::int64_t end = p.seq + p.payload.count();
  // `p` may live in the pool arena; copy what the ACK echoes before the
  // alloc below can grow the arena and invalidate the reference.
  const bool ecn_echo = p.ecn_marked;
  const TimeNs data_ts = p.enqueue_time;
  if (end > rcv_next_ && start <= rcv_next_ && ooo_.empty()) {
    // In order with nothing buffered: what the reassembly map below would
    // do in one insert and erase.
    rcv_next_ = end;
    if (on_delivery_) on_delivery_(rcv_next_);
  } else if (end > rcv_next_) {
    // Merge [start, end) into the reassembly map.
    auto [it, inserted] = ooo_.emplace(start, end);
    if (!inserted) it->second = std::max(it->second, end);
    // Coalesce neighbours.
    if (it != ooo_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= it->first) {
        prev->second = std::max(prev->second, it->second);
        it = ooo_.erase(it);
        it = prev;
      }
    }
    auto next = std::next(it);
    while (next != ooo_.end() && it->second >= next->first) {
      it->second = std::max(it->second, next->second);
      next = ooo_.erase(next);
    }
    // Advance in-order delivery point.
    auto head = ooo_.begin();
    if (head->first <= rcv_next_ && head->second > rcv_next_) {
      rcv_next_ = head->second;
      ooo_.erase(head);
      if (on_delivery_) on_delivery_(rcv_next_);
    }
  }
  // Cumulative ACK, echoing the congestion mark and the data timestamp
  // (timestamp option) for RTT sampling.
  const PacketHandle ah = events_.pool().alloc();
  Packet& ack = events_.pool().get(ah);
  ack.id = next_packet_id_++;
  ack.flow_id = flow_id_;
  ack.is_ack = true;
  ack.src_vm = dst_vm_;
  ack.dst_vm = src_vm_;
  ack.src_server = dst_server_;
  ack.dst_server = src_server_;
  ack.wire_bytes = kHeaderBytes;
  ack.ack_seq = rcv_next_;
  ack.ecn_echo = ecn_echo;
  ack.enqueue_time = data_ts;
  ack.priority = priority_;
  // ACK stages are tracked but unused.
  events_.pool().stages(ah).on_emit(events_.now(), false);
  send_ack_(ah);
}

void TcpFlow::arm_rto() {
  // A single outstanding timer event chases a movable deadline: re-arming
  // on every ACK just slides the deadline instead of flooding the event
  // queue with stale timers.
  rto_armed_ = true;
  rto_deadline_ = events_.now() + rto_;
  if (!rto_event_pending_) {
    rto_event_pending_ = true;
    events_.schedule(rto_deadline_, EventKind::kFlowRtoTimer, this);
  }
}

void TcpFlow::rto_timer_fired() {
  rto_event_pending_ = false;
  if (!rto_armed_) return;
  if (events_.now() < rto_deadline_) {
    rto_event_pending_ = true;
    events_.schedule(rto_deadline_, EventKind::kFlowRtoTimer, this);
    return;
  }
  on_rto();
}

void TcpFlow::on_rto() {
  rto_armed_ = false;
  if (snd_una_ >= stream_end_) return;  // everything got acked meanwhile
  rto_events_.push_back(events_.now());
  metrics_.rtos.inc();
  ++consecutive_rtos_;
  const bool retries_exhausted = cfg_.max_consecutive_rtos > 0 &&
                                 consecutive_rtos_ >= cfg_.max_consecutive_rtos;
  const bool deadline_passed =
      cfg_.conn_deadline > TimeNs{0} &&
      events_.now() - last_progress_ >= cfg_.conn_deadline;
  if (retries_exhausted || deadline_passed) {
    abort_connection();
    return;
  }
  ssthresh_ = std::max((snd_next_ - snd_una_) / 2.0,
                       2.0 * static_cast<double>(cfg_.mss));
  cwnd_ = static_cast<double>(cfg_.mss);
  snd_next_ = snd_una_;  // go-back-N
  in_recovery_ = false;
  dupacks_ = 0;
  rto_ = std::min(rto_ * 2, cfg_.max_rto);  // exponential backoff
  try_send();
}

void TcpFlow::abort_connection() {
  // Connection reset: the undelivered tail of the stream is discarded and
  // both endpoints realign on a fresh epoch at stream_end_. Stale packets
  // from before the reset are harmless — old data falls at or below the
  // new rcv_next_ (re-ACKed, not delivered) and old ACKs are below
  // snd_una_. Congestion state restarts as if the flow were new.
  abort_events_.push_back(events_.now());
  metrics_.aborts.inc();
  snd_una_ = snd_next_ = stream_end_;
  rcv_next_ = stream_end_;
  ooo_.clear();
  cwnd_ = cfg_.init_cwnd_pkts * static_cast<double>(cfg_.mss);
  ssthresh_ = cfg_.max_cwnd_pkts * static_cast<double>(cfg_.mss);
  srtt_ = rttvar_ = TimeNs{0};
  rto_ = cfg_.min_rto;
  dupacks_ = 0;
  in_recovery_ = false;
  consecutive_rtos_ = 0;
  last_progress_ = events_.now();
  cancel_rto();
  if (on_abort_) on_abort_();
}

void TcpFlow::dctcp_on_ack(std::int64_t newly_acked, bool marked) {
  dctcp_acked_ += newly_acked;
  if (marked) dctcp_marked_ += newly_acked;
  if (marked && !cut_this_window_) {
    // React once per window, like a fast-retransmit-scale cut scaled by alpha.
    cwnd_ = std::max(static_cast<double>(cfg_.mss), cwnd_ * (1.0 - alpha_ / 2.0));
    ssthresh_ = cwnd_;
    cut_this_window_ = true;
  }
  if (snd_una_ >= dctcp_window_end_) {
    const double f =
        dctcp_acked_ > 0
            ? static_cast<double>(dctcp_marked_) / static_cast<double>(dctcp_acked_)
            : 0.0;
    alpha_ = (1.0 - cfg_.dctcp_g) * alpha_ + cfg_.dctcp_g * f;
    dctcp_acked_ = dctcp_marked_ = 0;
    dctcp_window_end_ = snd_next_;
    cut_this_window_ = false;
  }
}

void TcpFlow::enter_loss_recovery() {
  ssthresh_ = std::max((snd_next_ - snd_una_) / 2.0,
                       2.0 * static_cast<double>(cfg_.mss));
  cwnd_ = ssthresh_;
  in_recovery_ = true;
  recover_seq_ = snd_next_;
  // Classic fast retransmit of the missing head segment; partial ACKs
  // then retransmit subsequent holes (NewReno).
  const Bytes len{
      std::min<std::int64_t>(cfg_.mss.count(), stream_end_ - snd_una_)};
  if (len > Bytes{0}) emit_segment(snd_una_, len, true);
}

void TcpFlow::handle_ack(const Packet& ack) {
  metrics_.acks.inc();
  if (ack.ack_seq > snd_una_) {
    const std::int64_t newly = ack.ack_seq - snd_una_;
    snd_una_ = ack.ack_seq;
    dupacks_ = 0;
    consecutive_rtos_ = 0;
    last_progress_ = events_.now();
    if (in_recovery_) {
      if (snd_una_ >= recover_seq_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;  // deflate after recovery
      } else {
        // NewReno partial ACK: retransmit the next hole immediately.
        const Bytes len{
            std::min<std::int64_t>(cfg_.mss.count(), stream_end_ - snd_una_)};
        if (len > Bytes{0}) emit_segment(snd_una_, len, true);
      }
    }

    // RTT sample from the echoed timestamp.
    const TimeNs rtt = events_.now() - ack.enqueue_time;
    if (rtt > TimeNs{0}) {
      if (srtt_ == TimeNs{0}) {
        srtt_ = rtt;
        rttvar_ = rtt / 2;
      } else {
        const TimeNs err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
        rttvar_ = (3 * rttvar_ + err) / 4;
        srtt_ = (7 * srtt_ + rtt) / 8;
      }
      rto_ = std::clamp(srtt_ + 4 * rttvar_, cfg_.min_rto, cfg_.max_rto);
    }

    if (cfg_.dctcp) dctcp_on_ack(newly, ack.ecn_echo);

    if (!in_recovery_) {
      if (cwnd_ < ssthresh_) {
        cwnd_ += static_cast<double>(newly);  // slow start
      } else {
        cwnd_ += static_cast<double>(cfg_.mss) * static_cast<double>(newly) /
                 cwnd_;  // congestion avoidance
      }
      cwnd_ = std::min(cwnd_, cfg_.max_cwnd_pkts * static_cast<double>(cfg_.mss));
    }

    if (snd_una_ >= snd_next_) {
      cancel_rto();
      if (snd_una_ < stream_end_) try_send();
    } else {
      arm_rto();  // restart for remaining outstanding data
    }
    try_send();
  } else if (snd_next_ > snd_una_) {
    // Duplicate ACK with data outstanding.
    if (cfg_.dctcp) dctcp_on_ack(0, ack.ecn_echo);
    ++dupacks_;
    if (dupacks_ == 3 && !in_recovery_) {
      enter_loss_recovery();
    } else if (in_recovery_) {
      // Reno window inflation: each dupack signals a departed packet,
      // letting new data keep the pipe full during recovery.
      cwnd_ += static_cast<double>(cfg_.mss);
      try_send();
    }
  }
}

}  // namespace silo::sim
