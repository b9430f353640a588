#include "sim/network.h"

#include <algorithm>
#include <stdexcept>

namespace silo::sim {

Fabric::Fabric(const topology::Topology& topo,
               const PortConfig& port_template, std::vector<int> port_island,
               const std::vector<EventQueue*>& island_queues)
    : topo_(topo), port_island_(std::move(port_island)) {
  ports_.resize(static_cast<std::size_t>(topo.num_ports()));
  for (int i = 0; i < topo.num_ports(); ++i) {
    PortConfig cfg = port_template;
    cfg.rate = topo.port(topology::PortId{i}).rate;
    cfg.buffer = topo.port(topology::PortId{i}).buffer;
    const int island = port_island_[static_cast<std::size_t>(i)];
    EventQueue* q = island_queues.at(static_cast<std::size_t>(island));
    ports_[static_cast<std::size_t>(i)] = std::make_unique<SwitchPortSim>(
        *q, cfg,
        [this, island, q](PacketHandle h) { advance(island, *q, h); });
    ports_[static_cast<std::size_t>(i)]->set_location(i);
  }
}

void Fabric::ingress_from_host(int island, EventQueue& q, PacketHandle h) {
  Packet& p = q.pool().get(h);
  if (p.is_void) {  // first-hop switch drops void frames
    q.pool().free(h);
    return;
  }
  p.hop = 1;  // path[0] (the NIC egress) was the host's wire
  advance(island, q, h);
}

void Fabric::advance(int island, EventQueue& q, PacketHandle h) {
  Packet& p = q.pool().get(h);
  const topology::PortSpan path = topo_.path_span(p.src_server, p.dst_server);
  if (p.hop >= path.size) {
    if (deliver_)
      deliver_(island, q, h);
    else
      q.pool().free(h);
    return;
  }
  // In island mode the next hop is always island-local: a transmission
  // whose next queue lives elsewhere was claimed by the egress handoff
  // hook and re-enters through the destination island's gateway instead.
  const auto port_id = path.port[static_cast<std::size_t>(p.hop)];
  ++p.hop;
  ports_[static_cast<std::size_t>(port_id.value)]->enqueue(h);
}

std::int64_t Fabric::total_drops() const {
  std::int64_t total = 0;
  for (const auto& port : ports_) total += port->stats().drops;
  return total;
}

std::int64_t Fabric::total_ecn_marks() const {
  std::int64_t total = 0;
  for (const auto& port : ports_) total += port->stats().ecn_marks;
  return total;
}

std::int64_t Fabric::total_fault_drops() const {
  std::int64_t total = 0;
  for (const auto& port : ports_) total += port->stats().fault_drops;
  return total;
}

Host::Host(EventQueue& events, Fabric& fabric, int server_id,
           const Config& cfg)
    : events_(events),
      fabric_(fabric),
      server_id_(server_id),
      cfg_(cfg),
      nic_(cfg.link_rate, cfg.nic_mode, cfg.batch_window) {
  PortConfig lo;
  lo.rate = cfg.loopback_rate;
  lo.buffer = cfg.loopback_buffer;
  lo.link_delay = cfg.loopback_delay;
  loopback_ =
      std::make_unique<SwitchPortSim>(events, lo, [this](PacketHandle h) {
        if (local_deliver_)
          local_deliver_(h);
        else
          events_.pool().free(h);
      });
  loopback_->set_location(obs::host_location(server_id));
}

void Host::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (up) {
    loopback_->set_link_up(true);
    return;
  }
  // Crash: everything parked on this server dies. Per-VM pacer queues,
  // the NIC batch queue (slot ids are pool handles) and the loopback
  // vswitch all hold live handles that must go back to the pool.
  for (PacedVm& v : paced_) {
    for (DestQueue& dq : v.dests) {
      for (const Queued& e : dq.q) drop_faulted(e.handle);
      dq.q.clear();
      dq.bytes = Bytes{0};
    }
  }
  for (const std::uint64_t id : nic_.drain())
    drop_faulted(static_cast<PacketHandle>(id));
  loopback_->set_link_up(false);
}

void Host::drop_faulted(PacketHandle h) {
  ++fault_drops_;
  metrics_.fault_drops.inc();
  record_flight(events_, events_.pool().get(h), obs::FlightEventType::kDropped,
                obs::host_location(server_id_), /*fault=*/true);
  events_.pool().free(h);
}

void Host::attach_pacer(int global_vm, pacer::VmPacer* pacer) {
  if (find_paced(global_vm) != nullptr)
    throw std::logic_error("Host: VM already has a pacer");
  PacedVm& v = paced_.emplace_back();
  v.vm = global_vm;
  v.pacer = pacer;
}

Host::PacedVm* Host::find_paced(int vm) {
  for (PacedVm& v : paced_)
    if (v.vm == vm) return &v;
  return nullptr;
}

std::vector<Host::DestQueue>::iterator Host::lower_dest(PacedVm& v, int dst) {
  return std::lower_bound(
      v.dests.begin(), v.dests.end(), dst,
      [](const DestQueue& dq, int d) { return dq.dst < d; });
}

void Host::send(PacketHandle h) {
  if (!up_) {
    drop_faulted(h);
    return;
  }
  const Packet& p = events_.pool().get(h);
  if (p.dst_server == server_id_) {
    // VM-to-VM on the same server: the virtual switch forwards internally
    // at memory speed — fast, but a finite, contended resource.
    loopback_->enqueue(h);
    return;
  }
  if (PacedVm* v = find_paced(p.src_vm)) {
    auto dq = lower_dest(*v, p.dst_vm);
    if (dq == v->dests.end() || dq->dst != p.dst_vm) {
      // First packet toward dst: its bucket is created here, in the send
      // that first queues toward it, before any rebalance can touch it.
      dq = v->dests.emplace(dq);
      dq->dst = p.dst_vm;
      dq->bucket = &v->pacer->dest_bucket(p.dst_vm);
    }
    if (dq->bytes + p.wire_bytes > cfg_.pacer_queue_cap) {
      ++pacer_drops_;  // finite driver queue
      metrics_.pacer_drops.inc();
      record_flight(events_, p, obs::FlightEventType::kDropped,
                    obs::host_location(server_id_));
      events_.pool().free(h);
      return;
    }
    dq->bytes += p.wire_bytes;
    dq->q.push_back({h, p.wire_bytes});
    schedule_release(static_cast<std::uint32_t>(v - paced_.data()));
    return;
  }
  hand_to_nic(h, p.wire_bytes, events_.now());
}

void Host::hand_to_nic(PacketHandle h, Bytes wire_bytes, TimeNs release) {
  if (release > events_.now()) metrics_.throttled.inc();
  if (obs::FlightRecorder* r = events_.flight_recorder()) {
    const Packet& p = events_.pool().get(h);
    obs::FlightEvent e;
    e.at = release;  // when the pacer allows the first bit on the wire
    e.packet_id = p.id;
    e.seq = p.seq;
    e.flow_id = p.flow_id;
    e.location = obs::host_location(server_id_);
    e.bytes = static_cast<std::int32_t>(p.wire_bytes);
    e.type = obs::FlightEventType::kPaced;
    e.is_ack = p.is_ack;
    r->record(e);
  }
  // The NIC slot id *is* the packet handle — no side map needed.
  nic_.enqueue(release, wire_bytes, h);
  kick();
}

void Host::schedule_release(std::uint32_t index) {
  PacedVm& v = paced_[index];
  // Earliest conformance over the head packets of all destination queues.
  TimeNs best {-1};
  for (const DestQueue& dq : v.dests) {
    if (dq.q.empty()) continue;
    const TimeNs t =
        v.pacer->peek(events_.now(), *dq.bucket, dq.q.front().wire_bytes);
    if (best < TimeNs{0} || t < best) best = t;
  }
  if (best < TimeNs{0}) return;  // all queues empty
  // Eligible one batch window early (NIC lookahead for void filling).
  const TimeNs when =
      std::max(events_.now(), best - nic_.batch_window());
  if (v.release_scheduled && v.scheduled_at <= when) return;
  v.release_scheduled = true;
  v.scheduled_at = when;
  const std::uint64_t gen = ++v.generation;
  events_.schedule(when, EventKind::kHostRelease, this, index, gen);
}

void Host::handle_release(std::uint32_t index, std::uint64_t generation) {
  PacedVm& v = paced_[index];
  if (generation != v.generation || !v.release_scheduled) return;
  v.release_scheduled = false;
  // Re-derive the winner at release time (arrivals may have changed it).
  // Backlogged destinations tie on the shared-bucket conformance time, so
  // ties rotate round-robin after the last served destination — a strict
  // "<" would let the lowest id starve every other queue.
  TimeNs best {-1};
  DestQueue* winner = nullptr;
  for (DestQueue& dq : v.dests) {
    if (dq.q.empty()) continue;
    const TimeNs t =
        v.pacer->peek(events_.now(), *dq.bucket, dq.q.front().wire_bytes);
    const bool wins = winner == nullptr || t < best ||
                      (t == best && winner->dst <= v.last_served &&
                       dq.dst > v.last_served);
    if (wins) {
      best = t;
      winner = &dq;
    }
  }
  if (winner == nullptr) return;
  v.last_served = winner->dst;
  // Release packets whose conformance falls within one NIC batch window —
  // the lookahead Paced IO Batching needs to build void-filled batches.
  // The shared-bucket cross-charging this allows is bounded by one window
  // of bytes, which is negligible skew.
  if (best > events_.now() + nic_.batch_window()) {
    schedule_release(index);
    return;
  }
  const Queued e = winner->q.front();
  winner->q.pop_front();
  winner->bytes -= e.wire_bytes;
  const TimeNs release =
      v.pacer->stamp(events_.now(), *winner->bucket, e.wire_bytes);
  hand_to_nic(e.handle, e.wire_bytes, release);
  schedule_release(index);
}

TimeNs Host::pacer_delay(TimeNs now, int src_vm, int dst_vm, Bytes bytes) {
  PacedVm* v = find_paced(src_vm);
  if (v == nullptr) return TimeNs{0};
  const TimeNs head_wait = v->pacer->peek(now, dst_vm, bytes) - now;
  const auto dq = lower_dest(*v, dst_vm);
  if (dq == v->dests.end() || dq->dst != dst_vm) return head_wait;
  // Queued bytes drain at (at least) the VM's hose rate.
  const double drain = static_cast<double>(dq->bytes + bytes) * 8e9 /
                       v->pacer->guarantee().bandwidth.bps();
  return head_wait + static_cast<TimeNs>(drain);
}

void Host::kick() {
  if (transmitting_) return;  // DMA completion will re-kick
  const TimeNs start = nic_.next_start(events_.now());
  if (start < TimeNs{0}) return;  // queue empty
  if (build_scheduled_ && scheduled_start_ <= start) return;
  build_scheduled_ = true;
  scheduled_start_ = start;
  const std::uint64_t gen = ++build_generation_;
  events_.schedule(start, EventKind::kHostBuild, this, 0, gen);
}

void Host::handle_build(std::uint64_t generation) {
  if (generation != build_generation_ || !build_scheduled_) return;
  build_scheduled_ = false;
  run_batch();
}

void Host::run_batch() {
  const auto& slots = nic_.build_batch(events_.now());
  if (slots.empty()) {
    transmitting_ = false;
    kick();
    return;
  }
  transmitting_ = true;
  metrics_.batches.inc();
  for (const auto& slot : slots) {
    if (slot.is_void) {  // occupies the wire; ToR will not see it
      metrics_.void_packets.inc();
      continue;
    }
    metrics_.data_packets.inc();
    const auto h = static_cast<PacketHandle>(slot.id);
    // Emit -> wire start: pacing delay for paced VMs (token wait + batch
    // alignment), sender-NIC queueing for unpaced ones. Wire start -> end
    // is the NIC's serialization time.
    const bool paced = find_paced(events_.pool().get(h).src_vm) != nullptr;
    obs::PacketStages& st = events_.pool().stages(h);
    st.advance(slot.start, paced ? obs::Stage::kPacing : obs::Stage::kQueueing);
    st.advance(slot.end, obs::Stage::kSerialization);
    events_.schedule(slot.end + cfg_.tor_link_delay, EventKind::kHostIngress,
                     this, h);
  }
  const TimeNs batch_end = slots.back().end;
  events_.schedule(batch_end, EventKind::kHostBatchEnd, this);
}

void Host::handle_batch_end() {
  transmitting_ = false;
  kick();
}

void Host::handle_ingress(PacketHandle h) {
  // Server -> ToR propagation is wire time.
  events_.pool().stages(h).advance(events_.now(), obs::Stage::kSerialization);
  if (!up_) {
    // The server died after this frame was scheduled onto the wire.
    drop_faulted(h);
    return;
  }
  // The first fabric hop (this server's rack) is always island-local.
  fabric_.ingress_from_host(cfg_.island, events_, h);
}

}  // namespace silo::sim
