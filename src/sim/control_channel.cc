#include "sim/control_channel.h"

#include <algorithm>
#include <stdexcept>

#include "core/controller.h"

namespace silo::sim {

namespace {

void check_server(int server, const char* what) {
  if (server < 0 || server >= kMaxChannelServers) throw std::out_of_range(what);
}

}  // namespace

// ---------------------------------------------------------- PacerAgentFleet

PacerAgentFleet::Agent& PacerAgentFleet::agent(int server) {
  check_server(server, "PacerAgentFleet: server id");
  const auto i = static_cast<std::size_t>(server);
  if (i >= agents_.size()) agents_.resize(i + 1);
  agents_[i].touched = true;
  return agents_[i];
}

const PacerAgentFleet::Agent* PacerAgentFleet::find(int server) const {
  if (server < 0 || server >= id_bound()) return nullptr;
  const Agent& a = agents_[static_cast<std::size_t>(server)];
  return a.touched ? &a : nullptr;
}

void PacerAgentFleet::apply_in_order(int server, Agent& agent,
                                     const PacerConfigDelta& delta) {
  agent.table.apply(delta);
  ++agent.next_seq;
  if (hook_) hook_(server, delta);
}

void PacerAgentFleet::drain(int server, Agent& agent, DeliveryResult& result) {
  auto it = agent.pending.begin();
  for (; it != agent.pending.end() && it->first == agent.next_seq; ++it) {
    apply_in_order(server, agent, it->second);
    ++result.applied;
  }
  agent.pending.erase(agent.pending.begin(), it);
}

PacerAgentFleet::DeliveryResult PacerAgentFleet::deliver_delta(
    int server, std::uint64_t epoch, std::int64_t seq,
    const PacerConfigDelta& delta) {
  DeliveryResult result;
  Agent& agent = this->agent(server);
  if (epoch < agent.epoch) {
    result.stale_epoch = 1;
    result.epoch = agent.epoch;
    result.acked_through = agent.next_seq - 1;
    return result;
  }
  if (epoch > agent.epoch) {
    // A new controller incarnation restarts the sequence space; buffered
    // deltas of the dead epoch can never fill their gaps.
    agent.epoch = epoch;
    agent.next_seq = 1;
    agent.pending.clear();
  }
  if (seq < agent.next_seq) {
    result.duplicates = 1;
  } else if (seq == agent.next_seq) {
    apply_in_order(server, agent, delta);
    ++result.applied;
    drain(server, agent, result);
  } else {
    const auto at = std::lower_bound(
        agent.pending.begin(), agent.pending.end(), seq,
        [](const auto& entry, std::int64_t s) { return entry.first < s; });
    if (at == agent.pending.end() || at->first != seq) {
      agent.pending.emplace(at, seq, delta);
      result.gaps = 1;
    } else {
      result.duplicates = 1;
    }
  }
  result.epoch = agent.epoch;
  result.acked_through = agent.next_seq - 1;
  return result;
}

PacerAgentFleet::DeliveryResult PacerAgentFleet::deliver_snapshot(
    int server, std::uint64_t epoch, std::int64_t through_seq,
    const std::vector<PacerConfigRecord>& records) {
  DeliveryResult result;
  Agent& agent = this->agent(server);
  if (epoch < agent.epoch) {
    result.stale_epoch = 1;
    result.epoch = agent.epoch;
    result.acked_through = agent.next_seq - 1;
    return result;
  }
  if (epoch == agent.epoch && through_seq + 1 < agent.next_seq) {
    // A delayed retransmission of a snapshot the agent has already moved
    // past; resetting would roll back later in-order deltas.
    result.duplicates = 1;
    result.epoch = agent.epoch;
    result.acked_through = agent.next_seq - 1;
    return result;
  }
  // Reset-to-snapshot as one delta (removes of everything present, then
  // the snapshot's upserts), so the hook sees the same protocol shape.
  PacerConfigDelta reset;
  reset.server = server;
  reset.removes.reserve(agent.table.size());
  for (const auto& rec : agent.table.records())
    reset.removes.emplace_back(rec.tenant, rec.vm_index);
  reset.upserts = records;
  agent.table.apply(reset);
  if (hook_) hook_(server, reset);
  if (epoch > agent.epoch) {
    agent.epoch = epoch;
    agent.pending.clear();
  } else {
    agent.pending.erase(
        agent.pending.begin(),
        std::upper_bound(
            agent.pending.begin(), agent.pending.end(), through_seq,
            [](std::int64_t s, const auto& entry) { return s < entry.first; }));
  }
  agent.next_seq = through_seq + 1;
  drain(server, agent, result);
  result.epoch = agent.epoch;
  result.acked_through = agent.next_seq - 1;
  return result;
}

std::uint64_t PacerAgentFleet::checksum(int server) const {
  const Agent* a = find(server);
  return a ? a->table.checksum() : pacer_config_checksum({});
}

const PacerConfigTable* PacerAgentFleet::table(int server) const {
  const Agent* a = find(server);
  return a ? &a->table : nullptr;
}

std::vector<int> PacerAgentFleet::servers() const {
  std::vector<int> out;
  for (int s = 0; s < id_bound(); ++s)
    if (agents_[static_cast<std::size_t>(s)].touched) out.push_back(s);
  return out;
}

int PacerAgentFleet::buffered(int server) const {
  const Agent* a = find(server);
  return a ? static_cast<int>(a->pending.size()) : 0;
}

// ----------------------------------------------------------- ControlChannel

ControlChannel::ControlChannel(EventQueue& events, PacerAgentFleet& fleet,
                               const ChannelConfig& cfg)
    : events_(events), fleet_(fleet), cfg_(cfg), rng_(cfg.seed) {
  m_shipped_ = metrics_.counter("controller.channel.shipped", "deltas",
                                "channel");
  m_delivered_ = metrics_.counter("controller.channel.delivered", "messages",
                                  "channel");
  m_applied_ = metrics_.counter("controller.channel.applied", "deltas",
                                "channel");
  m_dropped_ = metrics_.counter("controller.channel.dropped", "messages",
                                "channel");
  m_retries_ = metrics_.counter("controller.channel.retries", "messages",
                                "channel");
  m_abandoned_ = metrics_.counter("controller.channel.abandoned", "messages",
                                  "channel");
  m_duplicates_ = metrics_.counter("controller.channel.duplicates", "messages",
                                   "channel");
  m_gaps_ = metrics_.counter("controller.channel.gaps", "messages", "channel");
  m_stale_epoch_ = metrics_.counter("controller.channel.stale_epoch",
                                    "messages", "channel");
  m_stale_removes_ = metrics_.counter("controller.channel.stale_removes",
                                      "records", "channel");
  m_lease_expired_ = metrics_.counter("controller.channel.lease_expired",
                                      "records", "channel");
  m_desyncs_repaired_ = metrics_.counter("controller.channel.desyncs_repaired",
                                         "repairs", "channel");
  m_ae_rounds_ = metrics_.counter("controller.channel.anti_entropy_rounds",
                                  "rounds", "channel");
  m_convergence_ns_ = metrics_.gauge("controller.channel.convergence_ns", "ns",
                                     "channel");
  if (cfg_.anti_entropy_period > TimeNs{0}) arm_anti_entropy();
}

ControlChannel::Server& ControlChannel::server_state(int server) {
  const auto i = static_cast<std::size_t>(server);
  if (i >= servers_.size()) servers_.resize(i + 1);
  return servers_[i];
}

const ControlChannel::Server* ControlChannel::find_server(int server) const {
  if (server < 0 || server >= static_cast<int>(servers_.size())) return nullptr;
  return &servers_[static_cast<std::size_t>(server)];
}

int ControlChannel::id_bound() const {
  return std::max(static_cast<int>(servers_.size()), fleet_.id_bound());
}

ControlChannel::Outstanding* ControlChannel::find_outstanding(
    int server, std::int64_t seq, std::uint64_t gen) {
  if (server >= static_cast<int>(servers_.size())) return nullptr;
  for (auto& entry : servers_[static_cast<std::size_t>(server)].outstanding)
    if (entry.seq == seq) return entry.gen == gen ? &entry : nullptr;
  return nullptr;
}

void ControlChannel::post(TimeNs delay, Message msg) {
  std::uint32_t index;
  if (!free_messages_.empty()) {
    index = free_messages_.back();
    free_messages_.pop_back();
    messages_[index] = std::move(msg);
  } else {
    index = static_cast<std::uint32_t>(messages_.size());
    messages_.push_back(std::move(msg));
  }
  events_.raw_after(delay, &ControlChannel::on_message, this, index);
}

void ControlChannel::on_message(void* self, std::uint32_t index) {
  auto& ch = *static_cast<ControlChannel*>(self);
  // Take the message out first: handling it may post and reuse the slot.
  const Message msg = std::move(ch.messages_[index]);
  ch.free_messages_.push_back(index);
  switch (msg.kind) {
    case Message::Kind::kDelta:
      ch.on_delivered(msg.server,
                      ch.fleet_.deliver_delta(msg.server, msg.tag, msg.seq,
                                              *msg.payload));
      break;
    case Message::Kind::kSnapshot:
      ch.on_delivered(msg.server,
                      ch.fleet_.deliver_snapshot(msg.server, msg.tag, msg.seq,
                                                 msg.payload->upserts));
      break;
    case Message::Kind::kAck:
      ch.on_ack(msg.server, msg.tag, msg.seq);
      break;
    case Message::Kind::kAckTimeout:
      ch.on_ack_timeout(msg.server, msg.seq, msg.tag);
      break;
    case Message::Kind::kRetry:
      if (const Outstanding* entry =
              ch.find_outstanding(msg.server, msg.seq, msg.tag))
        ch.transmit(msg.server, *entry);
      break;
    case Message::Kind::kAntiEntropy:
      if (msg.tag != ch.ae_generation_) break;  // a restart superseded it
      ch.anti_entropy_round();
      ch.arm_anti_entropy();
      break;
  }
}

TimeNs ControlChannel::hop_delay() {
  TimeNs d = cfg_.delivery_delay;
  if (cfg_.delivery_jitter > TimeNs{0})
    d = d + TimeNs{rng_.uniform_int(0, cfg_.delivery_jitter.count())};
  return d;
}

bool ControlChannel::dropped() {
  if (cfg_.drop_rate <= 0) return false;
  if (rng_.uniform() >= cfg_.drop_rate) return false;
  m_dropped_.inc();
  return true;
}

void ControlChannel::note_disturbance() {
  if (!was_converged_) return;
  was_converged_ = false;
  disturbance_at_ = events_.now();
}

void ControlChannel::check_converged() {
  if (was_converged_ || !converged()) return;
  was_converged_ = true;
  last_convergence_ = events_.now() - disturbance_at_;
  m_convergence_ns_.set(last_convergence_.count());
}

void ControlChannel::ship(std::vector<PacerConfigDelta> deltas) {
  for (const auto& delta : deltas)
    check_server(delta.server, "ControlChannel::ship: server id");
  for (auto& delta : deltas) {
    const int server = delta.server;
    note_disturbance();
    // The shadow is the controller-local authoritative copy — applied
    // reliably at ship time, so stale removes counted here are genuine
    // protocol smells, not reordering artifacts. Revokes that raced a
    // clean epoch expiry are benign and counted apart.
    Server& st = server_state(server);
    const PacerApplyResult shadow_applied = st.shadow.apply(delta);
    st.has_shadow = true;
    m_stale_removes_.inc(shadow_applied.stale_removes);
    m_lease_expired_.inc(shadow_applied.lease_expired);
    st.outstanding.push_back(
        {++st.last_seq,
         std::make_shared<const PacerConfigDelta>(std::move(delta)),
         /*is_snapshot=*/false, /*attempt=*/1, next_gen_++});
    ++total_outstanding_;
    m_shipped_.inc();
    transmit(server, st.outstanding.back());
  }
}

void ControlChannel::transmit(int server, const Outstanding& entry) {
  if (!dropped()) {
    const TimeNs delay = hop_delay();
    post(delay, {entry.is_snapshot ? Message::Kind::kSnapshot
                                   : Message::Kind::kDelta,
                 server, epoch_, entry.seq, entry.payload});
  }
  post(cfg_.ack_timeout,
       {Message::Kind::kAckTimeout, server, entry.gen, entry.seq, nullptr});
}

void ControlChannel::on_delivered(int server,
                                  const PacerAgentFleet::DeliveryResult& r) {
  m_delivered_.inc();
  m_applied_.inc(r.applied);
  m_duplicates_.inc(r.duplicates);
  m_gaps_.inc(r.gaps);
  m_stale_epoch_.inc(r.stale_epoch);
  if (r.stale_epoch) return;  // the dead incarnation gets no answer
  if (dropped()) return;
  post(hop_delay(),
       {Message::Kind::kAck, server, r.epoch, r.acked_through, nullptr});
}

void ControlChannel::on_ack(int server, std::uint64_t epoch,
                            std::int64_t acked_through) {
  if (epoch != epoch_) return;  // ack for a previous incarnation
  if (server >= static_cast<int>(servers_.size())) return;
  auto& outstanding = servers_[static_cast<std::size_t>(server)].outstanding;
  if (outstanding.empty()) return;
  // Cumulative ack: everything at or below the agent's contiguous cursor
  // has landed (snapshot entries are keyed by their through_seq).
  auto end = outstanding.begin();
  while (end != outstanding.end() && end->seq <= acked_through) ++end;
  total_outstanding_ -= end - outstanding.begin();
  outstanding.erase(outstanding.begin(), end);
  check_converged();
}

void ControlChannel::on_ack_timeout(int server, std::int64_t seq,
                                    std::uint64_t gen) {
  Outstanding* entry = find_outstanding(server, seq, gen);
  if (!entry) return;
  if (entry->attempt >= cfg_.retry.max_attempts) {
    // Give up; the anti-entropy sweep is the backstop for this server.
    m_abandoned_.inc();
    auto& outstanding = servers_[static_cast<std::size_t>(server)].outstanding;
    outstanding.erase(outstanding.begin() + (entry - outstanding.data()));
    --total_outstanding_;
    return;
  }
  ++entry->attempt;
  m_retries_.inc();
  const TimeNs backoff = retry_delay(cfg_.retry, entry->attempt, rng_);
  post(backoff, {Message::Kind::kRetry, server, gen, seq, nullptr});
}

void ControlChannel::ship_repair(int server) {
  Server& st = server_state(server);
  // The snapshot supersedes anything still queued for this server.
  total_outstanding_ -= static_cast<std::int64_t>(st.outstanding.size());
  st.outstanding.clear();
  note_disturbance();
  auto snapshot = std::make_shared<PacerConfigDelta>();
  snapshot->server = server;
  snapshot->upserts = st.shadow.records();
  st.has_shadow = true;
  st.outstanding.push_back({st.last_seq, std::move(snapshot),
                            /*is_snapshot=*/true, /*attempt=*/1, next_gen_++});
  ++total_outstanding_;
  m_desyncs_repaired_.inc();
  transmit(server, st.outstanding.back());
}

int ControlChannel::anti_entropy_round() {
  m_ae_rounds_.inc();
  int repairs = 0;
  // Ascending server id: the sweep order (and thus every rng draw the
  // repairs make) is deterministic. A real agent reports a checksum, so
  // that is what the sweep compares. Ids neither side knows compare equal
  // (empty against empty) and are skipped.
  for (int server = 0, n = id_bound(); server < n; ++server) {
    const Server* st = find_server(server);
    if (st && !st->outstanding.empty())
      continue;  // still being retried; don't race the in-flight deltas
    if (shadow_checksum(server) == fleet_.checksum(server) &&
        fleet_.buffered(server) == 0)
      continue;
    ship_repair(server);
    ++repairs;
  }
  check_converged();
  return repairs;
}

void ControlChannel::arm_anti_entropy() {
  post(cfg_.anti_entropy_period,
       {Message::Kind::kAntiEntropy, 0, ae_generation_, 0, nullptr});
}

void ControlChannel::restart(const SiloController& ctl) {
  ++epoch_;
  ++ae_generation_;
  for (auto& st : servers_) st = Server{};
  total_outstanding_ = 0;
  // Shadow = the recovered controller's shipped state, over every server
  // either side knows about (an agent may hold records for a server the
  // new controller no longer paces — it needs an explicit empty shadow so
  // anti-entropy wipes it).
  const auto adopt = [&](int server) {
    Server& st = server_state(server);
    if (st.has_shadow) return;
    st.shadow = PacerConfigTable(ctl.server_config(server));
    st.has_shadow = true;
  };
  for (const int server : ctl.paced_servers()) adopt(server);
  for (const int server : fleet_.servers()) adopt(server);
  was_converged_ = true;  // force a fresh disturbance window
  note_disturbance();
  check_converged();  // an empty fleet may already be converged
  if (cfg_.anti_entropy_period > TimeNs{0}) arm_anti_entropy();
}

bool ControlChannel::converged() const {
  if (total_outstanding_ != 0) return false;
  for (int server = 0, n = id_bound(); server < n; ++server) {
    if (fleet_.buffered(server) != 0) return false;
    const Server* st = find_server(server);
    const PacerConfigTable* agent = fleet_.table(server);
    const std::span<const PacerConfigRecord> none;
    if (!same_records(st ? st->shadow.records() : none,
                      agent ? agent->records() : none))
      return false;
  }
  return true;
}

std::uint64_t ControlChannel::shadow_checksum(int server) const {
  const Server* st = find_server(server);
  return st ? st->shadow.checksum() : pacer_config_checksum({});
}

std::vector<int> ControlChannel::shadow_servers() const {
  std::vector<int> out;
  for (int s = 0; s < static_cast<int>(servers_.size()); ++s)
    if (servers_[static_cast<std::size_t>(s)].has_shadow) out.push_back(s);
  return out;
}

}  // namespace silo::sim
