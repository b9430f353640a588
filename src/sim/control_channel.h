// Lossy control channel between the SiloController and per-server pacer
// agents, with anti-entropy reconciliation.
//
// The controller's PacerConfigDeltas are shipped over a simulated channel
// that can drop, reorder, and delay messages (FaultInjector-drivable).
// Every delta carries an (epoch, per-server sequence number): agents apply
// in order, buffer ahead-of-sequence deltas (gap detection), and discard
// duplicates — so any permutation-with-duplicates of a delta stream
// converges to the in-order result. Undelivered deltas are retried with
// jittered exponential backoff (util/retry.h, as the drivers); a periodic
// anti-entropy sweep walks servers in ascending id order comparing the
// controller-side shadow PacerConfigTable checksum against each agent's
// and ships a full-snapshot repair to any desynced server.
//
// Crash semantics: the PacerAgentFleet is server-side state and survives
// controller crashes; the ControlChannel is controller-side and loses its
// send state with the controller. restart() models the recovered
// controller coming back — it bumps the epoch (agents drop stale-epoch
// messages from the dead incarnation), rebuilds the shadow tables from the
// recovered controller, and lets anti-entropy drive every agent back to
// the shipped state.
//
// Cost model: a shipped delta costs O(its records). Per-server state on
// both sides is flat, indexed by server id and walked in ascending id
// order; each payload is stored once and shared by its outstanding entry
// and every in-flight copy; and every channel event (delivery, ack, ack
// timeout, retry, anti-entropy tick) is a typed EventQueue::raw_after
// event carrying an index into a recycled message table.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "pacer/pacer_config.h"
#include "sim/event_queue.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/units.h"

namespace silo {
class SiloController;
}

namespace silo::sim {

struct ChannelConfig {
  TimeNs delivery_delay = 50 * kUsec;   ///< one-way base latency per hop
  TimeNs delivery_jitter = 20 * kUsec;  ///< uniform extra per hop
  TimeNs ack_timeout = 500 * kUsec;     ///< unacked after this -> retry
  RetryPolicy retry{6, 400 * kUsec, 10 * kMsec, 0.5};
  /// Period of the automatic anti-entropy sweep; 0 means rounds are only
  /// run manually via anti_entropy_round().
  TimeNs anti_entropy_period {};
  double drop_rate = 0;  ///< per one-way hop loss probability
  std::uint64_t seed = 1;
};

/// Server ids the channel and the fleet accept: [0, kMaxChannelServers).
/// Their per-server state is indexed by id, so an id is also a size; the
/// bound is 32x the paper's 32K-server datacenter.
inline constexpr int kMaxChannelServers = 1 << 20;

/// Server-side pacer agents: per-server (epoch, next_seq, gap buffer,
/// applied PacerConfigTable). Survives controller crashes. The optional
/// apply hook observes every in-order applied delta (and snapshot-repair
/// reset deltas), e.g. to mirror state into ClusterSim hosts.
class PacerAgentFleet {
 public:
  using ApplyHook = std::function<void(int server, const PacerConfigDelta&)>;

  struct DeliveryResult {
    std::uint64_t epoch = 0;          ///< agent epoch after processing
    std::int64_t acked_through = 0;   ///< highest contiguous applied seq
    int applied = 0;                  ///< deltas applied in order (+ drained)
    int duplicates = 0;               ///< already-seen seqs discarded
    int gaps = 0;                     ///< ahead-of-seq deltas buffered
    int stale_epoch = 0;              ///< messages from a dead epoch dropped
  };

  void set_apply_hook(ApplyHook hook) { hook_ = std::move(hook); }

  /// Idempotent sequenced apply: duplicates drop, gaps buffer, in-order
  /// deltas apply and drain the buffer. A higher epoch resets the sequence
  /// space (the buffer dies with the old epoch; the table survives and is
  /// reconciled by anti-entropy). Throws std::out_of_range, changing
  /// nothing, for a server outside [0, kMaxChannelServers).
  DeliveryResult deliver_delta(int server, std::uint64_t epoch,
                               std::int64_t seq, const PacerConfigDelta& delta);

  /// Full-snapshot repair: resets the agent's table to `records`, adopts
  /// `epoch`, and fast-forwards the sequence cursor to `through_seq`.
  /// Range-checked like deliver_delta.
  DeliveryResult deliver_snapshot(
      int server, std::uint64_t epoch, std::int64_t through_seq,
      const std::vector<PacerConfigRecord>& records);

  /// Applied-state checksum (empty-table checksum when no agent exists).
  std::uint64_t checksum(int server) const;
  /// The agent's table, or null when no delivery ever reached `server`.
  const PacerConfigTable* table(int server) const;
  std::vector<int> servers() const;  ///< agents ever touched, ascending
  int buffered(int server) const;    ///< gap-buffered deltas held
  /// One past the highest server id ever touched.
  int id_bound() const { return static_cast<int>(agents_.size()); }

 private:
  struct Agent {
    bool touched = false;  ///< a delivery reached it (servers() lists it)
    std::uint64_t epoch = 0;
    std::int64_t next_seq = 1;
    /// Gap buffer of ahead-of-sequence deltas, ascending seq.
    std::vector<std::pair<std::int64_t, PacerConfigDelta>> pending;
    PacerConfigTable table;
  };

  Agent& agent(int server);  ///< range-checked; grows the id-indexed array
  const Agent* find(int server) const;  ///< null unless touched
  void apply_in_order(int server, Agent& agent, const PacerConfigDelta& delta);
  void drain(int server, Agent& agent, DeliveryResult& result);

  std::vector<Agent> agents_;  ///< by server id
  ApplyHook hook_;
};

/// Controller-side channel: sequencing, retries, shadow tables, and the
/// anti-entropy sweep. Owns its own MetricsRegistry
/// (`controller.channel.*`) and Rng; all timing goes through the shared
/// EventQueue, so chaos runs stay bit-reproducible.
class ControlChannel {
 public:
  ControlChannel(EventQueue& events, PacerAgentFleet& fleet,
                 const ChannelConfig& cfg);
  /// Scheduled events hold this channel's address.
  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;

  /// Ship drained controller deltas: each is applied to the server's
  /// shadow table (reliable, controller-local) and transmitted with the
  /// next per-server sequence number. A temporary batch is moved into the
  /// shared payloads; an lvalue is copied once. Throws std::out_of_range,
  /// shipping nothing, if any delta names a server outside
  /// [0, kMaxChannelServers).
  void ship(std::vector<PacerConfigDelta> deltas);

  /// Model a controller crash + recovery on the channel side: bump the
  /// epoch, drop all send state (outstanding transmissions and timers of
  /// the dead incarnation die), and rebuild the shadow tables from the
  /// recovered controller's server_config over the union of its paced
  /// servers and all known agents.
  void restart(const SiloController& ctl);

  /// One sweep over servers in ascending id order: any quiesced server
  /// (nothing outstanding) whose agent checksum disagrees with the shadow
  /// gets a full-snapshot repair. Returns the number of repairs shipped.
  int anti_entropy_round();

  /// All agents hold exactly their shadow tables' records (compared field
  /// for field, not by checksum), none holds a gap-buffered delta, and
  /// nothing is outstanding.
  bool converged() const;

  void set_drop_rate(double rate) { cfg_.drop_rate = rate; }
  double drop_rate() const { return cfg_.drop_rate; }
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t shadow_checksum(int server) const;
  /// Servers the controller has ever shipped state for, ascending.
  std::vector<int> shadow_servers() const;
  /// Sim-time from the last disturbance (ship while idle, or restart) to
  /// the most recent observed convergence; also exported as the
  /// `controller.channel.convergence_ns` gauge.
  TimeNs last_convergence_delay() const { return last_convergence_; }

  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// A delta, or a snapshot as the upsert list of one. Stored once: the
  /// outstanding entry and every in-flight copy share it, and a duplicate
  /// or retransmission may outlive the ack that erases the entry.
  using Payload = std::shared_ptr<const PacerConfigDelta>;

  struct Outstanding {
    std::int64_t seq = 0;  ///< delta seq, or a snapshot's through_seq
    Payload payload;
    bool is_snapshot = false;
    int attempt = 0;
    std::uint64_t gen = 0;  ///< tells this send from a reused (server, seq)
  };

  /// Controller-side state of one server id.
  struct Server {
    std::int64_t last_seq = 0;
    std::vector<Outstanding> outstanding;  ///< ascending seq
    PacerConfigTable shadow;  ///< empty unless has_shadow
    bool has_shadow = false;
  };

  /// One scheduled channel event; its EventQueue arg indexes messages_.
  struct Message {
    enum class Kind : std::uint8_t {
      kDelta,        ///< delivery of payload as seq in epoch `tag`
      kSnapshot,     ///< delivery of payload->upserts through seq
      kAck,          ///< agent acked through seq in epoch `tag`
      kAckTimeout,   ///< the send (server, seq) of generation `tag` is due
      kRetry,        ///< retransmit (server, seq) of generation `tag`
      kAntiEntropy,  ///< periodic sweep of anti-entropy generation `tag`
    };
    Kind kind = Kind::kDelta;
    int server = 0;
    std::uint64_t tag = 0;  ///< epoch or generation, per kind
    std::int64_t seq = 0;
    Payload payload;  ///< deliveries only
  };

  static void on_message(void* self, std::uint32_t index);
  void post(TimeNs delay, Message msg);
  Server& server_state(int server);  ///< grows the id-indexed array
  const Server* find_server(int server) const;  ///< null beyond the array
  Outstanding* find_outstanding(int server, std::int64_t seq,
                                std::uint64_t gen);
  int id_bound() const;  ///< one past the highest id either side knows

  void transmit(int server, const Outstanding& entry);
  void on_delivered(int server, const PacerAgentFleet::DeliveryResult& r);
  void on_ack(int server, std::uint64_t epoch, std::int64_t acked_through);
  void on_ack_timeout(int server, std::int64_t seq, std::uint64_t gen);
  void ship_repair(int server);
  void arm_anti_entropy();
  void note_disturbance();
  void check_converged();
  TimeNs hop_delay();
  bool dropped();

  EventQueue& events_;
  PacerAgentFleet& fleet_;
  ChannelConfig cfg_;
  Rng rng_;
  std::uint64_t epoch_ = 1;
  std::vector<Server> servers_;  ///< by server id
  std::int64_t total_outstanding_ = 0;
  std::vector<Message> messages_;  ///< recycled through free_messages_
  std::vector<std::uint32_t> free_messages_;
  std::uint64_t next_gen_ = 1;
  std::uint64_t ae_generation_ = 0;  ///< invalidates the periodic timer
  TimeNs disturbance_at_ {};
  TimeNs last_convergence_ {};
  bool was_converged_ = true;

  obs::MetricsRegistry metrics_;
  obs::Counter m_shipped_;          ///< deltas shipped (first transmission)
  obs::Counter m_delivered_;        ///< delta messages that reached an agent
  obs::Counter m_applied_;          ///< deltas applied in order at agents
  obs::Counter m_dropped_;          ///< messages lost to injected loss
  obs::Counter m_retries_;          ///< re-transmissions after ack timeout
  obs::Counter m_abandoned_;        ///< sends given up after max attempts
  obs::Counter m_duplicates_;       ///< idempotency: duplicate seqs dropped
  obs::Counter m_gaps_;             ///< out-of-order deltas buffered
  obs::Counter m_stale_epoch_;      ///< dead-epoch messages discarded
  obs::Counter m_stale_removes_;    ///< removes referencing absent records
  obs::Counter m_lease_expired_;    ///< revokes that raced clean lease expiry
  obs::Counter m_desyncs_repaired_; ///< anti-entropy full-snapshot repairs
  obs::Counter m_ae_rounds_;        ///< anti-entropy sweeps run
  obs::Gauge m_convergence_ns_;     ///< disturbance->convergence sim time
};

}  // namespace silo::sim
