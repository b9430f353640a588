// ClusterSim: the experiment-facing facade of the packet simulator.
//
// It assembles a full multi-tenant datacenter: topology, switch fabric
// (with per-scheme ECN / phantom-queue configuration), one Host per server,
// VM placement by the scheme-appropriate policy, per-VM pacers for the
// rate-enforcing schemes, and message-oriented TCP/DCTCP flows between VMs.
//
// Schemes reproduce the paper's comparison set (§6.2) — Silo, TCP, DCTCP,
// HULL, Oktopus, Okto+ (Oktopus placement plus burst allowance) — plus the
// two closest related-work designs from §7/Table 5: QJUMP and pFabric.
//
// The simulation state is organized as *islands*: one per disjoint
// rack/tenant group (plus dedicated islands for shared aggregation queues)
// when cfg.parallel.enabled, and sequential mode is simply the one-island
// partition. Each island owns an EventQueue, a MetricsRegistry shard with
// the full catalog, and its tenants' flows. Both modes are built by one
// construction path (materialize) and run by one loop, the conservative
// window protocol of sim/parallel.h; results are bit-identical for any
// executor and any partition. Only events(), the flight recorder, lending
// and late admission are one-island features. See DESIGN.md "Parallel
// execution & conservative synchronization".
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "model/guarantee.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/packet_stages.h"
#include "pacer/headroom_lender.h"
#include "pacer/pacer_config.h"
#include "placement/placement.h"
#include "sim/delivery_trace.h"
#include "sim/network.h"
#include "sim/parallel.h"
#include "sim/transport.h"

namespace silo::sim {

/// The paper's comparison set (§6.2) plus QJUMP (§7, its closest related
/// work): rate-limited priority levels — delay-sensitive tenants get a
/// strict one-packet-per-network-epoch rate at high priority, bulk
/// tenants run unpaced at low priority.
enum class Scheme {
  kSilo,
  kTcp,
  kDctcp,
  kHull,
  kOktopus,
  kOktopusPlus,
  kQjump,
  kPfabric,  ///< remaining-size priority queues, aggressive minimal TCP
};

const char* scheme_name(Scheme s);

struct ClusterConfig {
  topology::TopologyConfig topo;
  Scheme scheme = Scheme::kSilo;
  TcpConfig tcp;                       ///< dctcp flag is set by the scheme
  Bytes ecn_threshold = 97 * kKB;      ///< DCTCP K (~65 MTU packets at 10G)
  Bytes phantom_threshold = 3 * kKB;   ///< HULL virtual-queue mark point
  double phantom_drain = 0.95;
  TimeNs link_delay {500};
  TimeNs batch_window = 50 * kUsec;
  TimeNs loopback_delay = 5 * kUsec;
  TimeNs rebalance_period = 1 * kMsec; ///< hose-rate coordination interval
  /// TSQ-style backpressure: a flow stops handing packets to the host
  /// while its pacer backlog exceeds this much queueing time.
  TimeNs tsq_horizon = 1500 * kUsec;
  /// Controller -> hypervisor shipping latency for one pacer-config delta
  /// (RPC to the server's filter driver), plus per-record processing time.
  /// Reconfiguration after admission/recovery is not free: the new pacer
  /// state only takes effect once the delta lands.
  TimeNs config_apply_delay = 200 * kUsec;
  TimeNs config_record_apply_cost {500};
  /// Work-conserving headroom lending (docs/WORKCONSERVING.md). Off by
  /// default: the lending-off path schedules zero lease events and is
  /// pinned bit-identical to pre-lending traces by the golden tests.
  struct Lending {
    bool enabled = false;
    /// Lease epoch — the demand-measurement window and the reclamation
    /// bound: owner demand returning is honored within one epoch.
    TimeNs epoch = 1 * kMsec;
    pacer::LenderConfig policy;
  };
  Lending lending;
  /// Deterministic parallel execution (DESIGN.md "Parallel execution &
  /// conservative synchronization"). Off, the cluster is the one-island
  /// partition, built at construction. On, fabric/host materialization is
  /// deferred until every tenant is admitted — the island partition is a
  /// function of the placement — and the sequential-only surfaces throw.
  /// Either way run_until() drives the island queues under the
  /// conservative window protocol. Attach a threaded executor with
  /// set_island_executor(); without one a serial fallback runs the same
  /// schedule on the caller's thread.
  struct Parallel {
    bool enabled = false;
  };
  Parallel parallel;
};

class ClusterSim {
 public:
  explicit ClusterSim(const ClusterConfig& cfg);
  ~ClusterSim();

  /// Admit and place a tenant; nullopt when the placement policy rejects.
  std::optional<int> add_tenant(const TenantRequest& request);

  /// Admit a tenant at a fixed, manual placement (VM index -> server),
  /// bypassing admission control — used to reproduce the paper's testbed
  /// layouts exactly. Throws on invalid servers.
  int add_tenant_pinned(const TenantRequest& request,
                        std::vector<int> vm_to_server);

  int num_tenants() const { return static_cast<int>(tenants_.size()); }
  /// The admission-control state behind add_tenant (read-only).
  const placement::PlacementEngine& placer() const { return *placer_; }
  int tenant_vm_count(int tenant) const;
  int vm_server(int tenant, int local_vm) const;

  /// Where a delivered message's latency went. Components always sum to
  /// the observed latency exactly (integer ns): per-packet stage segments
  /// partition [emit, deliver], and flow-level gaps (sender stalls,
  /// head-of-line wait behind earlier messages) are attributed by rule —
  /// to retransmit_ns when a retransmission/RTO is involved, otherwise to
  /// pacing_ns on paced flows and queueing_ns on unpaced ones.
  struct MessageBreakdown {
    TimeNs pacing_ns {};         ///< pacer token wait + NIC batch alignment
    TimeNs queueing_ns {};       ///< switch queues + sender-side stream wait
    TimeNs serialization_ns {};  ///< wire transmission + propagation
    TimeNs retransmit_ns {};     ///< loss recovery (RTO backoff, resends)
    TimeNs sum() const {
      return pacing_ns + queueing_ns + serialization_ns + retransmit_ns;
    }
  };

  struct MessageResult {
    TimeNs latency {};
    bool had_rto = false;
    /// The transport aborted (bounded-retry limit) before the message was
    /// delivered — counted apart from completions; drivers retry these.
    bool aborted = false;
    MessageBreakdown breakdown;
  };
  using MsgCallback = std::function<void(const MessageResult&)>;

  /// Per-tenant message accounting, including fault-recovery outcomes.
  struct TenantCounters {
    std::int64_t completed = 0;
    std::int64_t aborted = 0;
    /// Completed messages whose latency exceeded the §4.1 bound the tenant
    /// was admitted with (only tracked for delay-guaranteed tenants).
    std::int64_t slo_violations = 0;
  };

  /// Write a `size`-byte message from one tenant VM to another at the
  /// current simulation time; `done` fires when the last byte is delivered
  /// in order at the receiver.
  void send_message(int tenant, int src_local, int dst_local, Bytes size,
                    MsgCallback done = nullptr);

  /// Total bytes delivered in-order on the (src, dst) pair's flow.
  std::int64_t pair_delivered_bytes(int tenant, int src_local,
                                    int dst_local) const;
  /// RTO count summed over a tenant's flows.
  int tenant_rto_count(int tenant) const;
  /// Aborted-connection count summed over a tenant's flows.
  int tenant_abort_count(int tenant) const;

  const TenantCounters& tenant_counters(int tenant) const {
    return tenants_.at(tenant).counters;
  }
  std::int64_t total_aborted_messages() const;
  std::int64_t total_completed_messages() const;
  /// Packets killed by injected faults anywhere: dead links, loss windows,
  /// crashed servers (sums fabric ports and hosts).
  std::int64_t total_fault_drops() const;

  /// Introspection for tests and debugging: the transport object of a
  /// pair's flow, or nullptr if no message was ever sent on the pair.
  const TcpFlow* debug_flow(int tenant, int src_local, int dst_local) const {
    const auto* fr = find_flow(tenant, src_local, dst_local);
    return fr ? fr->flow.get() : nullptr;
  }

  /// Ship drained controller deltas (SiloController::drain_config_deltas)
  /// to their servers. Each delta lands on its host's pacer-config table,
  /// as an event on the server's island, only after the controller->
  /// hypervisor latency plus per-record processing; that island counts the
  /// cost in controller.diff.apply_ns and the landing in
  /// controller.diff.applied. On several islands, call it from outside any
  /// event (before or between run_until() calls).
  void apply_config_deltas(const std::vector<PacerConfigDelta>& deltas);

  /// QJUMP's network epoch for this fabric (exposed for tests/benches).
  TimeNs qjump_epoch() const;

  // — Work-conserving lending introspection (docs/WORKCONSERVING.md) —
  std::uint64_t lease_epoch() const { return lease_epoch_; }
  /// Leases the issuer currently considers live, ascending id.
  std::vector<PacerLeaseRecord> active_leases() const;

  /// The cluster's metrics: every island's registry shard merged —
  /// counters sum, gauges take the max, histograms merge element-wise (the
  /// catalogs are identical by construction). On one island it is that
  /// island's snapshot. Read one value with obs::metric_value().
  std::vector<obs::MetricSample> merged_metrics() const;

  /// Create and attach a flight recorder (bounded ring of `capacity`
  /// events). Call enable_all()/enable_tenant()/enable_port() on the
  /// returned recorder to select traffic; nothing records until one filter
  /// is enabled. Idempotent capacity changes replace the recorder.
  /// Sequential mode only.
  obs::FlightRecorder& enable_flight_recorder(std::size_t capacity);
  obs::FlightRecorder* flight_recorder() { return recorder_.get(); }

  const ClusterConfig& config() const { return cfg_; }
  /// The single event queue (sequential mode). Parallel mode throws —
  /// there is one queue per island; use tenant_events()/port_events().
  EventQueue& events();
  Fabric& fabric();
  const topology::Topology& topo() const { return *topo_; }
  const Host& host(int server) const { return *hosts_.at(server); }
  /// Mutable host access for fault injection (crash / restore).
  Host& host_mut(int server);
  /// Run every island to `t` under the conservative window protocol (one
  /// round for the sequential one-island partition).
  void run_until(TimeNs t);

  // — Deterministic parallel execution (cfg.parallel.enabled) —

  /// Attach the executor that runs island bodies each window (src/par/
  /// owns the only threaded implementation). Unset: serial fallback —
  /// bit-identical results by construction.
  void set_island_executor(IslandExecutor* exec) { executor_ = exec; }
  bool parallel_mode() const { return cfg_.parallel.enabled; }
  /// The static island decomposition (materializes it on first use).
  const IslandPartition& partition();
  int num_islands();
  /// Window-protocol rounds executed so far. With per-round event counts
  /// this is the machine-independent overlap evidence benches record.
  std::int64_t parallel_rounds() const { return rounds_; }
  /// Events processed across every island queue (sequential mode: the one
  /// global queue). Benches report this as the parallel throughput
  /// numerator.
  std::uint64_t total_processed() const;
  /// Events processed by one island. max_i(island_processed) /
  /// total_processed bounds the achievable parallel speedup independent of
  /// the machine the bench ran on (the busiest island is the critical
  /// path).
  std::uint64_t island_processed(int island) const;
  /// Cross-island arrivals that tied in both time and next queue with an
  /// arrival from a *different* source island, summed over drains. Zero
  /// certifies this run's cross-island order never had a choice to make —
  /// the determinism matrix asserts it stays zero.
  std::int64_t cross_tie_collisions() const;

  /// Event queue owning a tenant's state — the queue drivers must schedule
  /// their arrivals and callbacks on. Sequential mode: the one queue.
  EventQueue& tenant_events(int tenant);
  /// Queue driving a fabric port / a server's host (fault routing).
  EventQueue& port_events(topology::PortId id);
  EventQueue& server_events(int server) { return server_island(server).events; }
  /// Island-0 queue, home of control-plane objects (ControlChannel).
  EventQueue& control_events();

  /// Record every final packet delivery from now on. The canonical
  /// checksum sorts records into a mode-independent order, so sequential
  /// and parallel runs of one scenario must agree; the island checksum
  /// hashes each island's records in arrival order, pinning executor
  /// invariance (threads must not even reorder observation).
  void enable_delivery_trace() { trace_enabled_ = true; }
  std::uint64_t delivery_trace_checksum() const;
  std::uint64_t island_trace_checksum() const;
  std::int64_t delivery_trace_size() const;
  /// One island's records, in arrival order.
  const DeliveryTrace& island_trace(int island) const {
    return islands_.at(static_cast<std::size_t>(island))->trace;
  }

 private:
  struct FlowRuntime {
    std::unique_ptr<TcpFlow> flow;
    struct Boundary {
      std::int64_t end_seq;
      Bytes size;
      TimeNs start;
      std::size_t rto_index;  ///< rto_events() size at message start
      MsgCallback done;
    };
    std::deque<Boundary> boundaries;
    // Latency-breakdown attribution state (see on_flow_delivery).
    bool paced = false;       ///< flow belongs to a pacer-enforced tenant
    TimeNs attr_mark {};     ///< end of the last attributed interval
    TimeNs msg_free_at {};   ///< when the flow finished the prior message
    std::size_t rto_seen = 0; ///< rto_events() size at the last attribution
    MessageBreakdown accum;   ///< attributed time since the last boundary
  };

  struct TenantRuntime {
    TenantRequest request;
    std::vector<int> vm_server;  ///< local VM -> server
    int vm_base = 0;             ///< first global VM id
    std::unique_ptr<pacer::TenantPacerGroup> pacers;
    std::map<std::int64_t, int> pair_to_flow;  ///< (src,dst) -> flow id
    TenantCounters counters;
  };

  /// Flow ids are (island << kIslandShift) | island-local index, so a
  /// packet names its flow globally while each island appends to its own
  /// table. Island 0 encodes to the plain index — sequential ids are
  /// unchanged.
  static constexpr int kIslandShift = 20;
  static constexpr int kLocalFlowMask = (1 << kIslandShift) - 1;
  static constexpr int flow_island(int flow_id) {
    return flow_id >> kIslandShift;
  }

  /// Everything one island owns. Sequential mode is exactly one of these;
  /// parallel mode holds num_islands() of them and every event executes
  /// against exactly one. The registry shards carry identical catalogs so
  /// merged_metrics() can fold them positionally.
  struct IslandState {
    int id = 0;
    EventQueue events;
    obs::MetricsRegistry metrics;
    IslandGateway gateway;
    // Registry handles, one full catalog per island.
    PortMetricHooks pm;
    HostMetricHooks hm;
    TransportMetricHooks flow_metrics;
    obs::Counter admissions;
    obs::Counter rejections;
    obs::Counter msgs_completed;
    obs::Counter msgs_aborted;
    obs::Counter slo_violations;
    obs::Counter diff_applied;
    obs::Counter diff_apply_ns;
    obs::Counter lease_granted;
    obs::Counter lease_revoked;
    obs::Counter lease_expired;
    obs::Counter lease_applied;
    obs::Gauge lease_active;
    obs::Gauge lease_lent_bps;
    // Island-local flow table, indexed by the low bits of the flow id.
    std::vector<std::unique_ptr<FlowRuntime>> flows;
    std::vector<int> flow_tenant;  ///< local flow index -> tenant
    /// Stage timeline of the packet being dispatched, captured before its
    /// handle is recycled (on_flow_delivery runs inside the dispatch).
    obs::PacketStages pending_stages;
    TimeNs pending_arrival {-1};
    // Window-protocol state. outbox fills during this island's run phase;
    // the barrier distributes records into destination inboxes; drains
    // re-inject in (arrival, src_island, seq) order.
    std::uint64_t mailbox_seq = 0;
    std::vector<MailboxRecord> outbox;
    std::vector<MailboxRecord> inbox;
    std::int64_t tie_collisions = 0;
    DeliveryTrace trace;
  };

  /// Egress hook wired to every fabric port of a multi-island partition;
  /// forwards to offer_cross_island.
  struct CrossIslandHandoff final : PortTxHandoff {
    ClusterSim* owner = nullptr;
    bool offer(SwitchPortSim& port, PacketHandle h,
               TimeNs deliver_at) override;
  };

  bool scheme_paced() const {
    return cfg_.scheme == Scheme::kSilo || cfg_.scheme == Scheme::kOktopus ||
           cfg_.scheme == Scheme::kOktopusPlus ||
           cfg_.scheme == Scheme::kQjump;
  }
  bool tenant_paced(const TenantRequest& request) const {
    if (!scheme_paced()) return false;
    if (request.tenant_class == TenantClass::kBestEffort) return false;
    // QJUMP only rate-limits the latency-sensitive level.
    if (cfg_.scheme == Scheme::kQjump)
      return request.tenant_class == TenantClass::kDelaySensitive;
    return true;
  }
  placement::Policy placement_policy() const;
  SiloGuarantee pacing_guarantee(const SiloGuarantee& g) const;
  int finish_admission(const TenantRequest& request,
                       std::vector<int> vm_to_server);
  friend class EventQueue;  ///< typed-event dispatch (rebalance timer)

  FlowRuntime& flow_for(int tenant, int src_local, int dst_local);
  const FlowRuntime* find_flow(int tenant, int src_local, int dst_local) const;
  FlowRuntime& flow_runtime(int flow_id) {
    return *islands_[static_cast<std::size_t>(flow_island(flow_id))]
                ->flows[static_cast<std::size_t>(flow_id & kLocalFlowMask)];
  }
  const FlowRuntime& flow_runtime(int flow_id) const {
    return *islands_[static_cast<std::size_t>(flow_island(flow_id))]
                ->flows[static_cast<std::size_t>(flow_id & kLocalFlowMask)];
  }
  void dispatch(int island, PacketHandle h);
  void on_flow_delivery(int flow_id, std::int64_t delivered);
  void on_flow_abort(int flow_id);
  void rebalance_tenant(int tenant);
  /// Headroom-lender epoch tick: expire leases on every host's own clock,
  /// measure per-VM demand, and ship grant/revoke deltas (scheduled only
  /// when cfg_.lending.enabled).
  void lease_epoch_tick();
  std::vector<pacer::LenderVmStats> collect_lender_stats();
  /// Re-derive per-(tenant, vm) lease overlays from `server`'s applied
  /// lease table and push them into the borrower pacers (server's island).
  void refresh_lease_rates(int server);

  /// Register the shared metric catalog into one island's registry shard
  /// and cache the handles. Identical names and order on every island.
  void register_catalog(IslandState& isl);
  bool materialized() const { return !islands_.empty(); }
  /// Build islands, fabric and hosts for `part` — the one construction
  /// path — then plumb every tenant admitted so far.
  void materialize(IslandPartition part);
  /// Parallel mode: materialize the partition of the admitted placement.
  /// Idempotent; the first run, driver attach, or fabric access triggers it.
  void materialize();
  /// Attach a tenant's pacers to its hosts and start its rebalance timer.
  void plumb_tenant(int tenant);
  /// Throws std::logic_error naming `what` and the `remedy` in parallel
  /// mode.
  void sequential_only(const char* what, const char* remedy) const;
  int tenant_island(int tenant) const;
  IslandState& server_island(int server);  ///< materializes; range-checked
  /// Flow-table key of a VM pair; throws std::out_of_range for an index
  /// outside [0, num_vms) rather than alias another pair.
  static std::int64_t pair_key(const TenantRuntime& rt, int src_local,
                               int dst_local);
  void drain_inbox(int island);
  void island_arrival(int island, PacketHandle h);
  bool offer_cross_island(SwitchPortSim& port, PacketHandle h,
                          TimeNs deliver_at);
  int next_hop_port(const Packet& p) const;

  ClusterConfig cfg_;
  PortConfig port_template_;
  Host::Config host_template_;
  std::unique_ptr<topology::Topology> topo_;
  std::unique_ptr<placement::PlacementEngine> placer_;
  std::unique_ptr<Fabric> fabric_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<TenantRuntime> tenants_;
  std::vector<std::unique_ptr<IslandState>> islands_;
  IslandPartition part_;
  IslandExecutor* executor_ = nullptr;
  SerialExecutor serial_executor_;
  CrossIslandHandoff handoff_;
  std::int64_t rounds_ = 0;
  bool trace_enabled_ = false;
  /// Rejections seen before the islands (and their registry shards) exist
  /// in parallel mode; replayed into island 0 at materialize().
  std::int64_t pending_rejections_ = 0;
  int next_global_vm_ = 0;

  std::unique_ptr<obs::FlightRecorder> recorder_;

  // Headroom-lender state (docs/WORKCONSERVING.md). All stays empty/zero
  // while cfg_.lending.enabled is false. Sequential mode only, apart from
  // applied_lease_rate_, which lease-bearing config deltas also use.
  std::unique_ptr<pacer::HeadroomLender> lender_;
  std::uint64_t lease_epoch_ = 0;
  std::uint64_t next_lease_id_ = 1;
  std::map<std::uint64_t, PacerLeaseRecord> issued_;  ///< issuer lease table
  /// Indexed by server: lease overlay last pushed to each (tenant, vm)
  /// pacer, so vanished leases are zeroed out exactly once. Sized at
  /// materialize(); each entry belongs to its server's island.
  std::vector<std::map<std::pair<std::int64_t, int>, RateBps>>
      applied_lease_rate_;
};

}  // namespace silo::sim
