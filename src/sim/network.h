// Fabric (switch ports wired per the topology) and Host (per-server NIC
// with Silo pacing) of the packet-level simulator.
//
// Packets travel as PacketPool handles; the NIC batch slot id doubles as
// the packet handle, so there is no per-packet map or allocation between
// the pacer queues and the wire.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "pacer/paced_nic.h"
#include "pacer/vm_pacer.h"
#include "sim/event_queue.h"
#include "sim/packet.h"
#include "sim/packet_pool.h"
#include "sim/port.h"
#include "topology/topology.h"

namespace silo::sim {

/// All switch egress queues of the datacenter, addressed by topology
/// PortId. Routes packets hop by hop along the tree path (computed
/// allocation-free per hop via Topology::path_span — pure, so islands
/// share nothing through routing).
///
/// The fabric is island-sharded: each port is driven by its island's
/// EventQueue, and routing stays island-local because cross-island
/// transmissions are intercepted at the egress port (PortTxHandoff) before
/// they would hop queues. Sequential mode is the one-island case: every
/// port on island 0's queue.
class Fabric {
 public:
  /// Receives ownership of the delivered handle.
  using DeliverFn = std::function<void(PacketHandle)>;
  /// Island-aware delivery: island + queue that ran the final hop.
  using IslandDeliverFn = std::function<void(int, EventQueue&, PacketHandle)>;

  /// Port i is driven by *island_queues[port_island[i]].
  Fabric(const topology::Topology& topo, const PortConfig& port_template,
         std::vector<int> port_island,
         const std::vector<EventQueue*>& island_queues);

  void set_island_deliver(IslandDeliverFn fn) { deliver_ = std::move(fn); }

  /// Entry point for packets leaving a host NIC on `island` (the
  /// server->ToR wire has already been simulated by the NIC). Void packets
  /// die here: the first hop switch discards them by MAC address. Takes
  /// ownership.
  void ingress_from_host(int island, EventQueue& q, PacketHandle h);

  /// Resume routing for a packet that just crossed into `island` through
  /// the window protocol's mailbox (IslandGateway arrival).
  void advance_from_gateway(int island, EventQueue& q, PacketHandle h) {
    advance(island, q, h);
  }

  SwitchPortSim& port(topology::PortId id) { return *ports_[id.value]; }
  const SwitchPortSim& port(topology::PortId id) const {
    return *ports_[id.value];
  }
  int island_of_port(topology::PortId id) const {
    return port_island_[static_cast<std::size_t>(id.value)];
  }

  std::int64_t total_drops() const;
  std::int64_t total_ecn_marks() const;
  std::int64_t total_fault_drops() const;

 private:
  void advance(int island, EventQueue& q, PacketHandle h);

  const topology::Topology& topo_;
  std::vector<int> port_island_;
  std::vector<std::unique_ptr<SwitchPortSim>> ports_;
  IslandDeliverFn deliver_;
};

/// Registry handles a host updates (shared across all hosts of a cluster;
/// default handles are null sinks — see obs::MetricsRegistry).
struct HostMetricHooks {
  obs::Counter data_packets;  ///< data frames the NIC put on the wire
  obs::Counter void_packets;  ///< pacer filler frames
  obs::Counter batches;       ///< NIC batches built (DMA interrupts)
  obs::Counter throttled;     ///< packets held back by pacer tokens
  obs::Counter pacer_drops;   ///< finite pacer-queue overflow
  obs::Counter fault_drops;   ///< packets killed by a crashed server
};

/// One physical server: a NIC (optionally doing Paced IO Batching with
/// void packets) plus the per-VM pacers of the tenants hosted here.
class Host {
 public:
  struct Config {
    RateBps link_rate = 10 * kGbps;
    pacer::NicMode nic_mode = pacer::NicMode::kBatched;
    TimeNs batch_window = 50 * kUsec;
    TimeNs tor_link_delay {500};    ///< NIC -> ToR propagation
    TimeNs loopback_delay = 5 * kUsec;  ///< intra-server VM-to-VM delay
    /// Virtual-switch forwarding capacity for colocated VM pairs — memory
    /// bandwidth, not the wire, but decidedly finite.
    RateBps loopback_rate = 20 * kGbps;
    Bytes loopback_buffer = 2 * kMB;
    /// Finite per-destination pacer queue, like the prototype driver's
    /// token-bucket queues: overflow is dropped and TCP reacts to loss
    /// instead of to unbounded stamp delays.
    Bytes pacer_queue_cap = 512 * kKB;
    /// Island this server belongs to (parallel mode; 0 == sequential).
    int island = 0;
  };

  Host(EventQueue& events, Fabric& fabric, int server_id, const Config& cfg);

  int server_id() const { return server_id_; }

  /// Fault injection: crash / restore this server. Crashing frees every
  /// packet parked in the pacer queues, the NIC batch queue and the
  /// loopback vswitch (counted in fault_drops); while down, all packets
  /// sent by or addressed to this host are dropped.
  void set_up(bool up);
  bool up() const { return up_; }

  /// Drop a packet because this host is dead (delivery to a crashed
  /// server). Takes ownership and frees the handle.
  void drop_faulted(PacketHandle h);

  std::int64_t fault_drops() const { return fault_drops_; }

  /// Register the pacer enforcing a hosted VM's guarantees (Silo/Oktopus
  /// schemes). Unpaced VMs simply have no entry. Once per VM.
  void attach_pacer(int global_vm, pacer::VmPacer* pacer);

  /// Hypervisor side of the incremental config protocol: fold a controller
  /// delta into this server's applied pacer-config table.
  PacerApplyResult apply_pacer_config(const PacerConfigDelta& delta) {
    return nic_.apply_config(delta);
  }
  const PacerConfigTable& pacer_config() const { return nic_.config(); }
  /// Clock-driven lease expiry on this server (docs/WORKCONSERVING.md).
  std::vector<PacerLeaseRecord> advance_lease_epoch(std::uint64_t epoch) {
    return nic_.advance_lease_epoch(epoch);
  }

  /// Inject a transport packet originating at a VM on this server.
  /// Takes ownership of the handle.
  void send(PacketHandle h);

  /// Delivery callback to the upper layer (cluster flow dispatch) for
  /// intra-server traffic.
  void set_local_deliver(Fabric::DeliverFn fn) {
    local_deliver_ = std::move(fn);
  }

  const pacer::BatchStats& nic_stats() const { return nic_.stats(); }
  std::int64_t pacer_drops() const { return pacer_drops_; }

  /// Attach registry handles; `loopback` hooks instrument the vswitch port.
  void set_metrics(const HostMetricHooks& m, const PortMetricHooks& loopback) {
    metrics_ = m;
    loopback_->set_metrics(loopback);
  }

  /// Estimated wait a `bytes` packet from `src_vm` to `dst_vm` would see
  /// in the pacer right now (0 for unpaced VMs) — the TSQ-style
  /// backpressure signal transports poll before emitting.
  TimeNs pacer_delay(TimeNs now, int src_vm, int dst_vm, Bytes bytes);

 private:
  friend class EventQueue;  ///< typed-event dispatch

  // Paced transmission path: packets wait in per-destination queues and a
  // single scheduler releases them in conformance order — charging the
  // shared {B, S} bucket in *release* order keeps it work-conserving
  // across destinations (per-flow future stamping would serialize them).
  // Everything a scheduling pass reads sits in flat arrays: the queue
  // header caches the pacer's bucket toward its destination and each entry
  // its packet's wire bytes, so a pass neither looks anything up nor reads
  // a queued packet.
  struct Queued {
    PacketHandle handle;
    Bytes wire_bytes;
  };
  struct DestQueue {
    int dst = -1;
    pacer::TokenBucket* bucket = nullptr;  ///< the pacer's bucket toward dst
    std::deque<Queued> q;
    Bytes bytes {};
  };
  struct PacedVm {
    int vm = -1;
    pacer::VmPacer* pacer = nullptr;
    std::vector<DestQueue> dests;  ///< ascending dst: round-robin order
    bool release_scheduled = false;
    TimeNs scheduled_at {};
    std::uint64_t generation = 0;
    int last_served = -1;  ///< round-robin position for conformance ties
  };

  /// The paced VM `vm`, or null when it is unpaced.
  PacedVm* find_paced(int vm);
  /// The first of `v`'s queues whose destination is not below `dst`.
  static std::vector<DestQueue>::iterator lower_dest(PacedVm& v, int dst);
  void kick();
  void run_batch();
  void schedule_release(std::uint32_t index);
  void handle_release(std::uint32_t index, std::uint64_t generation);
  void handle_build(std::uint64_t generation);
  void handle_batch_end();
  void handle_ingress(PacketHandle h);
  void hand_to_nic(PacketHandle h, Bytes wire_bytes, TimeNs release);

  EventQueue& events_;
  Fabric& fabric_;
  int server_id_;
  Config cfg_;
  pacer::PacedNic nic_;
  std::unique_ptr<SwitchPortSim> loopback_;
  /// One entry per paced VM hosted here (at most one per VM slot); a
  /// kHostRelease event names its entry by index.
  std::vector<PacedVm> paced_;
  std::int64_t pacer_drops_ = 0;
  std::int64_t fault_drops_ = 0;
  HostMetricHooks metrics_;
  bool up_ = true;
  bool transmitting_ = false;
  bool build_scheduled_ = false;
  TimeNs scheduled_start_ {};
  std::uint64_t build_generation_ = 0;
  Fabric::DeliverFn local_deliver_;
};

}  // namespace silo::sim
