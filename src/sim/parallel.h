// Conservative-window parallel execution: topology partition, cross-island
// mailboxes, and the executor interface.
//
// The cluster is split into *islands* — disjoint groups of racks plus
// dedicated islands for shared aggregation ports — such that every piece
// of tenant state (flows, pacers, drivers, per-tenant counters) lives in
// exactly one island and every event executes against exactly one island's
// EventQueue. Islands synchronize YAWNS-style: each round, every island
// publishes its next-event time, a per-component conservative horizon
//
//   W_c = min(next_i : i in component c) + lookahead(c) - 1
//
// is derived (lookahead = the minimum cross-island link latency inside the
// component, infinity for isolated islands), all islands run events with
// time <= their horizon, and cross-island packets handed off through
// per-(src,dst) mailboxes are drained at the barrier in a fixed
// (arrival-time, src-island, per-source-seq) order. Every ordering decision
// is a pure function of the partition and the event contents — never of
// thread count or scheduling — so results are identical for any executor,
// including the serial fallback.
//
// This header is thread-free by design (silo-analyze's lint pass bans
// threading includes in src/sim/): protocol code stays sequential per
// island, and the only component allowed to own threads is the
// IslandExecutor implementation in src/par/, which sees islands purely as
// opaque indices to run.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "obs/packet_stages.h"
#include "sim/packet.h"
#include "topology/topology.h"
#include "util/units.h"

namespace silo::sim {

/// Sentinel "no event / no constraint" time for horizon arithmetic.
inline constexpr TimeNs kTimeInfinity{std::numeric_limits<std::int64_t>::max()};

/// `a + b` that sticks to kTimeInfinity instead of overflowing (TimeNs's
/// checked operator+ would throw on infinity + lookahead).
constexpr TimeNs sat_add(TimeNs a, TimeNs b) {
  if (a == kTimeInfinity || b == kTimeInfinity) return kTimeInfinity;
  if (a.count() > kTimeInfinity.count() - b.count()) return kTimeInfinity;
  return a + b;
}

/// The static island decomposition of one topology + tenant placement.
///
/// Invariants established by build():
///   - all racks a tenant touches share one island (tenant state confined);
///   - pod_up/pod_down ports used by tenants from >= 2 islands become
///     their own single-port islands (the only shared fabric queues in the
///     tree path model);
///   - with zero link latency the would-be crossings are merged away
///     instead (a 0 ns lookahead cannot make progress in a conservative
///     protocol), so every remaining crossing edge has positive weight and
///     the window protocol cannot deadlock or livelock by construction;
///   - crossing edges connect islands whose packets can actually traverse
///     between them; weakly-connected components of that graph each get a
///     lookahead = min crossing latency (kTimeInfinity when isolated, i.e.
///     the island may always run to the deadline).
struct IslandPartition {
  int num_islands = 1;
  int num_components = 1;
  std::vector<int> rack_island;           ///< rack -> island
  std::vector<int> port_island;           ///< fabric port id -> island
  std::vector<int> component;             ///< island -> component
  std::vector<TimeNs> component_lookahead;///< component -> min crossing lat.
  int crossing_edges = 0;                 ///< distinct directed crossings
  int merged_zero_latency = 0;            ///< unions forced by 0 ns links

  int island_of_server(const topology::Topology& topo, int server) const {
    return rack_island[static_cast<std::size_t>(topo.rack_of_server(server))];
  }

  /// Partition for `topo` where tenant t occupies the servers in
  /// `tenant_servers[t]` and every fabric link has latency `link_delay`.
  static IslandPartition build(
      const topology::Topology& topo, TimeNs link_delay,
      const std::vector<std::vector<int>>& tenant_servers);

  /// The one-island partition: sequential mode. No port crosses an island
  /// boundary, so the window protocol finishes every run in one round.
  static IslandPartition single(const topology::Topology& topo);
};

/// One packet crossing an island boundary. The source island frees its
/// handle and snapshots the POD payload + stage accounting here; the
/// destination island re-allocates from its own arena at drain time, in
/// (arrival, src_island, seq) order, so destination pool allocation order —
/// and therefore every downstream handle — is reproducible.
struct MailboxRecord {
  TimeNs arrival {};        ///< delivery time at the next hop (tx + latency)
  std::uint64_t seq = 0;    ///< per-source-island monotonic tag
  int src_island = 0;
  int dst_island = 0;
  Packet packet {};
  obs::PacketStages stages {};
};

/// Runs island bodies, nothing more. Implementations live outside the sim
/// layer (src/par/ owns threads; tests may use the inline serial one).
/// Contract: fn(i) is invoked exactly once for every i in [0, n), calls for
/// distinct i may run concurrently, and parallel_for returns only after all
/// of them complete (the return is the window barrier — it must establish
/// happens-before between the bodies and the caller).
class IslandExecutor {
 public:
  virtual ~IslandExecutor() = default;
  virtual void parallel_for(int n, const std::function<void(int)>& fn) = 0;
  virtual int threads() const = 0;
};

/// Trivial executor: runs islands 0..n-1 in order on the caller's thread.
/// The protocol's determinism guarantee is exactly that this produces the
/// same results as any threaded executor.
class SerialExecutor final : public IslandExecutor {
 public:
  void parallel_for(int n, const std::function<void(int)>& fn) override {
    for (int i = 0; i < n; ++i) fn(i);
  }
  int threads() const override { return 1; }
};

/// Per-island endpoint for kIslandArrival events. The event queue's typed
/// dispatch calls handle_arrival; the gateway forwards to the owning
/// facade through a captureless trampoline so this header need not see
/// ClusterSim.
class IslandGateway {
 public:
  using ArrivalFn = void (*)(void* ctx, int island, std::uint32_t handle);

  void bind(void* ctx, ArrivalFn fn, int island) {
    ctx_ = ctx;
    fn_ = fn;
    island_ = island;
  }
  void handle_arrival(std::uint32_t h) { fn_(ctx_, island_, h); }
  int island() const { return island_; }

 private:
  void* ctx_ = nullptr;
  ArrivalFn fn_ = nullptr;
  int island_ = 0;
};

}  // namespace silo::sim
