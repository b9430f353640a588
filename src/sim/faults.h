// Scriptable fault injection for the cluster simulator.
//
// A FaultPlan is a deterministic schedule of link/server failures, repairs,
// port flaps, and probabilistic per-link loss windows. The FaultInjector
// executes it through the event queue, so fault timing interleaves with
// packet events exactly the same way on every run with the same seed —
// chaos tests are bit-reproducible.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "sim/cluster.h"
#include "topology/topology.h"

namespace silo::sim {

class ControlChannel;

struct FaultAction {
  enum class Kind : std::uint8_t {
    kLinkDown,          ///< fabric port stops forwarding; queued packets die
    kLinkUp,            ///< restore a downed port
    kLossStart,         ///< begin dropping each arriving packet w.p. loss_rate
    kLossStop,          ///< end the loss window
    kServerDown,        ///< crash a host (pacer/NIC/loopback queues flushed)
    kServerUp,          ///< restore a crashed host
    kChannelLossStart,  ///< control channel drops messages w.p. loss_rate
    kChannelLossStop,   ///< end the control-channel loss window
  };
  Kind kind;
  TimeNs at {};
  int port = -1;         ///< topology PortId value for link actions
  int server = -1;       ///< server index for server actions
  double loss_rate = 0;  ///< kLossStart / kChannelLossStart only
};

/// Builder-style deterministic fault schedule. The loss windows' runtime
/// coin flips are keyed on `seed` (SwitchPortSim::set_loss), so they do not
/// depend on packet interleaving.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::vector<FaultAction> actions;

  FaultPlan& link_down(TimeNs at, topology::PortId p);
  FaultPlan& link_up(TimeNs at, topology::PortId p);
  /// Down at `at`, back up at `at + outage` — a port flap.
  FaultPlan& link_flap(TimeNs at, topology::PortId p, TimeNs outage);
  FaultPlan& loss_window(TimeNs from, TimeNs to, topology::PortId p,
                         double rate);
  /// Control-plane loss window: the attached ControlChannel drops each
  /// one-way message w.p. `rate` between `from` and `to`.
  FaultPlan& channel_loss_window(TimeNs from, TimeNs to, double rate);
  FaultPlan& server_down(TimeNs at, int server);
  FaultPlan& server_up(TimeNs at, int server);
  /// Crash at `at`, restore at `at + outage`.
  FaultPlan& server_crash(TimeNs at, int server, TimeNs outage);

  /// Seeded random plan for chaos soaks: `events` faults (port flaps, loss
  /// windows, server crashes) start uniformly in the first 60% of
  /// `horizon`; every fault is repaired by 80% of `horizon` so the run can
  /// prove full recovery. Same (topo, seed, horizon, events) -> same plan.
  static FaultPlan random(const topology::Topology& topo, std::uint64_t seed,
                          TimeNs horizon, int events);
};

/// Executes a FaultPlan against a ClusterSim, each action on the event
/// queue of the island that owns its target. Armed actions call back into
/// the injector, so keep it alive until the last one has fired.
class FaultInjector {
 public:
  FaultInjector(ClusterSim& sim, FaultPlan plan);

  /// Schedule every action. Call once, before (or between) runs; actions
  /// whose time is already in the past execute at the current time.
  /// All-or-nothing: a plan with an action this cluster cannot run (an
  /// out-of-range port or server) throws before anything is scheduled.
  void arm();

  /// Wire a ControlChannel so kChannelLoss* actions reach it; channel
  /// actions are no-ops while unattached. The channel must outlive arm()'d
  /// actions.
  void attach_channel(ControlChannel* channel) { channel_ = channel; }

  int executed() const { return executed_; }

 private:
  /// The queue of the island owning the action's target; throws for an
  /// action the cluster cannot run.
  EventQueue& queue_for(const FaultAction& a);
  void execute(const FaultAction& a);

  ClusterSim& sim_;
  FaultPlan plan_;
  ControlChannel* channel_ = nullptr;
  /// Islands on different threads execute their actions concurrently.
  std::atomic<int> executed_ {0};
};

}  // namespace silo::sim
