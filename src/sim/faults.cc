#include "sim/faults.h"

#include <algorithm>
#include <stdexcept>

#include "sim/control_channel.h"
#include "util/rng.h"

namespace silo::sim {

FaultPlan& FaultPlan::link_down(TimeNs at, topology::PortId p) {
  actions.push_back({FaultAction::Kind::kLinkDown, at, p.value, -1, 0});
  return *this;
}

FaultPlan& FaultPlan::link_up(TimeNs at, topology::PortId p) {
  actions.push_back({FaultAction::Kind::kLinkUp, at, p.value, -1, 0});
  return *this;
}

FaultPlan& FaultPlan::link_flap(TimeNs at, topology::PortId p, TimeNs outage) {
  return link_down(at, p).link_up(at + outage, p);
}

FaultPlan& FaultPlan::loss_window(TimeNs from, TimeNs to, topology::PortId p,
                                  double rate) {
  actions.push_back({FaultAction::Kind::kLossStart, from, p.value, -1, rate});
  actions.push_back({FaultAction::Kind::kLossStop, to, p.value, -1, 0});
  return *this;
}

FaultPlan& FaultPlan::channel_loss_window(TimeNs from, TimeNs to,
                                          double rate) {
  actions.push_back(
      {FaultAction::Kind::kChannelLossStart, from, -1, -1, rate});
  actions.push_back({FaultAction::Kind::kChannelLossStop, to, -1, -1, 0});
  return *this;
}

FaultPlan& FaultPlan::server_down(TimeNs at, int server) {
  actions.push_back({FaultAction::Kind::kServerDown, at, -1, server, 0});
  return *this;
}

FaultPlan& FaultPlan::server_up(TimeNs at, int server) {
  actions.push_back({FaultAction::Kind::kServerUp, at, -1, server, 0});
  return *this;
}

FaultPlan& FaultPlan::server_crash(TimeNs at, int server, TimeNs outage) {
  return server_down(at, server).server_up(at + outage, server);
}

namespace {

// A random *switch* egress. Server NIC egresses (server_up) are excluded:
// the host NIC simulates that wire, so the fabric port never sees traffic.
topology::PortId random_switch_port(const topology::Topology& topo, Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return topo.server_down(
          static_cast<int>(rng.uniform_int(0, topo.num_servers() - 1)));
    case 1:
      return topo.rack_up(
          static_cast<int>(rng.uniform_int(0, topo.num_racks() - 1)));
    case 2:
      return topo.rack_down(
          static_cast<int>(rng.uniform_int(0, topo.num_racks() - 1)));
    case 3:
      return topo.pod_up(
          static_cast<int>(rng.uniform_int(0, topo.num_pods() - 1)));
    default:
      return topo.pod_down(
          static_cast<int>(rng.uniform_int(0, topo.num_pods() - 1)));
  }
}

}  // namespace

FaultPlan FaultPlan::random(const topology::Topology& topo, std::uint64_t seed,
                            TimeNs horizon, int events) {
  FaultPlan plan;
  plan.seed = seed;
  // A scrambled seed, so the plan's shape never correlates with the loss
  // draws, which are keyed on `seed` itself.
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5bf03635ull);
  const TimeNs start_max = horizon * 6 / 10;
  const TimeNs repair_by = horizon * 8 / 10;
  for (int i = 0; i < events; ++i) {
    const TimeNs at{rng.uniform_int(0, start_max.count())};
    const TimeNs outage =
        std::min(TimeNs{rng.uniform_int((horizon / 50).count(),
                                        (horizon / 5).count())},
                 repair_by - at);
    switch (rng.uniform_int(0, 2)) {
      case 0:
        plan.link_flap(at, random_switch_port(topo, rng), outage);
        break;
      case 1:
        plan.loss_window(at, at + outage, random_switch_port(topo, rng),
                         rng.uniform(0.05, 0.3));
        break;
      default:
        plan.server_crash(
            at, static_cast<int>(rng.uniform_int(0, topo.num_servers() - 1)),
            outage);
        break;
    }
  }
  return plan;
}

FaultInjector::FaultInjector(ClusterSim& sim, FaultPlan plan)
    : sim_(sim), plan_(std::move(plan)) {}

EventQueue& FaultInjector::queue_for(const FaultAction& a) {
  // Each action fires on the event queue of the island that owns the
  // faulted element, so parallel mode needs no cross-island control events
  // (the action closure only touches island-local state).
  switch (a.kind) {
    case FaultAction::Kind::kLinkDown:
    case FaultAction::Kind::kLinkUp:
    case FaultAction::Kind::kLossStart:
    case FaultAction::Kind::kLossStop:
      return sim_.port_events(topology::PortId{a.port});
    case FaultAction::Kind::kServerDown:
    case FaultAction::Kind::kServerUp:
      return sim_.server_events(a.server);
    case FaultAction::Kind::kChannelLossStart:
    case FaultAction::Kind::kChannelLossStop:
      return sim_.control_events();
  }
  throw std::logic_error("FaultInjector: unknown action kind");
}

void FaultInjector::arm() {
  // Resolve every action's queue before scheduling any, so a plan that
  // throws leaves nothing armed (the closures capture `this`).
  std::vector<EventQueue*> queues;
  queues.reserve(plan_.actions.size());
  for (const FaultAction& a : plan_.actions) queues.push_back(&queue_for(a));
  for (std::size_t i = 0; i < plan_.actions.size(); ++i) {
    EventQueue& ev = *queues[i];
    ev.at(std::max(ev.now(), plan_.actions[i].at),
          [this, i] { execute(plan_.actions[i]); });
  }
}

void FaultInjector::execute(const FaultAction& a) {
  ++executed_;
  switch (a.kind) {
    case FaultAction::Kind::kLinkDown:
      sim_.fabric().port(topology::PortId{a.port}).set_link_up(false);
      break;
    case FaultAction::Kind::kLinkUp:
      sim_.fabric().port(topology::PortId{a.port}).set_link_up(true);
      break;
    case FaultAction::Kind::kLossStart:
      sim_.fabric().port(topology::PortId{a.port})
          .set_loss(a.loss_rate, plan_.seed);
      break;
    case FaultAction::Kind::kLossStop:
      sim_.fabric().port(topology::PortId{a.port}).set_loss(0, plan_.seed);
      break;
    case FaultAction::Kind::kServerDown:
      sim_.host_mut(a.server).set_up(false);
      break;
    case FaultAction::Kind::kServerUp:
      sim_.host_mut(a.server).set_up(true);
      break;
    case FaultAction::Kind::kChannelLossStart:
      if (channel_ != nullptr) channel_->set_drop_rate(a.loss_rate);
      break;
    case FaultAction::Kind::kChannelLossStop:
      if (channel_ != nullptr) channel_->set_drop_rate(0);
      break;
  }
}

}  // namespace silo::sim
