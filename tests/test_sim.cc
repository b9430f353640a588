#include <gtest/gtest.h>

#include <algorithm>

#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/port.h"
#include "sim/transport.h"
#include "util/rng.h"

namespace silo::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue ev;
  std::vector<int> order;
  ev.at(TimeNs{30}, [&] { order.push_back(3); });
  ev.at(TimeNs{10}, [&] { order.push_back(1); });
  ev.at(TimeNs{20}, [&] { order.push_back(2); });
  ev.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ev.now(), TimeNs{30});
  EXPECT_EQ(ev.processed(), 3u);
}

TEST(EventQueue, TiesBreakByInsertion) {
  EventQueue ev;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) ev.at(TimeNs{7}, [&, i] { order.push_back(i); });
  ev.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ReentrantScheduling) {
  EventQueue ev;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) ev.after(TimeNs{5}, tick);
  };
  ev.after(TimeNs{0}, tick);
  ev.run_all();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(ev.now(), TimeNs{45});
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue ev;
  int fired = 0;
  ev.at(TimeNs{10}, [&] { ++fired; });
  ev.at(TimeNs{100}, [&] { ++fired; });
  ev.run_until(TimeNs{50});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(ev.now(), TimeNs{50});
  EXPECT_EQ(ev.pending(), 1u);
}

TEST(EventQueue, PastEventsClampToNow) {
  EventQueue ev;
  ev.at(TimeNs{100}, [] {});
  ev.run_all();
  TimeNs seen {-1};
  ev.at(TimeNs{5}, [&] { seen = ev.now(); });  // in the past: clamps to now
  ev.run_all();
  EXPECT_EQ(seen, TimeNs{100});
}

// --- Timing-wheel specifics: ordering across slot, group and overflow
// boundaries of the hierarchical wheel (256 ns ticks, 256 slots, 2 levels).

TEST(EventQueue, OrdersAcrossAllWheelLevels) {
  EventQueue ev;
  // One event per magnitude: same tick, level-0 slot, level-1 slot, and
  // overflow heap (~65 us and ~16.8 ms are the level spans).
  const std::vector<TimeNs> times = {3 * kSec,  20 * kMsec, 70 * kUsec,
                                     1 * kUsec, TimeNs{100}, TimeNs{1}};
  std::vector<TimeNs> fired;
  for (TimeNs t : times) ev.at(t, [&, t] { fired.push_back(t); });
  ev.run_all();
  std::vector<TimeNs> want = times;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(fired, want);
  EXPECT_EQ(ev.now(), 3 * kSec);
}

TEST(EventQueue, TiesBreakByInsertionInEveryLevel) {
  EventQueue ev;
  std::vector<int> order;
  // Ties at a far-future time pass through overflow -> level 1 -> level 0
  // -> due run; insertion order must survive the whole cascade.
  for (int i = 0; i < 8; ++i) ev.at(123 * kMsec, [&, i] { order.push_back(i); });
  ev.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, ReentrantSchedulingAcrossGroupBoundaries) {
  EventQueue ev;
  // Each event schedules the next one ~one level-0 span away, repeatedly
  // forcing group advancement and cascades while dispatching.
  int count = 0;
  std::function<void()> hop = [&] {
    if (++count < 100) ev.after(63 * kUsec + TimeNs{7}, hop);
  };
  ev.after(TimeNs{0}, hop);
  ev.run_all();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(ev.now(), 99 * (63 * kUsec + TimeNs{7}));
}

TEST(EventQueue, InterleavedNearAndFarEvents) {
  EventQueue ev;
  std::vector<std::pair<TimeNs, int>> fired;
  // Far-future periodic (overflow heap) interleaved with dense near-term
  // events scheduled reentrantly.
  for (int i = 1; i <= 4; ++i)
    ev.at(i * 20 * kMsec, [&, i] { fired.push_back({ev.now(), 1000 + i}); });
  int n = 0;
  std::function<void()> tick = [&] {
    fired.push_back({ev.now(), n});
    if (++n < 5000) ev.after(17 * kUsec, tick);
  };
  ev.at(TimeNs{0}, tick);
  ev.run_all();
  ASSERT_EQ(fired.size(), 5004u);
  for (std::size_t i = 1; i < fired.size(); ++i)
    EXPECT_LE(fired[i - 1].first, fired[i].first);
  EXPECT_EQ(ev.processed(), 5004u);
}

// Thousands of seeded events packed into three ticks per region, so every
// level-0 slot holds hundreds of them (far past std::sort's insertion
// cutoff). Region 0 is in the cursor's group and lands in level 0
// directly; region 1 waits in level 1 and cascades; region 2 waits in the
// overflow heap, drains into level 1 and cascades. Events also schedule
// more events into their own tick (the due run), later ticks and later
// regions while they fire.
struct DenseSlots {
  static constexpr std::int64_t kGroup = 1 << 16;      // ns per level-0 span
  static constexpr std::int64_t kSuper = 1 << 24;      // ns per level-1 span
  static constexpr std::int64_t kSpan = 3 * 256;       // three ticks
  static constexpr std::int64_t kRegion[3] = {
      256, 7 * kGroup + 5 * 256, 3 * kSuper + 2 * kGroup + 9 * 256};

  EventQueue ev;
  Rng rng{20261017};
  std::vector<TimeNs> time_of;  ///< by insertion index
  std::vector<std::uint32_t> fired;
  int reentrant_budget = 3000;

  void add(TimeNs t) {
    const auto i = static_cast<std::uint32_t>(time_of.size());
    time_of.push_back(t);
    ev.raw_at(t, &DenseSlots::fire, this, i);
  }
  /// A seeded time in region r no earlier than now, if any remain.
  void add_in(int r) {
    const std::int64_t lo = std::max(kRegion[r], ev.now().count());
    const std::int64_t hi = kRegion[r] + kSpan - 1;
    if (lo <= hi) add(TimeNs{rng.uniform_int(lo, hi)});
  }
  static void fire(void* self, std::uint32_t i) {
    auto& d = *static_cast<DenseSlots*>(self);
    EXPECT_EQ(d.ev.now(), d.time_of[i]);
    d.fired.push_back(i);
    if (i % 3 != 0 || d.reentrant_budget <= 0) return;
    --d.reentrant_budget;
    // The current region's remaining ticks, then every later region.
    for (int r = 0; r < 3; ++r)
      if (d.time_of[i].count() < kRegion[r] + kSpan) d.add_in(r);
    d.add(d.ev.now());  // joins the due run itself
  }
};

// The fired order must be a stable sort of everything scheduled by
// (time, insertion index).
TEST(EventQueue, DenseSlotsMatchReferenceOrder) {
  DenseSlots d;
  for (int n = 0; n < 6000; ++n) d.add_in(n % 3);
  d.ev.run_all();

  std::vector<std::uint32_t> want(d.time_of.size());
  for (std::uint32_t i = 0; i < want.size(); ++i) want[i] = i;
  std::stable_sort(want.begin(), want.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return d.time_of[a] < d.time_of[b];
                   });
  EXPECT_GT(d.time_of.size(), 9000u);
  EXPECT_EQ(d.reentrant_budget, 0);
  EXPECT_EQ(d.fired, want);
}

PortConfig port_10g() {
  PortConfig cfg;
  cfg.rate = 10 * kGbps;
  cfg.buffer = 312 * kKB;
  cfg.link_delay = TimeNs{500};
  return cfg;
}

Packet data_packet(std::uint64_t id, Bytes payload = Bytes{1460}) {
  Packet p;
  p.id = id;
  p.flow_id = 0;
  p.payload = payload;
  p.wire_bytes = payload + kHeaderBytes;
  return p;
}

// Stage charging at a port: each packet waits in queue behind the ones
// ahead of it, then spends its serialization plus the link delay on the
// wire. Tx-done charges the queue wait and the wire time together.
TEST(SwitchPort, ChargesQueueWaitThenWireTime) {
  EventQueue ev;
  std::vector<obs::PacketStages> seen;
  SwitchPortSim port(ev, port_10g(), [&](PacketHandle h) {
    seen.push_back(ev.pool().stages(h));
    ev.pool().free(h);
  });
  for (int i = 0; i < 3; ++i) {
    const PacketHandle h = ev.pool().clone(data_packet(i));
    ev.pool().stages(h).on_emit(ev.now(), false);
    port.enqueue(h);
  }
  ev.run_all();
  const TimeNs tx = transmission_time(Bytes{1500} + kEthOverhead, 10 * kGbps);
  ASSERT_EQ(seen.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(seen[i].pacing_ns, TimeNs{0}) << i;
    EXPECT_EQ(seen[i].queue_ns, i * tx) << i;
    EXPECT_EQ(seen[i].serial_ns, tx + TimeNs{500}) << i;
    EXPECT_EQ(seen[i].mark, (i + 1) * tx + TimeNs{500}) << i;
  }
}

TEST(SwitchPort, TransmitsAtLineRate) {
  EventQueue ev;
  std::vector<TimeNs> deliveries;
  SwitchPortSim port(ev, port_10g(), [&](PacketHandle h) {
    deliveries.push_back(ev.now());
    ev.pool().free(h);
  });
  for (int i = 0; i < 5; ++i) port.enqueue(ev.pool().clone(data_packet(i)));
  ev.run_all();
  ASSERT_EQ(deliveries.size(), 5u);
  // 1500+38 wire bytes at 10G = ~1230 ns per packet, back to back.
  for (std::size_t i = 1; i < deliveries.size(); ++i)
    EXPECT_NEAR(static_cast<double>(deliveries[i] - deliveries[i - 1]), 1231,
                5);
  EXPECT_EQ(port.stats().tx_packets, 5);
}

TEST(SwitchPort, DropsWhenBufferFull) {
  EventQueue ev;
  int delivered = 0;
  auto cfg = port_10g();
  cfg.buffer = Bytes{5 * 1500};  // room for ~5 packets
  SwitchPortSim port(ev, cfg, [&](PacketHandle h) {
    ++delivered;
    ev.pool().free(h);
  });
  for (int i = 0; i < 20; ++i) port.enqueue(ev.pool().clone(data_packet(i)));
  ev.run_all();
  EXPECT_GT(port.stats().drops, 0);
  EXPECT_EQ(delivered + port.stats().drops, 20);
}

TEST(SwitchPort, EcnMarksAboveThreshold) {
  EventQueue ev;
  int marked = 0;
  auto cfg = port_10g();
  cfg.ecn_threshold = Bytes{3000};
  SwitchPortSim port(ev, cfg, [&](PacketHandle h) {
    marked += ev.pool().get(h).ecn_marked;
    ev.pool().free(h);
  });
  for (int i = 0; i < 10; ++i) port.enqueue(ev.pool().clone(data_packet(i)));
  ev.run_all();
  EXPECT_GT(marked, 0);
  EXPECT_LT(marked, 10);  // first packets see an empty queue
}

TEST(SwitchPort, PhantomQueueMarksEarly) {
  EventQueue ev;
  int marked = 0;
  auto cfg = port_10g();
  cfg.phantom_queue = true;
  cfg.phantom_threshold = Bytes{3000};
  cfg.phantom_drain = 0.95;
  SwitchPortSim port(ev, cfg, [&](PacketHandle h) {
    marked += ev.pool().get(h).ecn_marked;
    ev.pool().free(h);
  });
  // Line-rate arrivals: the phantom queue (draining at 95%) builds up and
  // marks even though the real queue would be shallow.
  for (int i = 0; i < 50; ++i)
    ev.at(TimeNs{i * 1231}, [&, i] { port.enqueue(ev.pool().clone(data_packet(i))); });
  ev.run_all();
  EXPECT_GT(marked, 5);
}

TEST(SwitchPort, PriorityServesGuaranteedFirst) {
  EventQueue ev;
  std::vector<Priority> order;
  SwitchPortSim port(ev, port_10g(), [&](PacketHandle h) {
    order.push_back(ev.pool().get(h).priority);
    ev.pool().free(h);
  });
  // Fill while port is busy with the first packet.
  Packet low = data_packet(1);
  low.priority = Priority::kBestEffort;
  Packet high = data_packet(2);
  port.enqueue(ev.pool().clone(data_packet(0)));  // occupies the wire
  port.enqueue(ev.pool().clone(low));
  port.enqueue(ev.pool().clone(high));
  ev.run_all();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[1], Priority::kGuaranteed);  // high jumped the low queue
  EXPECT_EQ(order[2], Priority::kBestEffort);
}


TEST(SwitchPort, PfabricServesSmallestRemainingFirst) {
  EventQueue ev;
  auto cfg = port_10g();
  cfg.pfabric = true;
  std::vector<std::int64_t> order;
  SwitchPortSim port(ev, cfg, [&](PacketHandle h) {
    order.push_back(ev.pool().get(h).remaining);
    ev.pool().free(h);
  });
  // First packet occupies the wire; the rest queue with mixed urgency.
  Packet first = data_packet(0);
  first.remaining = 1;
  port.enqueue(ev.pool().clone(first));
  for (std::int64_t r : {500000, 1000, 200000, 50}) {
    Packet p = data_packet(1);
    p.remaining = r;
    port.enqueue(ev.pool().clone(p));
  }
  ev.run_all();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[1], 50);       // most urgent jumps the queue
  EXPECT_EQ(order[2], 1000);
  EXPECT_EQ(order[3], 200000);
  EXPECT_EQ(order[4], 500000);
}

TEST(SwitchPort, PfabricEvictsLargestOnOverflow) {
  EventQueue ev;
  auto cfg = port_10g();
  cfg.pfabric = true;
  cfg.buffer = Bytes{4 * 1500};  // room for ~4 packets
  std::vector<std::int64_t> delivered;
  SwitchPortSim port(ev, cfg, [&](PacketHandle h) {
    delivered.push_back(ev.pool().get(h).remaining);
    ev.pool().free(h);
  });
  // Fill with bulky packets, then push urgent ones: bulk gets evicted.
  for (int i = 0; i < 5; ++i) {
    Packet p = data_packet(i);
    p.remaining = 1000000 + i;
    port.enqueue(ev.pool().clone(p));
  }
  for (int i = 0; i < 3; ++i) {
    Packet p = data_packet(10 + i);
    p.remaining = 10 + i;
    port.enqueue(ev.pool().clone(p));
  }
  ev.run_all();
  EXPECT_GT(port.stats().drops, 0);
  // Every urgent packet survived the overflow.
  int urgent = 0;
  for (auto r : delivered) urgent += r < 100;
  EXPECT_EQ(urgent, 3);
}
// One TcpFlow across a single bottleneck port and back.
struct Loop {
  EventQueue ev;
  SwitchPortSim fwd;
  SwitchPortSim rev;
  std::unique_ptr<TcpFlow> flow;

  explicit Loop(TcpConfig cfg = {}, PortConfig pcfg = port_10g())
      : fwd(ev, pcfg, [this](PacketHandle h) { consume(h); }),
        rev(ev, pcfg, [this](PacketHandle h) { consume(h); }) {
    flow = std::make_unique<TcpFlow>(
        ev, 0, 0, 1, 0, 1, cfg, [this](PacketHandle h) { fwd.enqueue(h); },
        [this](PacketHandle h) { rev.enqueue(h); });
  }

  void consume(PacketHandle h) {
    const Packet p = ev.pool().get(h);  // copy: on_packet allocates the ACK
    ev.pool().free(h);
    flow->on_packet(p);
  }
};

TEST(TcpFlow, DeliversAllBytesInOrder) {
  Loop loop;
  std::int64_t delivered = 0;
  loop.flow->set_on_delivery([&](std::int64_t d) { delivered = d; });
  loop.flow->app_write(1 * kMB);
  loop.ev.run_all();
  EXPECT_EQ(delivered, (1 * kMB).count());
  EXPECT_EQ(loop.flow->bytes_acked(), (1 * kMB).count());
  EXPECT_TRUE(loop.flow->rto_events().empty());
}

TEST(TcpFlow, ApproachesLineRate) {
  Loop loop;
  loop.flow->app_write(20 * kMB);
  loop.ev.run_all();
  const double secs =
      static_cast<double>(loop.ev.now()) / static_cast<double>(kSec);
  const double gbps = 20e6 * 8 / secs / 1e9;
  // The transfer includes one slow-start overshoot + NewReno recovery
  // episode, so average goodput sits below the 10G wire but well above
  // half of it.
  EXPECT_GT(gbps, 5.0);
  EXPECT_LT(gbps, 10.0);
}

TEST(TcpFlow, RecoversFromLossViaFastRetransmit) {
  auto pcfg = port_10g();
  pcfg.buffer = Bytes{8 * 1500};  // shallow: slow-start overshoot drops packets
  Loop loop({}, pcfg);
  std::int64_t delivered = 0;
  loop.flow->set_on_delivery([&](std::int64_t d) { delivered = d; });
  loop.flow->app_write(5 * kMB);
  loop.ev.run_all();
  EXPECT_EQ(delivered, (5 * kMB).count());
  EXPECT_GT(loop.fwd.stats().drops, 0);  // loss actually happened
}

TEST(TcpFlow, DctcpKeepsQueuesShorter) {
  auto run = [&](bool dctcp) {
    auto pcfg = port_10g();
    pcfg.buffer = 312 * kKB;
    if (dctcp) pcfg.ecn_threshold = 30 * kKB;
    TcpConfig tcp;
    tcp.dctcp = dctcp;
    Loop loop(tcp, pcfg);
    loop.flow->app_write(30 * kMB);
    loop.ev.run_all();
    return loop.fwd.stats().max_queue_bytes;
  };
  const auto q_tcp = run(false);
  const auto q_dctcp = run(true);
  EXPECT_LT(q_dctcp, q_tcp / 2);
}

TEST(TcpFlow, RtoFiresWhenAllAcksLost) {
  // Reverse path with zero buffer: every ACK dropped -> sender must RTO.
  EventQueue ev;
  TcpConfig cfg;
  cfg.min_rto = 10 * kMsec;
  auto pcfg = port_10g();
  int got_data = 0;
  SwitchPortSim fwd(ev, pcfg, [&](PacketHandle h) {
    ++got_data;
    ev.pool().free(h);
  });
  auto flow = std::make_unique<TcpFlow>(
      ev, 0, 0, 1, 0, 1, cfg, [&](PacketHandle h) { fwd.enqueue(h); },
      [&](PacketHandle h) { ev.pool().free(h); /* ACK black hole */ });
  flow->app_write(Bytes{10000});
  ev.run_until(100 * kMsec);
  EXPECT_GT(flow->rto_events().size(), 1u);  // retried with backoff
  EXPECT_GT(got_data, 0);
}

TEST(Fabric, RoutesAcrossRacksAndDropsVoids) {
  EventQueue ev;
  topology::TopologyConfig tcfg;
  tcfg.pods = 2;
  tcfg.racks_per_pod = 2;
  tcfg.servers_per_rack = 2;
  topology::Topology topo(tcfg);
  Fabric fabric(topo, PortConfig{}, std::vector<int>(topo.num_ports(), 0),
                {&ev});
  std::vector<Packet> received;
  fabric.set_island_deliver([&](int, EventQueue&, PacketHandle h) {
    received.push_back(ev.pool().get(h));
    ev.pool().free(h);
  });

  Packet p = data_packet(1);
  p.src_server = 0;
  p.dst_server = 7;  // cross-pod
  fabric.ingress_from_host(0, ev, ev.pool().clone(p));
  Packet v = p;
  v.is_void = true;
  fabric.ingress_from_host(0, ev, ev.pool().clone(v));
  ev.run_all();
  ASSERT_EQ(received.size(), 1u);  // the void died at the first hop
  EXPECT_EQ(received[0].dst_server, 7);
  // Cross-pod: 5 switch hops each adding serialization + link delay.
  EXPECT_GT(ev.now(), TimeNs{5 * 500});
}

TEST(Host, PacedHostSpacesPacketsOnWire) {
  EventQueue ev;
  topology::TopologyConfig tcfg;
  tcfg.pods = 1;
  tcfg.racks_per_pod = 1;
  tcfg.servers_per_rack = 2;
  topology::Topology topo(tcfg);
  Fabric fabric(topo, PortConfig{}, std::vector<int>(topo.num_ports(), 0),
                {&ev});
  std::vector<TimeNs> arrivals;
  fabric.set_island_deliver([&](int, EventQueue&, PacketHandle h) {
    arrivals.push_back(ev.now());
    ev.pool().free(h);
  });

  Host::Config hcfg;
  hcfg.nic_mode = pacer::NicMode::kPacedVoid;
  Host host(ev, fabric, 0, hcfg);
  SiloGuarantee g{1 * kGbps, Bytes{1500}, TimeNs{0}, 1 * kGbps};
  pacer::VmPacer pacer(g);
  host.attach_pacer(0, &pacer);

  for (int i = 0; i < 10; ++i) {
    Packet p = data_packet(i);
    p.src_vm = 0;
    p.dst_vm = 1;
    p.src_server = 0;
    p.dst_server = 1;
    host.send(ev.pool().clone(p));
  }
  ev.run_all();
  ASSERT_EQ(arrivals.size(), 10u);
  // 1500 B at 1 Gbps: 12 us spacing (modulo the last-hop serialization,
  // which is identical for every packet).
  for (std::size_t i = 1; i < arrivals.size(); ++i)
    EXPECT_NEAR(static_cast<double>(arrivals[i] - arrivals[i - 1]), 12000,
                300);
  EXPECT_GT(host.nic_stats().void_packets, 0);
}

TEST(Host, LoopbackBypassesFabric) {
  EventQueue ev;
  topology::TopologyConfig tcfg;
  tcfg.pods = 1;
  tcfg.racks_per_pod = 1;
  tcfg.servers_per_rack = 2;
  topology::Topology topo(tcfg);
  Fabric fabric(topo, PortConfig{}, std::vector<int>(topo.num_ports(), 0),
                {&ev});
  fabric.set_island_deliver([](int, EventQueue&, PacketHandle) {
    FAIL() << "loopback hit the fabric";
  });
  Host host(ev, fabric, 0, Host::Config{});
  int local = 0;
  host.set_local_deliver([&](PacketHandle h) {
    ++local;
    ev.pool().free(h);
  });
  Packet p = data_packet(1);
  p.src_server = 0;
  p.dst_server = 0;
  host.send(ev.pool().clone(p));
  ev.run_all();
  EXPECT_EQ(local, 1);
}

}  // namespace
}  // namespace silo::sim
