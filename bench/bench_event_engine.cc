// Event-engine benchmark on the production engine (timing wheel + typed
// events + packet pool), in three phases.
//
// Ring: a ring of output-queued switch ports forwarding a fixed population
// of packets for a fixed hop count, plus periodic pacer-gate-style timers.
// Its event count has a closed form — one injection per packet, a tx-done
// and a delivery per hop, one event per timer tick — and every packet must
// finish its hops; the run fails on either mismatch.
//
// Cluster: a real Fig-12-style ClusterSim run through the full
// host/pacer/fabric stack.
//
// Parallel: the island engine on a 32K-server fabric, one row per
// --threads value, with a machine-independent record (islands, rounds,
// busiest-island share) alongside wall-clock events/s. All rows must
// process identical event and message counts (the determinism matrix at
// scale); the >=3x speedup gate applies only when the machine actually has
// >=8 hardware threads.
//
// Writes BENCH_event_engine.json into the working directory.
//
// Flags: --ports=16 --packets=2000 --hops=512 --timer-ticks=2000
//        --duration-ms=100 (cluster phase)
//        --par-pods=32 --par-racks=32 --par-servers=32 (32768 servers)
//        --par-duration-ms=2 --threads=1,2,4,8
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
// hardware_concurrency() gates the parallel speedup acceptance check; no
// threads are created here — the executor lives in src/par.
#include <thread>  // silo-analyze: allow(banned-include)
#include <vector>

#include "bench/bench_util.h"
#include "par/thread_executor.h"
#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/port.h"
#include "workload/drivers.h"
#include "workload/patterns.h"

using namespace silo;

namespace {

struct RingParams {
  int ports = 16;
  int packets = 2000;
  int hops = 512;
  int timer_ticks = 2000;  ///< per-port 50 us periodic gate-open timers
};

sim::PortConfig ring_port_config() {
  sim::PortConfig cfg;
  cfg.rate = 10 * kGbps;
  cfg.buffer = 64 * kMB;  // sized so the ring never drops
  cfg.link_delay = TimeNs{500};
  return cfg;
}

sim::Packet ring_packet(int j, int hops) {
  sim::Packet p;
  p.id = static_cast<std::uint64_t>(j);
  p.payload = Bytes{1460};
  p.wire_bytes = Bytes{1500};
  // The 8-bit `hop` field wraps at 256, so the ring counts hops down in
  // `remaining` (int64, unused by non-pFabric ports).
  p.remaining = hops;
  return p;
}

struct RingResult {
  std::uint64_t events = 0;
  double wall_s = 0;
  std::uint64_t delivered = 0;  ///< packets that completed all hops
  double events_per_sec() const { return events / wall_s; }
};

/// One injection per packet, a tx-done and a delivery per hop, and one
/// event per timer tick.
std::uint64_t expected_ring_events(const RingParams& rp) {
  const auto packets = static_cast<std::uint64_t>(rp.packets);
  return packets + 2 * packets * static_cast<std::uint64_t>(rp.hops) +
         static_cast<std::uint64_t>(rp.ports) *
             static_cast<std::uint64_t>(rp.timer_ticks);
}

RingResult run_ring(const RingParams& rp) {
  sim::EventQueue ev;
  std::vector<std::unique_ptr<sim::SwitchPortSim>> ports(rp.ports);
  std::uint64_t done = 0;
  for (int i = 0; i < rp.ports; ++i) {
    ports[i] = std::make_unique<sim::SwitchPortSim>(
        ev, ring_port_config(), [&, i](sim::PacketHandle h) {
          sim::Packet& p = ev.pool().get(h);
          if (--p.remaining > 0) {
            ports[(i + 1) % rp.ports]->enqueue(h);
          } else {
            ev.pool().free(h);
            ++done;
          }
        });
  }
  for (int j = 0; j < rp.packets; ++j) {
    // Injection itself stays a cold-path callback (as drivers do); the per
    // hop traffic below is all typed events.
    ev.at(TimeNs{j * 737}, [&, j] {
      ports[j % rp.ports]->enqueue(ev.pool().clone(ring_packet(j, rp.hops)));
    });
  }
  struct Ticker {
    sim::EventQueue& ev;
    int remaining;
    static void fire(void* self, std::uint32_t) {
      auto* t = static_cast<Ticker*>(self);
      if (t->remaining-- > 0) t->ev.raw_after(50 * kUsec, &Ticker::fire, t);
    }
  };
  // remaining = ticks - 1: the initial raw_after below is tick #1.
  std::vector<Ticker> tickers(rp.ports, Ticker{ev, rp.timer_ticks - 1});
  if (rp.timer_ticks > 0)
    for (auto& t : tickers) ev.raw_after(50 * kUsec, &Ticker::fire, &t);

  const auto t0 = std::chrono::steady_clock::now();
  ev.run_all();
  const auto t1 = std::chrono::steady_clock::now();
  return {ev.processed(), std::chrono::duration<double>(t1 - t0).count(),
          done};
}

// ---------------------------------------------------------------------------
// Phase 2: a real Fig-12-style cluster run on the production engine —
// OLDI bursts plus all-to-all bulk through the full host/pacer/fabric
// stack, reporting end-to-end simulator throughput and pool behavior.
struct ClusterResult {
  std::uint64_t events = 0;
  double wall_s = 0;
  std::uint64_t packets = 0;
  std::uint64_t pool_capacity = 0;
  std::int64_t pool_peak_live = 0;
  std::uint64_t callback_events = 0;
  std::vector<obs::MetricSample> metrics;  ///< end-of-run snapshot
};

ClusterResult run_cluster(TimeNs duration) {
  sim::ClusterConfig cfg;
  cfg.topo.pods = 1;
  cfg.topo.racks_per_pod = 2;
  cfg.topo.servers_per_rack = 8;
  cfg.topo.vm_slots_per_server = 4;
  cfg.scheme = sim::Scheme::kSilo;
  sim::ClusterSim cluster(cfg);

  TenantRequest a;
  a.num_vms = 18;
  a.tenant_class = TenantClass::kDelaySensitive;
  a.guarantee = {RateBps{0.3e9}, 15 * kKB, 1 * kMsec, 1 * kGbps};
  const auto ta = cluster.add_tenant(a);
  TenantRequest b;
  b.num_vms = 8;
  b.tenant_class = TenantClass::kBandwidthOnly;
  b.guarantee = {RateBps{1e9}, Bytes{1500}, TimeNs{0}, RateBps{1e9}};
  const auto tb = cluster.add_tenant(b);
  if (!ta || !tb) return {};

  workload::BurstDriver::Config bc;
  bc.receiver = 0;
  bc.message_size = 15 * kKB;
  bc.epochs_per_sec = 2000;
  workload::BurstDriver burst(cluster, *ta, a.num_vms, bc, 42);
  workload::BulkDriver bulk(cluster, *tb, workload::all_to_all(b.num_vms),
                            64 * kKB);
  burst.start(duration);
  bulk.start(duration);

  const auto t0 = std::chrono::steady_clock::now();
  cluster.run_until(duration);
  const auto t1 = std::chrono::steady_clock::now();

  ClusterResult r;
  r.events = cluster.events().processed();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.packets =
      static_cast<std::uint64_t>(cluster.events().pool().total_allocs());
  r.pool_capacity = cluster.events().pool().capacity();
  r.pool_peak_live = cluster.events().pool().peak_live();
  r.callback_events = cluster.events().callback_events();
  r.metrics = cluster.merged_metrics();
  return r;
}

// ---------------------------------------------------------------------------
// Phase 3: parallel island engine at fleet scale. Every rack runs a local
// all-to-all bulk tenant (one island per rack, infinite lookahead between
// unrelated racks) and each adjacent pod pair shares one crossing tenant,
// so the shared aggregation queues become dedicated islands synchronized
// by conservative windows.
struct ParallelParams {
  int pods = 32;
  int racks_per_pod = 32;
  int servers_per_rack = 32;
  TimeNs duration = 2 * kMsec;
};

struct ParallelRow {
  int threads = 0;
  std::uint64_t events = 0;
  double wall_s = 0;
  std::int64_t completed = 0;
  std::int64_t rounds = 0;
  int islands = 0;
  int crossings = 0;
  double busiest_share = 0;  ///< events of the hottest island / total
  double events_per_sec() const { return events / wall_s; }
};

ParallelRow run_parallel_cluster(const ParallelParams& pp, int threads) {
  sim::ClusterConfig cfg;
  cfg.topo.pods = pp.pods;
  cfg.topo.racks_per_pod = pp.racks_per_pod;
  cfg.topo.servers_per_rack = pp.servers_per_rack;
  cfg.topo.vm_slots_per_server = 2;
  cfg.scheme = sim::Scheme::kTcp;
  cfg.parallel.enabled = true;
  sim::ClusterSim cluster(cfg);
  std::unique_ptr<par::ThreadPoolExecutor> pool;
  if (threads >= 1) {
    pool = std::make_unique<par::ThreadPoolExecutor>(threads);
    cluster.set_island_executor(pool.get());
  }

  TenantRequest quad;
  quad.num_vms = 4;
  quad.tenant_class = TenantClass::kBandwidthOnly;
  quad.guarantee = {RateBps{1e9}, Bytes{1500}, TimeNs{0}, RateBps{1e9}};
  std::vector<std::unique_ptr<workload::BulkDriver>> drivers;
  const int racks = pp.pods * pp.racks_per_pod;
  drivers.reserve(static_cast<std::size_t>(racks + pp.pods));
  for (int r = 0; r < racks; ++r) {
    const int base = r * pp.servers_per_rack;
    const int t = cluster.add_tenant_pinned(
        quad, {base, base + 1, base + 2, base + 3});
    drivers.push_back(std::make_unique<workload::BulkDriver>(
        cluster, t, workload::all_to_all(4), 64 * kKB,
        static_cast<std::uint64_t>(100 + r)));
  }
  // Disjoint pod pairs, two crossing tenants per pair from different rack
  // groups: each pair's aggregation queues are shared by two distinct
  // islands, so they become dedicated islands and every window round has
  // real cross-island traffic to synchronize. (A single chain of spanning
  // tenants would union everything into one island and never window.)
  TenantRequest pair = quad;
  pair.num_vms = 2;
  const int pod_servers = pp.racks_per_pod * pp.servers_per_rack;
  for (int p = 0; p + 1 < pp.pods; p += 2) {
    for (int g = 0; g < 2 && g < pp.racks_per_pod; ++g) {
      const int off = g * pp.servers_per_rack + 4 % pp.servers_per_rack;
      const int t = cluster.add_tenant_pinned(
          pair, {p * pod_servers + off, (p + 1) * pod_servers + off});
      drivers.push_back(std::make_unique<workload::BulkDriver>(
          cluster, t, workload::all_to_all(2), 64 * kKB,
          static_cast<std::uint64_t>(7000 + 2 * p + g)));
    }
  }
  for (auto& d : drivers) d->start(pp.duration);

  const auto t0 = std::chrono::steady_clock::now();
  cluster.run_until(pp.duration);
  const auto t1 = std::chrono::steady_clock::now();

  ParallelRow row;
  row.threads = threads;
  row.events = cluster.total_processed();
  row.wall_s = std::chrono::duration<double>(t1 - t0).count();
  row.completed = cluster.total_completed_messages();
  row.rounds = cluster.parallel_rounds();
  row.islands = cluster.num_islands();
  row.crossings = cluster.partition().crossing_edges;
  std::uint64_t busiest = 0;
  for (int i = 0; i < row.islands; ++i)
    busiest = std::max(busiest, cluster.island_processed(i));
  row.busiest_share = row.events ? static_cast<double>(busiest) /
                                       static_cast<double>(row.events)
                                 : 0.0;
  return row;
}

std::vector<int> parse_thread_list(const std::string& spec) {
  std::vector<int> out;
  int cur = -1;
  for (const char c : spec) {
    if (c >= '0' && c <= '9') {
      cur = (cur < 0 ? 0 : cur * 10) + (c - '0');
    } else if (cur >= 0) {
      out.push_back(cur);
      cur = -1;
    }
  }
  if (cur >= 0) out.push_back(cur);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  RingParams rp;
  rp.ports = static_cast<int>(flags.geti("ports", rp.ports));
  rp.packets = static_cast<int>(flags.geti("packets", rp.packets));
  rp.hops = static_cast<int>(flags.geti("hops", rp.hops));
  rp.timer_ticks = static_cast<int>(flags.geti("timer-ticks", rp.timer_ticks));
  const TimeNs duration = flags.geti("duration-ms", 100) * kMsec;
  // Every packet makes at least one hop, so the closed form needs hops >= 1.
  if (rp.ports < 1 || rp.packets < 0 || rp.hops < 1 || rp.timer_ticks < 0) {
    std::fprintf(stderr,
                 "bench_event_engine: need --ports>=1, --packets>=0, "
                 "--hops>=1, --timer-ticks>=0\n");
    return 2;
  }

  bench::print_header(
      "Event-engine benchmark",
      "Timing wheel + typed events + packet pool on a port-ring event mix\n"
      "with a closed-form event count, plus a Fig-12-style ClusterSim run\n"
      "and the parallel island engine at fleet scale.");

  const auto ring = run_ring(rp);
  const std::uint64_t ring_expected = expected_ring_events(rp);
  const bool ring_ok = ring.events == ring_expected &&
                       ring.delivered == static_cast<std::uint64_t>(rp.packets);
  std::printf("ring (%d ports, %d packets x %d hops, %d ticks/port): %llu "
              "events (expected %llu), %llu/%d delivered, %.1f ms, "
              "%.3gM events/s%s\n",
              rp.ports, rp.packets, rp.hops, rp.timer_ticks,
              static_cast<unsigned long long>(ring.events),
              static_cast<unsigned long long>(ring_expected),
              static_cast<unsigned long long>(ring.delivered), rp.packets,
              ring.wall_s * 1e3, ring.events_per_sec() / 1e6,
              ring_ok ? "" : "  FAIL: event or delivery count mismatch");

  const auto cl = run_cluster(duration);
  std::printf("cluster (Fig-12 style, %lld ms sim): %llu events in %.2f s "
              "(%.3gM events/s), %llu packets, pool capacity %llu "
              "(peak live %lld), %llu std::function events\n",
              static_cast<long long>(duration / kMsec),
              static_cast<unsigned long long>(cl.events), cl.wall_s,
              cl.events / cl.wall_s / 1e6,
              static_cast<unsigned long long>(cl.packets),
              static_cast<unsigned long long>(cl.pool_capacity),
              static_cast<long long>(cl.pool_peak_live),
              static_cast<unsigned long long>(cl.callback_events));

  // ------------------------------------------------------- parallel phase
  ParallelParams pp;
  pp.pods = static_cast<int>(flags.geti("par-pods", pp.pods));
  pp.racks_per_pod =
      static_cast<int>(flags.geti("par-racks", pp.racks_per_pod));
  pp.servers_per_rack =
      static_cast<int>(flags.geti("par-servers", pp.servers_per_rack));
  pp.duration = flags.geti("par-duration-ms", 2) * kMsec;
  const std::vector<int> thread_list =
      parse_thread_list(flags.gets("threads", "1,2,4,8"));
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("\nparallel islands (%d pods x %d racks x %d servers = %d "
              "servers, %lld ms sim, %u hw threads)\n",
              pp.pods, pp.racks_per_pod, pp.servers_per_rack,
              pp.pods * pp.racks_per_pod * pp.servers_per_rack,
              static_cast<long long>(pp.duration / kMsec), hw);
  std::printf("%8s %12s %10s %14s %9s %8s %8s %14s\n", "threads", "events",
              "wall_ms", "events/sec", "speedup", "islands", "rounds",
              "busiest_share");
  std::vector<ParallelRow> rows;
  rows.reserve(thread_list.size());
  bool rows_identical = true;
  double base_eps = 0;
  for (const int t : thread_list) {
    rows.push_back(run_parallel_cluster(pp, t));
    const ParallelRow& row = rows.back();
    if (row.events != rows.front().events ||
        row.completed != rows.front().completed)
      rows_identical = false;
    if (rows.size() == 1) base_eps = row.events_per_sec();
    std::printf("%8d %12llu %10.1f %13.3gM %8.2fx %8d %8lld %13.1f%%\n",
                row.threads, static_cast<unsigned long long>(row.events),
                row.wall_s * 1e3, row.events_per_sec() / 1e6,
                row.events_per_sec() / base_eps, row.islands,
                static_cast<long long>(row.rounds), row.busiest_share * 100);
  }
  if (!rows_identical)
    std::printf("WARNING: rows disagree on events/completed — parallel "
                "determinism broken at scale\n");

  // The >=3x gate needs 8 real cores; on smaller machines the run still
  // records the machine-independent evidence (identical event counts, the
  // island/round structure, and the busiest-island share that bounds the
  // achievable speedup) and the gate is reported as skipped.
  double par_speedup = 0;
  const ParallelRow* r1 = nullptr;
  const ParallelRow* r8 = nullptr;
  for (const auto& row : rows) {
    if (row.threads == 1) r1 = &row;
    if (row.threads == 8) r8 = &row;
  }
  if (r1 && r8) par_speedup = r8->events_per_sec() / r1->events_per_sec();
  const bool par_gate_applies = hw >= 8 && r1 != nullptr && r8 != nullptr;
  const bool par_gate_ok = !par_gate_applies || par_speedup >= 3.0;
  if (r1 && r8)
    std::printf("parallel speedup 8t/1t: %.2fx (gate %s: need >=3x on >=8 "
                "hw threads, have %u)\n",
                par_speedup,
                par_gate_applies ? (par_gate_ok ? "PASS" : "FAIL") : "skipped",
                hw);

  bench::JsonObject ring_json;
  ring_json.put("ports", rp.ports)
      .put("packets", rp.packets)
      .put("hops", rp.hops)
      .put("timer_ticks", rp.timer_ticks)
      .put("events", ring.events)
      .put("expected_events", ring_expected)
      .put("delivered", ring.delivered)
      .put("wall_s", ring.wall_s)
      .put("events_per_sec", ring.events_per_sec());
  bench::JsonObject cluster_json;
  cluster_json.put("sim_ms", static_cast<std::int64_t>(duration / kMsec))
      .put("events", cl.events)
      .put("wall_s", cl.wall_s)
      .put("events_per_sec", cl.events / cl.wall_s)
      .put("packets", cl.packets)
      .put("pool_capacity", cl.pool_capacity)
      .put("pool_peak_live", static_cast<std::int64_t>(cl.pool_peak_live))
      .put("callback_events", cl.callback_events);
  bench::JsonObject par_json;
  par_json.put("pods", pp.pods)
      .put("racks_per_pod", pp.racks_per_pod)
      .put("servers_per_rack", pp.servers_per_rack)
      .put("servers", pp.pods * pp.racks_per_pod * pp.servers_per_rack)
      .put("sim_ms", static_cast<std::int64_t>(pp.duration / kMsec))
      .put("hw_threads", static_cast<std::int64_t>(hw))
      .put("rows_identical", rows_identical)
      .put("speedup_8t_over_1t", par_speedup)
      .put("gate_applies", par_gate_applies)
      .put("gate_ok", par_gate_ok);
  std::vector<bench::JsonObject> row_json;
  row_json.reserve(rows.size());
  for (const auto& row : rows) {
    bench::JsonObject j;
    j.put("threads", row.threads)
        .put("events", row.events)
        .put("wall_s", row.wall_s)
        .put("events_per_sec", row.events_per_sec())
        .put("completed_messages", row.completed)
        .put("islands", row.islands)
        .put("rounds", row.rounds)
        .put("crossing_edges", row.crossings)
        .put("busiest_island_share", row.busiest_share);
    row_json.push_back(j);
  }
  par_json.put("rows", row_json);

  bench::JsonObject out;
  out.put("bench", std::string("event_engine"))
      .put("ring", ring_json)
      .put("cluster", cluster_json)
      .put("parallel", par_json);
  bench::write_json_file("BENCH_event_engine.json", out);

  obs::RunManifest m;
  m.bench = "event_engine";
  m.seed = 42;
  m.topology = {{"pods", 1},
                {"racks_per_pod", 2},
                {"servers_per_rack", 8},
                {"vm_slots_per_server", 4}};
  m.params = {{"sim_ms", std::to_string(duration / kMsec)},
              {"ring_ports", std::to_string(rp.ports)},
              {"ring_packets", std::to_string(rp.packets)},
              {"metrics", "cluster phase (Silo)"}};
  bench::maybe_write_manifest(flags, m, cl.metrics);
  // Acceptance gates: the ring's closed-form event and delivery counts;
  // identical event/message counts across every thread row; >=3x parallel
  // speedup when the machine has the cores to show it.
  return (ring_ok && rows_identical && par_gate_ok) ? 0 : 1;
}
