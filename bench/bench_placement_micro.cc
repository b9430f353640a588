// §5 placement microbenchmark: time to place tenants in a simulated
// datacenter with 100K hosts, average tenant size 49 VMs (as in the
// Oktopus / time-varying-reservation evaluations the paper cites).
// The paper reports a maximum placement time of 1.15 s over 100 K
// requests; this bench reports the full latency distribution of our
// implementation plus admission statistics.
//
// Ablation: --policy=oktopus / --policy=locality time the baselines'
// admission logic on the same request stream (default --policy=silo; any
// other value prints a usage line and exits 2).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "placement/placement.h"
#include "util/rng.h"

using namespace silo;
using namespace silo::placement;

namespace {

TenantRequest sample_request(Rng& rng, double mean_vms) {
  TenantRequest req;
  req.num_vms =
      2 + static_cast<int>(rng.exponential(mean_vms - 2));
  const bool class_a = rng.uniform() < 0.5;
  if (class_a) {
    req.tenant_class = TenantClass::kDelaySensitive;
    req.guarantee = {RateBps{std::clamp(rng.exponential(0.25e9), 0.05e9, 1e9)},
                     15 * kKB, 1300 * kUsec, 1 * kGbps};
  } else {
    req.tenant_class = TenantClass::kBandwidthOnly;
    req.guarantee = {RateBps{std::clamp(rng.exponential(2e9), 0.1e9, 5e9)},
                     Bytes{1500}, TimeNs{0}, RateBps{0}};
  }
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const auto requests = flags.geti("requests", 2000);
  const double mean_vms = flags.get("mean-vms", 49.0);
  const double occupancy_cap = flags.get("occupancy", 0.90);

  const std::string policy_name = flags.gets("policy", "silo");
  Policy policy = Policy::kSilo;
  if (policy_name == "oktopus") {
    policy = Policy::kOktopus;
  } else if (policy_name == "locality") {
    policy = Policy::kLocality;
  } else if (policy_name != "silo") {
    std::fprintf(stderr,
                 "bench_placement_micro: --policy must be silo, oktopus or "
                 "locality (got '%s')\n",
                 policy_name.c_str());
    return 2;
  }

  topology::TopologyConfig tcfg;
  tcfg.pods = 25;
  tcfg.racks_per_pod = 100;
  tcfg.servers_per_rack = 40;  // 100,000 hosts
  tcfg.vm_slots_per_server = 8;
  topology::Topology topo(tcfg);
  const bool hose_tighten = !flags.has("no-hose-tighten");
  PlacementEngine engine(topo, policy, 50 * kUsec, hose_tighten);

  bench::print_header(
      "Placement microbenchmark (§5): 100K hosts, ~49-VM tenants",
      "Wall-clock time of admission control + placement per request.\n"
      "Ablation: --no-hose-tighten uses the naive m*B aggregate instead\n"
      "of the hose-model min(m, N-m)*B bound of §4.2.2; --policy=oktopus\n"
      "or --policy=locality times a baseline's admission instead.");

  Rng rng(7);
  Stats micros;
  std::int64_t admitted = 0, attempted = 0;
  std::vector<TenantId> ids;
  const int slot_cap =
      static_cast<int>(occupancy_cap * topo.total_vm_slots());

  for (std::int64_t i = 0; i < requests; ++i) {
    // Hold occupancy near the cap by recycling old tenants, which is the
    // steady state a real placement manager operates in.
    while (topo.total_vm_slots() - engine.free_slots() > slot_cap &&
           !ids.empty()) {
      engine.remove(ids.front());
      ids.erase(ids.begin());
    }
    const auto req = sample_request(rng, mean_vms);
    ++attempted;
    const auto start = std::chrono::steady_clock::now();
    auto placed = engine.place(req);
    const auto end = std::chrono::steady_clock::now();
    micros.add(std::chrono::duration<double, std::micro>(end - start).count());
    if (placed) {
      ++admitted;
      ids.push_back(placed->id);
    }
  }

  TextTable table({"Metric", "Value"});
  table.add_row({"policy", policy_name});
  table.add_row({"requests", std::to_string(attempted)});
  table.add_row({"admitted", TextTable::fmt(
                                 100.0 * static_cast<double>(admitted) /
                                     static_cast<double>(attempted),
                                 1) +
                                 " %"});
  table.add_row({"mean placement time", TextTable::fmt(micros.mean(), 1) + " us"});
  table.add_row({"median", TextTable::fmt(micros.median(), 1) + " us"});
  table.add_row({"99th percentile", TextTable::fmt(micros.percentile(99), 1) + " us"});
  table.add_row({"max", TextTable::fmt(micros.max() / 1000.0, 2) + " ms"});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Paper reference: maximum placement time 1.15 s over 100K\n"
              "requests (their prototype); anything in that envelope keeps\n"
              "the placement manager off the tenant-arrival critical path.\n");

  if (flags.has("json")) {
    bench::JsonObject out;
    out.put("bench", std::string("placement_micro"))
        .put("policy", policy_name)
        .put("requests", static_cast<std::int64_t>(attempted))
        .put("admitted", static_cast<std::int64_t>(admitted))
        .put("mean_us", micros.mean())
        .put("median_us", micros.median())
        .put("p99_us", micros.percentile(99))
        .put("max_us", micros.max());
    bench::write_json_file("BENCH_placement_micro.json", out);
  }

  // Placement engine only — no packet simulation, so no metric registry;
  // the manifest records the run shape with an empty metrics array.
  obs::RunManifest m;
  m.bench = "placement_micro";
  m.seed = 7;
  m.topology = {{"pods", tcfg.pods},
                {"racks_per_pod", tcfg.racks_per_pod},
                {"servers_per_rack", tcfg.servers_per_rack},
                {"vm_slots_per_server", tcfg.vm_slots_per_server}};
  m.params = {{"requests", std::to_string(requests)},
              {"mean_vms", TextTable::fmt(mean_vms, 1)},
              {"occupancy", TextTable::fmt(occupancy_cap, 2)},
              {"policy", policy_name}};
  bench::maybe_write_manifest(flags, m);
  return 0;
}
