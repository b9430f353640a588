// Table 1 (§2.3.1): percentage of messages whose latency exceeds the
// tenant's latency guarantee, as a function of the bandwidth guarantee
// (columns, multiples of the average required bandwidth B) and the burst
// allowance (rows, multiples of the message size M).
//
// Workload: fixed-size messages with Poisson arrivals between two VMs of
// a Silo tenant (pacer enforced, cross-server). A message is "late" when
// its measured latency exceeds the §4.1 bound for the configured
// guarantee. Paper shape: the top-left corner is almost always late; both
// knobs together drive lateness to ~zero toward the bottom right.
#include <vector>

#include "bench/bench_util.h"
#include "model/guarantee.h"
#include "sim/cluster.h"
#include "workload/drivers.h"

using namespace silo;

namespace {

double run_cell(double bw_mult, int burst_mult, Bytes msg, double rate,
                TimeNs duration, std::uint64_t seed,
                std::vector<obs::MetricSample>* snap = nullptr) {
  sim::ClusterConfig cfg;
  cfg.topo.pods = 1;
  cfg.topo.racks_per_pod = 1;
  cfg.topo.servers_per_rack = 2;
  cfg.topo.vm_slots_per_server = 1;
  cfg.topo.oversubscription = 1.0;
  cfg.scheme = sim::Scheme::kSilo;
  sim::ClusterSim cluster(cfg);

  const double avg_bw = rate * static_cast<double>(msg) * 8.0;
  TenantRequest req;
  req.num_vms = 2;
  req.guarantee = {RateBps{avg_bw * bw_mult}, burst_mult * msg,
                   1 * kMsec, 1 * kGbps};
  req.tenant_class = TenantClass::kDelaySensitive;
  const auto tenant = cluster.add_tenant(req);
  if (!tenant) return -1.0;

  workload::PoissonMessageDriver driver(cluster, *tenant, 0, 1, rate, msg,
                                        seed);
  driver.start(duration);
  cluster.run_until(duration + 200 * kMsec);

  const TimeNs bound = max_message_latency(req.guarantee, msg);
  const double bound_us =
      static_cast<double>(bound) / static_cast<double>(kUsec);
  if (snap) *snap = cluster.merged_metrics();
  return 100.0 * driver.latencies_us().fraction_above(bound_us);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const Bytes msg{flags.geti("message-bytes", (10 * kKB).count())};
  const double rate = flags.get("msgs-per-sec", 200.0);
  const auto duration = TimeNs{static_cast<std::int64_t>(
      flags.get("duration-s", 30.0) * static_cast<double>(kSec))};
  const auto seed = static_cast<std::uint64_t>(flags.geti("seed", 1));

  bench::print_header(
      "Table 1: late messages vs bandwidth guarantee and burst allowance",
      "Cell: % of Poisson-arrival messages (size M) whose latency exceeds\n"
      "the guarantee; B = average required bandwidth.");

  const std::vector<double> bw_mults{1.0, 1.4, 1.8, 2.2, 2.6, 3.0};
  const std::vector<int> burst_mults{1, 3, 5, 7, 9};

  TextTable table({"Burst\\Bandwidth", "B", "1.4B", "1.8B", "2.2B", "2.6B",
                   "3B"});
  std::vector<obs::MetricSample> last_snap;
  for (int bm : burst_mults) {
    std::vector<std::string> row{std::to_string(bm) + "M"};
    for (double wm : bw_mults) {
      const double late = run_cell(wm, bm, msg, rate, duration, seed,
                                   &last_snap);
      row.push_back(late < 0 ? "rej" : TextTable::fmt(late, 2));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Paper (Table 1) reference shape: row M: 99 77 55 45 38 33;\n"
              "row 9M: 98 0.4 0.01 0 0 0 — lateness collapses once both\n"
              "burst and bandwidth exceed the average demand.\n");

  obs::RunManifest m;
  m.bench = "table1";
  m.seed = seed;
  m.topology = {{"servers", 2}, {"vm_slots_per_server", 1}};
  m.params = {{"message_bytes", std::to_string(msg.count())},
              {"msgs_per_sec", TextTable::fmt(rate, 1)},
              {"duration_s", std::to_string(duration / kSec)},
              {"metrics", "bottom-right cell (9M / 3B)"}};
  bench::maybe_write_manifest(flags, m, last_snap);
  return 0;
}
