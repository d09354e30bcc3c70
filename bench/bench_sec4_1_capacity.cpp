// Experiment E4 — the Section 4.1 capacity analysis, reproduced two ways:
//   1. the paper's own back-of-envelope model (analysis::ComputeCapacity);
//   2. a full discrete-event simulation of the target load: 50 client
//      nodes x 10 local ET1 TPS logging with N=2 to 6 log servers over
//      dual 10 Mbit networks, with the Section 4.1 instruction budgets.
//
// Also prints the grouped-vs-per-record messaging comparison (the 7x
// batching claim) using a second run with an MTU too small to pack.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/capacity.h"
#include "harness/cluster.h"
#include "harness/et1_driver.h"
#include "obs/bench_report.h"

namespace {

using namespace dlog;

struct RunResult {
  double tps = 0;
  double forces_per_server = 0;
  double packets_per_server = 0;
  double cpu_util = 0;
  double disk_util = 0;
  double mbits_per_sec = 0;  // both networks combined
  double bytes_per_server_per_sec = 0;
  double txn_p50_ms = 0;
  double txn_p95_ms = 0;
};

RunResult RunSimulation(int clients, int servers, int seconds,
                        size_t mtu_payload, bool multicast = false) {
  harness::ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = servers;
  cluster_cfg.num_networks = 2;
  cluster_cfg.server.cpu_mips = 4.0;
  harness::Cluster cluster(cluster_cfg);

  std::vector<std::unique_ptr<harness::Et1Driver>> drivers;
  for (int i = 0; i < clients; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = static_cast<ClientId>(i + 1);
    log_cfg.mtu_payload = mtu_payload;
    log_cfg.multicast_writes = multicast;
    harness::Et1DriverConfig driver_cfg;
    driver_cfg.tps = 10.0;
    driver_cfg.seed = 500 + i;
    drivers.push_back(std::make_unique<harness::Et1Driver>(
        &cluster, log_cfg, driver_cfg));
    drivers.back()->Start();
  }
  // Warm up (initialization traffic), then measure.
  cluster.sim().RunFor(2 * sim::kSecond);
  const sim::Time window_start = cluster.sim().Now();
  // Each server's CPU window counts the work submitted in it plus the
  // tail already queued at its start.
  std::vector<sim::Duration> cpu_busy_before(servers + 1);
  std::vector<uint64_t> forces_before(servers + 1);
  for (int s = 1; s <= servers; ++s) {
    const sim::Cpu& cpu = cluster.server(s).cpu();
    cpu_busy_before[s] = sim::BusyElapsed(cpu.busy_ns().value(),
                                          cpu.busy_until(), window_start);
    forces_before[s] = cluster.server(s).forces_acked().value();
  }
  const uint64_t committed_before = [&] {
    uint64_t c = 0;
    for (auto& d : drivers) c += d->committed();
    return c;
  }();
  const uint64_t net_bits_before =
      cluster.network(0).bits_sent() + cluster.network(1).bits_sent();

  cluster.sim().RunFor(static_cast<sim::Duration>(seconds) * sim::kSecond);
  const sim::Time now = cluster.sim().Now();

  RunResult r;
  uint64_t committed = 0;
  for (auto& d : drivers) {
    committed += d->committed();
    r.txn_p50_ms =
        std::max(r.txn_p50_ms, d->txn_latency_ms().Percentile(0.5));
    r.txn_p95_ms =
        std::max(r.txn_p95_ms, d->txn_latency_ms().Percentile(0.95));
  }
  r.tps = static_cast<double>(committed - committed_before) / seconds;
  double forces = 0, cpu = 0, disk = 0, bytes = 0;
  for (int s = 1; s <= servers; ++s) {
    forces += static_cast<double>(cluster.server(s).forces_acked().value() -
                                  forces_before[s]);
    // The CPU over the window and the disk since construction, each
    // stretched to when its queued work ends.
    const sim::Cpu& c = cluster.server(s).cpu();
    cpu += static_cast<double>(c.busy_ns().value() - cpu_busy_before[s]) /
           static_cast<double>(std::max(now, c.busy_until()) - window_start);
    const storage::SimDisk& d = cluster.server(s).disk();
    disk += static_cast<double>(d.busy_time()) /
            static_cast<double>(std::max(now, d.busy_until()));
    bytes += static_cast<double>(cluster.server(s).bytes_logged());
  }
  r.forces_per_server = forces / servers / seconds;
  r.cpu_util = cpu / servers;
  r.disk_util = disk / servers;
  r.bytes_per_server_per_sec = bytes / servers / (seconds + 2);
  r.mbits_per_sec = static_cast<double>(cluster.network(0).bits_sent() +
                                        cluster.network(1).bits_sent() -
                                        net_bits_before) /
                    seconds / 1e6;
  return r;
}

/// One BENCH_E4.json row: the run's configuration plus every measured
/// output of RunResult.
void ReportRun(obs::BenchReport* report, const char* label, int clients,
               int servers, size_t mtu_payload, bool multicast,
               const RunResult& r) {
  report->BeginRow();
  report->SetConfig("design", label);
  report->SetConfig("clients", clients);
  report->SetConfig("servers", servers);
  report->SetConfig("mtu_payload", static_cast<double>(mtu_payload));
  report->SetConfig("multicast", multicast ? 1.0 : 0.0);
  report->SetMetric("tps", r.tps);
  report->SetMetric("forces_per_server_per_sec", r.forces_per_server);
  report->SetMetric("network_mbits_per_sec", r.mbits_per_sec);
  report->SetMetric("server_cpu_util", r.cpu_util);
  report->SetMetric("server_disk_util", r.disk_util);
  report->SetMetric("log_bytes_per_server_per_sec",
                    r.bytes_per_server_per_sec);
  report->SetMetric("txn_p50_ms", r.txn_p50_ms);
  report->SetMetric("txn_p95_ms", r.txn_p95_ms);
}

}  // namespace

int main() {
  obs::BenchReport report("E4");

  // --- The paper's analytic model ---
  analysis::CapacityInputs in;
  analysis::CapacityOutputs out = analysis::ComputeCapacity(in);
  std::printf("%s\n", analysis::CapacityReport(in, out).c_str());

  // --- Discrete-event simulation of the same target load ---
  const int clients = 50, servers = 6, seconds = 10;
  std::printf(
      "Discrete-event simulation: %d clients x 10 ET1 TPS, %d servers, "
      "N=2, dual 10 Mbit LANs, %d measured seconds\n",
      clients, servers, seconds);
  RunResult grouped = RunSimulation(clients, servers, seconds,
                                    /*mtu_payload=*/1400);
  ReportRun(&report, "grouped_unicast", clients, servers, 1400, false,
            grouped);
  std::printf("  committed rate ............... %7.1f TPS   (target 500)\n",
              grouped.tps);
  std::printf(
      "  force RPCs per server ........ %7.1f /s    (paper: ~170)\n",
      grouped.forces_per_server);
  std::printf("  network load (both LANs) ..... %7.2f Mbit/s (paper: ~7)\n",
              grouped.mbits_per_sec);
  std::printf("  server CPU utilization ....... %7.1f %%\n",
              grouped.cpu_util * 100);
  std::printf("  server disk utilization ...... %7.1f %%\n",
              grouped.disk_util * 100);
  std::printf(
      "  log volume per server ........ %7.1f KB/s  (~%.1f GB/day, paper "
      "~10)\n",
      grouped.bytes_per_server_per_sec / 1024,
      grouped.bytes_per_server_per_sec * 86400 / 1e9);
  std::printf("  txn latency (worst client) ... p50 %.2f ms, p95 %.2f ms\n",
              grouped.txn_p50_ms, grouped.txn_p95_ms);

  // --- Multicast (Section 4.1: "With the use of multicast, this amount
  //     would be approximately halved"). ---
  RunResult mcast = RunSimulation(clients, servers, seconds, 1400,
                                  /*multicast=*/true);
  ReportRun(&report, "grouped_multicast", clients, servers, 1400, true,
            mcast);
  std::printf(
      "\nWith multicast record streams:\n"
      "  network load (both LANs) ..... %7.2f Mbit/s (unicast was %.2f; "
      "paper: ~halved)\n"
      "  committed rate ............... %7.1f TPS\n",
      mcast.mbits_per_sec, grouped.mbits_per_sec, mcast.tps);

  // --- Grouping ablation: an MTU too small to pack more than one
  //     record models the one-RPC-per-record design. ---
  std::printf(
      "\nGrouping ablation (one record per packet, 10 clients scaled):\n");
  RunResult grouped_small = RunSimulation(10, servers, seconds, 1400);
  RunResult ungrouped = RunSimulation(10, servers, seconds, 200);
  ReportRun(&report, "grouped_10_clients", 10, servers, 1400, false,
            grouped_small);
  ReportRun(&report, "ungrouped_10_clients", 10, servers, 200, false,
            ungrouped);
  std::printf("  grouped:   %6.1f TPS, p95 force-path latency %.2f ms\n",
              grouped_small.tps, grouped_small.txn_p95_ms);
  std::printf("  ungrouped: %6.1f TPS, p95 force-path latency %.2f ms\n",
              ungrouped.tps, ungrouped.txn_p95_ms);
  std::printf(
      "  (paper: grouping cuts per-record messages by ~7x; unbatched "
      "would be ~2400 msgs/s/server)\n");

  Status st = report.WriteJson("BENCH_E4.json");
  if (!st.ok()) {
    std::printf("failed to write BENCH_E4.json: %s\n",
                st.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote BENCH_E4.json (%zu rows)\n", report.rows());
  return 0;
}
