// Experiment E13 — ablation of the two Section 4.1 design points:
//   1. the low-latency non-volatile buffer: with it, a ForceLog is
//      acknowledged as soon as records reach battery-backed CMOS; without
//      it every force waits for the disk ("the rotational latencies would
//      still be too high to permit each request to be forced to disk
//      independently");
//   2. track-at-a-time group buffering: records from many clients merge
//      into sequential whole-track writes instead of per-force disk
//      writes.
//
// Reports force latency and disk writes/second for NVRAM vs no-NVRAM
// servers under the same multi-client ET1 load.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "harness/cluster.h"
#include "harness/et1_driver.h"

namespace {

using namespace dlog;

struct AblationResult {
  double tps = 0;
  double txn_p50 = 0, txn_p95 = 0;
  double disk_writes_per_sec = 0;
  double forces_per_sec = 0;
  double disk_util = 0;
};

AblationResult Run(bool nvram_ack, int clients, int seconds) {
  harness::ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = 3;
  cluster_cfg.server.ack_after_disk = !nvram_ack;
  harness::Cluster cluster(cluster_cfg);

  std::vector<std::unique_ptr<harness::Et1Driver>> drivers;
  for (int i = 0; i < clients; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = static_cast<ClientId>(i + 1);
    log_cfg.force_timeout = 500 * sim::kMillisecond;
    harness::Et1DriverConfig driver_cfg;
    driver_cfg.tps = 10.0;
    driver_cfg.seed = 40 + i;
    drivers.push_back(std::make_unique<harness::Et1Driver>(
        &cluster, log_cfg, driver_cfg));
    drivers.back()->Start();
  }
  cluster.sim().RunFor(static_cast<sim::Duration>(seconds) * sim::kSecond);

  AblationResult r;
  uint64_t committed = 0;
  for (auto& d : drivers) {
    committed += d->committed();
    r.txn_p50 = std::max(r.txn_p50, d->txn_latency_ms().Percentile(0.5));
    r.txn_p95 = std::max(r.txn_p95, d->txn_latency_ms().Percentile(0.95));
  }
  r.tps = static_cast<double>(committed) / seconds;
  double writes = 0, forces = 0, util = 0;
  for (int s = 1; s <= cluster.num_servers(); ++s) {
    writes += static_cast<double>(cluster.server(s).disk().writes().value());
    forces += static_cast<double>(cluster.server(s).forces_acked().value());
    // Busy fraction since construction, up to when queued work ends.
    const storage::SimDisk& disk = cluster.server(s).disk();
    util += static_cast<double>(disk.busy_time()) /
            static_cast<double>(std::max(cluster.Now(), disk.busy_until()));
  }
  r.disk_writes_per_sec = writes / seconds;
  r.forces_per_sec = forces / seconds;
  r.disk_util = util / cluster.num_servers();
  return r;
}

}  // namespace

int main() {
  const int clients = 10, seconds = 15;
  std::printf(
      "Group commit / NVRAM ablation (%d clients x 10 ET1 TPS, 3 servers, "
      "N=2, %d simulated seconds)\n\n",
      clients, seconds);
  AblationResult with_nvram = Run(/*nvram_ack=*/true, clients, seconds);
  AblationResult no_nvram = Run(/*nvram_ack=*/false, clients, seconds);

  std::printf("%-28s %14s %14s\n", "", "NVRAM ack", "ack after disk");
  std::printf("%-28s %14.1f %14.1f\n", "committed TPS", with_nvram.tps,
              no_nvram.tps);
  std::printf("%-28s %14.2f %14.2f\n", "txn p50 latency (ms)",
              with_nvram.txn_p50, no_nvram.txn_p50);
  std::printf("%-28s %14.2f %14.2f\n", "txn p95 latency (ms)",
              with_nvram.txn_p95, no_nvram.txn_p95);
  std::printf("%-28s %14.1f %14.1f\n", "disk track writes /s (all)",
              with_nvram.disk_writes_per_sec, no_nvram.disk_writes_per_sec);
  std::printf("%-28s %14.1f %14.1f\n", "forces acked /s (all)",
              with_nvram.forces_per_sec, no_nvram.forces_per_sec);
  std::printf("%-28s %13.1f%% %13.1f%%\n", "disk utilization",
              with_nvram.disk_util * 100, no_nvram.disk_util * 100);
  std::printf(
      "\nShape check (paper): without the low-latency non-volatile "
      "buffer, force latency absorbs rotational delays and the disk sees "
      "more, smaller writes.\n");
  return 0;
}
