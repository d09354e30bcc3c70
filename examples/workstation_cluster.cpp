// Workstation cluster: a scaled-down version of the paper's target
// environment — a handful of workstation nodes each running local ET1
// transactions at 10 TPS, logging to shared log servers over a simulated
// 10 Mbit LAN. Prints the per-server load figures the Section 4.1
// capacity analysis predicts.
//
// Usage:  ./build/examples/workstation_cluster [clients] [servers] [secs]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "harness/cluster.h"
#include "harness/et1_driver.h"

int main(int argc, char** argv) {
  using namespace dlog;

  const int clients = argc > 1 ? std::atoi(argv[1]) : 10;
  const int servers = argc > 2 ? std::atoi(argv[2]) : 3;
  const int seconds = argc > 3 ? std::atoi(argv[3]) : 20;

  harness::ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = servers;
  cluster_cfg.num_networks = 2;  // the paper's dual-LAN configuration
  harness::Cluster cluster(cluster_cfg);

  std::vector<std::unique_ptr<harness::Et1Driver>> drivers;
  for (int i = 0; i < clients; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = static_cast<ClientId>(i + 1);
    harness::Et1DriverConfig driver_cfg;
    driver_cfg.tps = 10.0;
    driver_cfg.seed = 100 + i;
    drivers.push_back(std::make_unique<harness::Et1Driver>(
        &cluster, log_cfg, driver_cfg));
    drivers.back()->Start();
  }

  cluster.sim().RunFor(static_cast<sim::Duration>(seconds) * sim::kSecond);

  uint64_t committed = 0;
  double p50 = 0, p95 = 0;
  for (auto& d : drivers) {
    committed += d->committed();
    p50 = std::max(p50, d->txn_latency_ms().Percentile(0.5));
    p95 = std::max(p95, d->txn_latency_ms().Percentile(0.95));
  }

  std::printf("=== workstation cluster: %d clients x 10 TPS, %d servers, "
              "%d simulated seconds ===\n",
              clients, servers, seconds);
  std::printf("committed transactions: %llu (%.1f TPS aggregate)\n",
              static_cast<unsigned long long>(committed),
              static_cast<double>(committed) / seconds);
  std::printf("txn latency (worst client): p50=%.2f ms p95=%.2f ms\n", p50,
              p95);

  // Each resource's busy account over the whole run, up to when its
  // queued work ends.
  const sim::Time now = cluster.Now();
  auto busy_percent = [now](sim::Duration busy, sim::Time busy_until) {
    return static_cast<double>(busy) /
           static_cast<double>(std::max(now, busy_until)) * 100.0;
  };
  for (int s = 1; s <= servers; ++s) {
    auto& srv = cluster.server(s);
    std::printf(
        "server %d: %6.1f forces/s  %5.1f tracks/s  cpu %4.1f%%  disk "
        "%4.1f%%  %7.2f KB/s logged\n",
        s, static_cast<double>(srv.forces_acked().value()) / seconds,
        static_cast<double>(srv.tracks_written().value()) / seconds,
        busy_percent(srv.cpu().busy_ns().value(), srv.cpu().busy_until()),
        busy_percent(srv.disk().busy_time(), srv.disk().busy_until()),
        static_cast<double>(srv.bytes_logged()) / seconds / 1024.0);
  }
  for (int n = 0; n < cluster.num_networks(); ++n) {
    // Offered load: the bits accepted over what the medium could carry.
    const net::Network& network = cluster.network(n);
    const double offered =
        static_cast<double>(network.bits_sent()) /
        (network.config().bandwidth_bits_per_sec *
         sim::DurationToSeconds(now));
    std::printf("network %d: %.2f Mbit/s offered (%.1f%% of 10 Mbit)\n", n,
                static_cast<double>(network.bits_sent()) / seconds / 1e6,
                offered * 100.0);
  }
  return 0;
}
