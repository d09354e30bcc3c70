// The timer wheel's schedule-invisibility contract at fleet scale: a
// ~500-client slice of the E17 scale workload must end in a
// byte-identical state with the wheel on (the default) and with every
// timer on the heap.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "harness/et1_driver.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace dlog {
namespace {

constexpr int kClients = 500;
constexpr int kServers = 10;

// One run of the miniature fleet; returns a deterministic end-state
// signature (per-client committed/failed/shed + per-server records).
std::string RunFleet(bool timer_wheel) {
  harness::ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = kServers;
  cluster_cfg.network.bandwidth_bits_per_sec = 1e9;
  // Polls the init predicate on E17's 1 ms grid.
  cluster_cfg.run_until_quantum = sim::kMillisecond;
  harness::Cluster cluster(cluster_cfg);
  cluster.sim().EnableTimerWheel(timer_wheel);

  std::vector<std::unique_ptr<harness::Et1Driver>> drivers;
  drivers.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = static_cast<ClientId>(i + 1);
    for (int j = 0; j < 5; ++j) {
      log_cfg.servers.push_back(
          static_cast<net::NodeId>((i + j) % kServers + 1));
    }
    log_cfg.generator_reps.assign(log_cfg.servers.begin(),
                                  log_cfg.servers.begin() + 3);
    log_cfg.seed = 500 + static_cast<uint64_t>(i);
    harness::Et1DriverConfig driver_cfg;
    driver_cfg.tps = 2.0;
    driver_cfg.seed = 5000 + static_cast<uint64_t>(i);
    driver_cfg.max_log_backlog = 64;
    driver_cfg.bank.accounts = 100;
    driver_cfg.bank.tellers = 10;
    driver_cfg.bank.branches = 2;
    drivers.push_back(std::make_unique<harness::Et1Driver>(
        &cluster, log_cfg, driver_cfg));
  }
  const sim::Duration spread = sim::kSecond;
  for (int i = 0; i < kClients; ++i) {
    harness::Et1Driver* d = drivers[static_cast<size_t>(i)].get();
    cluster.client_scheduler(i).At(
        static_cast<sim::Time>(i) * spread / kClients,
        [d]() { d->Start(); });
  }
  EXPECT_TRUE(cluster.RunUntil(harness::AllStarted(drivers),
                               60 * sim::kSecond))
      << "fleet failed to initialize";
  cluster.RunFor(1 * sim::kSecond);
  for (auto& d : drivers) d->Stop();
  cluster.RunFor(500 * sim::kMillisecond);

  std::string sig;
  for (auto& d : drivers) {
    sig += std::to_string(d->committed()) + "," +
           std::to_string(d->failed()) + "," +
           std::to_string(d->txns_shed()) + ";";
  }
  for (int s = 1; s <= kServers; ++s) {
    sig += std::to_string(cluster.server(s).records_written().value()) + "|";
  }
  return sig;
}

TEST(ScaleTest, TimerWheelScheduleInvisibleAtFleetScale) {
  // The wheel only re-stages heap insertion; the executed schedule —
  // and therefore the entire end state — must match a heap-only build.
  const std::string wheel = RunFleet(/*timer_wheel=*/true);
  const std::string heap_only = RunFleet(/*timer_wheel=*/false);
  EXPECT_EQ(wheel, heap_only);
}

}  // namespace
}  // namespace dlog
