// Heap allocations per committed ET1 transaction on a small fleet. A
// global operator new counts them over a measured window, so a change
// that puts allocator churn back on the per-record log write path
// (engine -> client -> wire -> server -> NVRAM -> track flush) fails here
// as a count, whatever the host's speed.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "harness/et1_driver.h"

// Process-wide tally; the test reads it around a single-threaded window.
static std::atomic<uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dlog {
namespace {

constexpr int kClients = 40;
constexpr int kServers = 8;

// What this fleet measures with flat record bookkeeping on the write
// path; the budget leaves 20% for benign drift.
constexpr double kMeasuredAllocsPerTxn = 67.0;
constexpr double kBudget = 1.2 * kMeasuredAllocsPerTxn;

TEST(AllocBudgetTest, Et1AllocationsPerCommitStayWithinBudget) {
  harness::ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = kServers;
  cluster_cfg.network.bandwidth_bits_per_sec = 1e9;
  harness::Cluster cluster(cluster_cfg);

  // E17's shape in miniature: 5-server slices, 2 TPS per client.
  std::vector<std::unique_ptr<harness::Et1Driver>> drivers;
  for (int i = 0; i < kClients; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = static_cast<ClientId>(i + 1);
    for (int j = 0; j < 5; ++j) {
      log_cfg.servers.push_back(
          static_cast<net::NodeId>((i + j) % kServers + 1));
    }
    log_cfg.generator_reps.assign(log_cfg.servers.begin(),
                                  log_cfg.servers.begin() + 3);
    log_cfg.seed = 100 + static_cast<uint64_t>(i);
    harness::Et1DriverConfig driver_cfg;
    driver_cfg.tps = 2.0;
    driver_cfg.seed = 1000 + static_cast<uint64_t>(i);
    driver_cfg.max_log_backlog = 64;
    driver_cfg.bank.accounts = 100;
    driver_cfg.bank.tellers = 10;
    driver_cfg.bank.branches = 2;
    drivers.push_back(std::make_unique<harness::Et1Driver>(
        &cluster, log_cfg, driver_cfg));
  }
  for (int i = 0; i < kClients; ++i) {
    harness::Et1Driver* d = drivers[static_cast<size_t>(i)].get();
    cluster.client_scheduler(i).At(
        static_cast<sim::Time>(i) * sim::kSecond / kClients,
        [d]() { d->Start(); });
  }
  ASSERT_TRUE(
      cluster.RunUntil(harness::AllStarted(drivers), 30 * sim::kSecond));
  // Warm-up: rings, buffers and the callback pool reach steady sizes.
  cluster.RunFor(2 * sim::kSecond);

  auto committed = [&drivers]() {
    uint64_t n = 0;
    for (const auto& d : drivers) n += d->committed();
    return n;
  };
  const uint64_t commits_before = committed();
  const uint64_t allocs_before = g_heap_allocs.load();
  cluster.RunFor(5 * sim::kSecond);
  const uint64_t allocs = g_heap_allocs.load() - allocs_before;
  const uint64_t commits = committed() - commits_before;
  ASSERT_GT(commits, 0u);

  const double per_txn =
      static_cast<double>(allocs) / static_cast<double>(commits);
  std::printf("heap allocations per committed ET1 txn: %.2f (budget %.2f)\n",
              per_txn, kBudget);
  RecordProperty("allocs_per_txn", std::to_string(per_txn));
  EXPECT_LE(per_txn, kBudget);
}

}  // namespace
}  // namespace dlog
