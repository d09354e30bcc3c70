#include <gtest/gtest.h>

#include <vector>

#include "harness/cluster.h"
#include "harness/et1_driver.h"
#include "net/network.h"

namespace dlog::harness {
namespace {

TEST(ClusterTest, ServersGetSequentialIds) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  Cluster cluster(cfg);
  EXPECT_EQ(cluster.num_servers(), 4);
  EXPECT_EQ(cluster.server_ids(), (std::vector<net::NodeId>{1, 2, 3, 4}));
  for (int s = 1; s <= 4; ++s) {
    EXPECT_EQ(cluster.server(s).id(), static_cast<net::NodeId>(s));
    EXPECT_TRUE(cluster.server(s).IsUp());
  }
}

TEST(ClusterTest, AddClientFillsServersAndNodeIds) {
  Cluster cluster(ClusterConfig{});
  ClientHandle a = cluster.AddClient();
  ClientHandle b = cluster.AddClient();
  EXPECT_EQ(cluster.num_clients(), 2);
  EXPECT_EQ(a.index(), 0);
  EXPECT_EQ(b.index(), 1);
  // Distinct auto-assigned node ids (no Attach collisions).
  bool ready = false;
  a->Init([&](Status st) { ready = st.ok(); });
  ASSERT_TRUE(cluster.RunUntil([&]() { return ready; }));
  ready = false;
  b->Init([&](Status st) { ready = st.ok(); });
  ASSERT_TRUE(cluster.RunUntil([&]() { return ready; }));
}

TEST(ClusterTest, RestartClientPreservesIdentityAndMetrics) {
  Cluster cluster(ClusterConfig{});
  client::LogClientConfig cfg;
  cfg.client_id = 7;
  ClientHandle c = cluster.AddClient(cfg);
  bool ready = false;
  c->Init([&](Status st) { ready = st.ok(); });
  ASSERT_TRUE(cluster.RunUntil([&]() { return ready; }));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(c->WriteLog(ToBytes("x")).ok());

  cluster.CrashClient(c);
  EXPECT_FALSE(c->IsUp());
  cluster.RestartClient(c);
  EXPECT_TRUE(c->IsUp());
  // A fresh node behind the same handle, same identity, metrics intact.
  EXPECT_FALSE(c->IsInitialized());
  EXPECT_EQ(c->client_id(), 7u);
  EXPECT_TRUE(
      cluster.metrics().entries().contains("client-7/log/records_sent"));

  // The restarted node re-enters the log (Section 3.1.2) and can write.
  ready = false;
  c->Init([&](Status st) { ready = st.ok(); });
  ASSERT_TRUE(cluster.RunUntil([&]() { return ready; }));
  EXPECT_TRUE(c->WriteLog(ToBytes("y")).ok());
}

TEST(ClusterTest, RunUntilTimesOut) {
  Cluster cluster(ClusterConfig{});
  const sim::Time before = cluster.sim().Now();
  EXPECT_FALSE(
      cluster.RunUntil([]() { return false; }, 5 * sim::kSecond));
  EXPECT_GE(cluster.sim().Now(), before);
}

TEST(ClusterTest, DualNetworkConfiguration) {
  ClusterConfig cfg;
  cfg.num_networks = 2;
  Cluster cluster(cfg);
  EXPECT_EQ(cluster.num_networks(), 2);
  ClientHandle c = cluster.AddClient();
  bool ready = false;
  c->Init([&](Status st) { ready = st.ok(); });
  ASSERT_TRUE(cluster.RunUntil([&]() { return ready; }));
}

TEST(Et1DriverTest, GeneratesCommittedTransactions) {
  Cluster cluster(ClusterConfig{});
  client::LogClientConfig log_cfg;
  log_cfg.client_id = 1;
  Et1DriverConfig cfg;
  cfg.tps = 50.0;
  Et1Driver driver(&cluster, log_cfg, cfg);
  driver.Start();
  cluster.sim().RunFor(5 * sim::kSecond);
  EXPECT_TRUE(driver.started());
  // ~250 expected; allow wide slack for Poisson arrivals.
  EXPECT_GT(driver.committed(), 150u);
  EXPECT_LT(driver.committed(), 400u);
  EXPECT_EQ(driver.failed(), 0u);
  EXPECT_GT(driver.txn_latency_ms().count(), 0u);
  // The bank's invariant: all three totals equal.
  EXPECT_EQ(driver.bank().TotalAccounts(), driver.bank().TotalTellers());
  EXPECT_EQ(driver.bank().TotalTellers(), driver.bank().TotalBranches());
}

TEST(Et1DriverTest, StopHaltsArrivals) {
  Cluster cluster(ClusterConfig{});
  client::LogClientConfig log_cfg;
  log_cfg.client_id = 2;
  Et1DriverConfig cfg;
  cfg.tps = 50.0;
  Et1Driver driver(&cluster, log_cfg, cfg);
  driver.Start();
  cluster.sim().RunFor(2 * sim::kSecond);
  driver.Stop();
  const uint64_t at_stop = driver.committed();
  cluster.sim().RunFor(3 * sim::kSecond);
  EXPECT_LE(driver.committed(), at_stop + 2);  // in-flight only
}

TEST(Et1DriverTest, RetriesInitWhenServersComeUpLate) {
  ClusterConfig cluster_cfg;
  Cluster cluster(cluster_cfg);
  for (int s = 1; s <= 3; ++s) cluster.server(s).Crash();
  client::LogClientConfig log_cfg;
  log_cfg.client_id = 3;
  log_cfg.rpc_timeout = 100 * sim::kMillisecond;
  log_cfg.rpc_attempts = 2;
  Et1DriverConfig cfg;
  Et1Driver driver(&cluster, log_cfg, cfg);
  driver.Start();
  cluster.sim().RunFor(3 * sim::kSecond);
  EXPECT_FALSE(driver.started());
  for (int s = 1; s <= 3; ++s) cluster.server(s).Restart();
  cluster.sim().RunFor(5 * sim::kSecond);
  EXPECT_TRUE(driver.started());
  EXPECT_GT(driver.committed(), 0u);
}

// --- The one tie rule: (time, schedule order) ---

/// A NIC attached to a cluster's network that records when each packet
/// arrives and from whom.
struct ProbeNic {
  ProbeNic(Cluster* cluster, net::NodeId id) : nic(&cluster->sim(), 8) {
    nic.SetHandler([this, cluster](const net::Packet& p) {
      arrivals.push_back({p.src, cluster->Now()});
      nic.CompleteReceive();
    });
    cluster->network(0).Attach(id, &nic);
  }
  struct Arrival {
    net::NodeId src;
    sim::Time at;
  };
  net::Nic nic;
  std::vector<Arrival> arrivals;
};

net::Packet ProbePacket(net::NodeId src, net::NodeId dst) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.payload = Bytes(500, 0x5a);
  return p;
}

TEST(NetworkTieRuleTest, SameEventSendsTakeTheMediumInScheduleOrder) {
  Cluster cluster(ClusterConfig{});
  ProbeNic low(&cluster, 2000), high(&cluster, 2001);
  // The higher-id node sends first within one event: its packet must
  // take the shared medium first, whatever the node ids.
  cluster.sim().At(cluster.Now() + sim::kMillisecond, [&cluster] {
    cluster.network(0).Send(ProbePacket(2001, 2000));
    cluster.network(0).Send(ProbePacket(2000, 2001));
  });
  cluster.RunFor(10 * sim::kMillisecond);
  ASSERT_EQ(low.arrivals.size(), 1u);
  ASSERT_EQ(high.arrivals.size(), 1u);
  EXPECT_EQ(low.arrivals[0].src, 2001u);
  EXPECT_EQ(high.arrivals[0].src, 2000u);
  EXPECT_LT(low.arrivals[0].at, high.arrivals[0].at);
}

TEST(NetworkTieRuleTest, PartitionAppliesInsideTheEvent) {
  Cluster cluster(ClusterConfig{});
  ProbeNic a(&cluster, 2000), b(&cluster, 2001);
  net::Network& network = cluster.network(0);
  cluster.sim().At(cluster.Now() + sim::kMillisecond, [&network] {
    network.SetPartition({{2000}, {2001}});
    EXPECT_TRUE(network.HasPartition());
    EXPECT_TRUE(network.Partitioned(2000, 2001));
    EXPECT_FALSE(network.Partitioned(1, 2));  // unnamed nodes: one group
    // A send in the same event already meets the partition.
    network.Send(ProbePacket(2000, 2001));
  });
  cluster.sim().At(cluster.Now() + 2 * sim::kMillisecond, [&network] {
    network.HealPartition();
    EXPECT_FALSE(network.HasPartition());
    EXPECT_FALSE(network.Partitioned(2000, 2001));
    network.Send(ProbePacket(2000, 2001));
  });
  cluster.RunFor(10 * sim::kMillisecond);
  EXPECT_EQ(network.packets_partition_dropped().value(), 1u);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_GT(b.arrivals[0].at, cluster.Now() - 8 * sim::kMillisecond);
}

}  // namespace
}  // namespace dlog::harness
