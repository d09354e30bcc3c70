// Tests of the src/chaos fault-injection subsystem: plan building,
// controller execution against a live cluster (with idempotence guards
// and per-fault spans/counters), the dual-LAN partition capability,
// Markov crash/repair sampling of the paper's per-server down
// probability p, and byte-for-byte determinism of a faulted run's
// exported artifacts.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/controller.h"
#include "chaos/fault_plan.h"
#include "harness/cluster.h"
#include "obs/bench_report.h"
#include "obs/export.h"

namespace dlog {
namespace {

Status InitClient(harness::Cluster& cluster, client::LogClient& log) {
  Status result = Status::Internal("pending");
  bool done = false;
  log.Init([&](Status st) {
    result = st;
    done = true;
  });
  if (!cluster.RunUntil([&]() { return done; })) {
    return Status::Internal("Init did not complete");
  }
  return result;
}

Status ForceAll(harness::Cluster& cluster, client::LogClient& log,
                Lsn lsn) {
  Status result = Status::Internal("pending");
  bool done = false;
  log.ForceLog(lsn, [&](Status st) {
    result = st;
    done = true;
  });
  if (!cluster.RunUntil([&]() { return done; })) {
    return Status::Internal("ForceLog did not complete");
  }
  return result;
}

TEST(FaultPlanTest, BuilderRecordsTypedEventsInOrder) {
  chaos::FaultPlan plan;
  plan.CrashServer(2 * sim::kSecond, 1)
      .Partition(3 * sim::kSecond, 0, {{1, 2}, {3, 1000}})
      .DegradeLink(4 * sim::kSecond, 0, 1000, 1,
                   net::LinkFault{0.5, 2 * sim::kMillisecond})
      .Heal(6 * sim::kSecond, 0)
      .RestoreLink(7 * sim::kSecond, 0, 1000, 1)
      .RestartServer(8 * sim::kSecond, 1)
      .CrashClient(9 * sim::kSecond, 0)
      .RestartClient(10 * sim::kSecond, 0)
      .FailDisk(11 * sim::kSecond, 2)
      .LoseNvram(12 * sim::kSecond, 3);
  ASSERT_EQ(plan.size(), 10u);
  EXPECT_EQ(plan.events()[0].type, chaos::FaultType::kServerCrash);
  EXPECT_EQ(plan.events()[0].target, 1);
  EXPECT_EQ(plan.events()[1].groups.size(), 2u);
  EXPECT_EQ(plan.events()[2].link.extra_loss, 0.5);
  EXPECT_EQ(plan.events()[9].at, 12 * sim::kSecond);
  EXPECT_EQ(chaos::FaultTypeName(chaos::FaultType::kServerCrash),
            "server_crash");
  EXPECT_EQ(chaos::FaultTypeName(chaos::FaultType::kNvramLoss),
            "nvram_loss");
}

TEST(MarkovFaultConfigTest, SteadyStateDownProbability) {
  chaos::MarkovFaultConfig cfg;  // 190s / 10s defaults
  EXPECT_TRUE(cfg.Validate().ok());
  EXPECT_DOUBLE_EQ(cfg.SteadyStateDownProbability(), 0.05);
  cfg.mttf = 0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(ChaosControllerTest, PlanDrivesClusterThroughCrashAndRestart) {
  harness::Cluster cluster(harness::ClusterConfig{});
  harness::ClientHandle c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());

  chaos::FaultPlan plan;
  plan.CrashServer(1 * sim::kSecond, 1)
      .RestartServer(5 * sim::kSecond, 1);
  cluster.chaos().Execute(plan);

  cluster.sim().RunFor(2 * sim::kSecond);
  EXPECT_FALSE(cluster.server(1).IsUp());
  // N=2-of-3: commits keep flowing with one server down, and the down
  // NIC counts the traffic it swallowed.
  Lsn last = kNoLsn;
  for (int i = 0; i < 8; ++i) {
    Result<Lsn> lsn = c->WriteLog(ToBytes("during-crash"));
    ASSERT_TRUE(lsn.ok());
    last = *lsn;
  }
  ASSERT_TRUE(ForceAll(cluster, *c, last).ok());
  // A down server's NIC swallows (and counts) whatever still reaches it.
  net::Packet probe;
  probe.src = 1000;
  probe.dst = 1;
  probe.payload = ToBytes("probe");
  cluster.network(0).Send(probe);
  cluster.sim().RunFor(4 * sim::kSecond);
  EXPECT_TRUE(cluster.server(1).IsUp());
  EXPECT_GT(cluster.server(1).nic().down_drops().value(), 0u);
  EXPECT_EQ(cluster.chaos().server_crashes().value(), 1u);
  EXPECT_EQ(cluster.chaos().server_restarts().value(), 1u);
  EXPECT_EQ(cluster.chaos().faults_injected(), 2u);
}

TEST(ChaosControllerTest, InjectSkipsFaultsAgainstWrongStateTargets) {
  harness::Cluster cluster(harness::ClusterConfig{});
  chaos::ChaosController& chaos = cluster.chaos();

  chaos::FaultEvent restart_up;
  restart_up.type = chaos::FaultType::kServerRestart;
  restart_up.target = 1;
  chaos.Inject(restart_up);  // already up: skipped
  EXPECT_EQ(chaos.faults_injected(), 0u);

  chaos::FaultEvent crash;
  crash.type = chaos::FaultType::kServerCrash;
  crash.target = 1;
  chaos.Inject(crash);
  chaos.Inject(crash);  // already down: skipped
  EXPECT_EQ(chaos.faults_injected(), 1u);
  EXPECT_EQ(chaos.server_crashes().value(), 1u);

  chaos::FaultEvent bogus;
  bogus.type = chaos::FaultType::kServerCrash;
  bogus.target = 99;  // no such server: skipped
  chaos.Inject(bogus);
  EXPECT_EQ(chaos.faults_injected(), 1u);
}

TEST(ChaosControllerTest, ClientFaultsCycleTheClusterOwnedNode) {
  harness::Cluster cluster(harness::ClusterConfig{});
  harness::ClientHandle c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());

  chaos::FaultPlan plan;
  plan.CrashClient(1 * sim::kSecond, 0).RestartClient(2 * sim::kSecond, 0);
  cluster.chaos().Execute(plan);
  cluster.sim().RunFor(90 * sim::kSecond / 60);  // 1.5s
  EXPECT_FALSE(c->IsUp());
  cluster.sim().RunFor(1 * sim::kSecond);
  EXPECT_TRUE(c->IsUp());
  EXPECT_FALSE(c->IsInitialized());
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  EXPECT_TRUE(c->WriteLog(ToBytes("after-restart")).ok());
  EXPECT_EQ(cluster.chaos().client_crashes().value(), 1u);
  EXPECT_EQ(cluster.chaos().client_restarts().value(), 1u);
}

TEST(ChaosControllerTest, DiskFailAndNvramLossWipeAndStayDown) {
  harness::Cluster cluster(harness::ClusterConfig{});
  harness::ClientHandle c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  Lsn last = kNoLsn;
  for (int i = 0; i < 4; ++i) last = *c->WriteLog(ToBytes("x"));
  ASSERT_TRUE(ForceAll(cluster, *c, last).ok());

  chaos::FaultPlan plan;
  plan.FailDisk(1 * sim::kSecond, 1).LoseNvram(1 * sim::kSecond, 2);
  cluster.chaos().Execute(plan);
  cluster.sim().RunFor(2 * sim::kSecond);
  EXPECT_FALSE(cluster.server(1).IsUp());
  EXPECT_FALSE(cluster.server(2).IsUp());
  EXPECT_EQ(cluster.chaos().disk_failures().value(), 1u);
  EXPECT_EQ(cluster.chaos().nvram_losses().value(), 1u);
  // They stay down until restarted; the wiped server comes back empty.
  cluster.server(1).Restart();
  cluster.server(2).Restart();
  EXPECT_TRUE(cluster.server(1).IsUp());
  EXPECT_TRUE(cluster.server(1).IntervalsOf(c->client_id()).empty());
}

// The dual-LAN partition capability: isolating the client from the
// servers on network 0 drops exactly that network's packets (counted),
// while the second LAN keeps the protocol available; partitioning both
// stalls it; healing restores it.
TEST(ChaosPartitionTest, DualLanPartitionFiltersDeliveryPerNetwork) {
  harness::ClusterConfig cfg;
  cfg.num_networks = 2;
  harness::Cluster cluster(cfg);
  harness::ClientHandle c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());

  const std::vector<std::vector<net::NodeId>> split = {{1, 2, 3}, {1000}};
  chaos::FaultPlan plan;
  plan.Partition(0, 0, split);
  cluster.chaos().Execute(plan);
  cluster.sim().RunFor(100 * sim::kMillisecond);
  EXPECT_TRUE(cluster.network(0).HasPartition());
  EXPECT_TRUE(cluster.network(0).Partitioned(1000, 1));
  EXPECT_FALSE(cluster.network(0).Partitioned(1, 2));
  EXPECT_FALSE(cluster.network(1).HasPartition());

  // One LAN down: commits still go through (the endpoint spreads over
  // both networks; lost halves are retried), and network 0 counts drops.
  Lsn last = kNoLsn;
  for (int i = 0; i < 8; ++i) last = *c->WriteLog(ToBytes("one-lan"));
  EXPECT_TRUE(ForceAll(cluster, *c, last).ok());
  EXPECT_GT(cluster.network(0).packets_partition_dropped().value(), 0u);
  EXPECT_EQ(cluster.network(1).packets_partition_dropped().value(), 0u);

  // Both LANs partitioned: the client is fully isolated.
  chaos::FaultPlan cut_both;
  cut_both.Partition(0, 1, split);
  cluster.chaos().Execute(cut_both);
  cluster.sim().RunFor(100 * sim::kMillisecond);
  last = *c->WriteLog(ToBytes("isolated"));
  bool done = false;
  Status forced = Status::OK();
  c->ForceLog(last, [&](Status st) {
    forced = st;
    done = true;
  });
  cluster.sim().RunFor(5 * sim::kSecond);
  EXPECT_TRUE(!done || !forced.ok());
  EXPECT_GT(cluster.network(1).packets_partition_dropped().value(), 0u);

  // Heal both: the log is reachable again.
  chaos::FaultPlan heal;
  heal.Heal(0, 0).Heal(0, 1);
  cluster.chaos().Execute(heal);
  EXPECT_TRUE(
      cluster.RunUntil([&]() { return done; }, 60 * sim::kSecond));
  EXPECT_FALSE(cluster.network(0).HasPartition());
  EXPECT_FALSE(cluster.network(1).HasPartition());
  EXPECT_EQ(cluster.chaos().partitions().value(), 2u);
  EXPECT_EQ(cluster.chaos().partition_heals().value(), 2u);
}

TEST(ChaosMarkovTest, TimeAverageDownFractionApproachesP) {
  harness::ClusterConfig cfg;
  cfg.num_servers = 3;
  harness::Cluster cluster(cfg);

  chaos::MarkovFaultConfig markov;
  markov.mttf = 19 * sim::kSecond;  // p = 1 / 20 = 0.05, fast cycles
  markov.mttr = 1 * sim::kSecond;
  markov.seed = 42;
  cluster.chaos().StartMarkov(markov);
  EXPECT_TRUE(cluster.chaos().MarkovRunning());

  uint64_t down_samples = 0;
  uint64_t samples = 0;
  for (int i = 0; i < 8000; ++i) {
    cluster.sim().RunFor(500 * sim::kMillisecond);
    for (int s = 1; s <= cluster.num_servers(); ++s) {
      ++samples;
      if (!cluster.server(s).IsUp()) ++down_samples;
    }
  }
  const double frac =
      static_cast<double>(down_samples) / static_cast<double>(samples);
  EXPECT_NEAR(frac, markov.SteadyStateDownProbability(), 0.015)
      << down_samples << "/" << samples;
  EXPECT_GT(cluster.chaos().server_crashes().value(), 100u);

  cluster.chaos().StopMarkov();
  EXPECT_FALSE(cluster.chaos().MarkovRunning());
  const uint64_t at_stop = cluster.chaos().faults_injected();
  cluster.sim().RunFor(100 * sim::kSecond);
  EXPECT_EQ(cluster.chaos().faults_injected(), at_stop);
}

// The subsystem's contract: a faulted run is a pure function of
// (config, seed, plan). Both the causal trace and the benchmark-report
// JSON must come out byte-identical across runs.
std::string RunFaultedWorkload() {
  harness::ClusterConfig cfg;
  cfg.tracing = true;
  cfg.seed = 7;
  harness::Cluster cluster(cfg);
  harness::ClientHandle c = cluster.AddClient();
  EXPECT_TRUE(InitClient(cluster, *c).ok());

  chaos::FaultPlan plan;
  plan.CrashServer(1 * sim::kSecond, 2)
      .DegradeLink(2 * sim::kSecond, 0, 1000, 1,
                   net::LinkFault{0.3, 1 * sim::kMillisecond})
      .RestartServer(4 * sim::kSecond, 2)
      .RestoreLink(5 * sim::kSecond, 0, 1000, 1);
  cluster.chaos().Execute(plan);

  chaos::MarkovFaultConfig markov;
  markov.mttf = 20 * sim::kSecond;
  markov.mttr = 2 * sim::kSecond;
  markov.seed = 99;
  cluster.chaos().StartMarkov(markov);

  uint64_t committed = 0;
  for (int i = 0; i < 30; ++i) {
    Result<Lsn> lsn = c->WriteLog(ToBytes("r" + std::to_string(i)));
    if (!lsn.ok()) continue;
    if (ForceAll(cluster, *c, *lsn).ok()) ++committed;
    cluster.sim().RunFor(500 * sim::kMillisecond);
  }
  cluster.chaos().StopMarkov();

  obs::BenchReport report("chaos_determinism");
  report.BeginRow();
  report.SetConfig("seed", 7);
  report.SetMetric("committed", static_cast<double>(committed));
  report.SetMetric("faults_injected",
                   static_cast<double>(cluster.chaos().faults_injected()));
  report.AddSnapshot("", cluster.metrics().Snapshot(cluster.sim().Now()));
  return obs::ChromeTraceJson(cluster.tracer()) + "---\n" +
         report.ToJson();
}

TEST(ChaosDeterminismTest, SameSeedAndPlanExportByteIdenticalArtifacts) {
  const std::string first = RunFaultedWorkload();
  const std::string second = RunFaultedWorkload();
  EXPECT_FALSE(first.empty());
  // Chaos spans made it into the trace.
  EXPECT_NE(first.find("chaos.server_crash"), std::string::npos);
  EXPECT_NE(first.find("chaos.link_degrade"), std::string::npos);
  EXPECT_EQ(first, second);
}

// Same contract with the full flow stack engaged: admission control shed
// replies, client retry backoff (jitter drawn from the client's seeded
// Rng), and adaptive wire windows must all stay pure functions of
// (config, seed, plan) even while Markov faults crash servers.
std::string RunFlowFaultedWorkload() {
  harness::ClusterConfig cfg;
  cfg.tracing = true;
  cfg.seed = 11;
  // Tiny: six 425-byte record entries fill it past the 95% threshold,
  // so admission sheds under load.
  cfg.server.nvram_bytes = 2600;
  harness::Cluster cluster(cfg);

  client::LogClientConfig ccfg;
  ccfg.wire.adaptive_window.enabled = true;
  harness::ClientHandle c = cluster.AddClient(ccfg);
  EXPECT_TRUE(InitClient(cluster, *c).ok());

  chaos::MarkovFaultConfig markov;
  markov.mttf = 15 * sim::kSecond;
  markov.mttr = 2 * sim::kSecond;
  markov.seed = 33;
  cluster.chaos().StartMarkov(markov);

  uint64_t committed = 0;
  for (int round = 0; round < 8; ++round) {
    // Burst 8 records then force: the burst overruns the tiny NVRAM
    // admission threshold, so servers shed and the client backs off.
    Lsn last = kNoLsn;
    for (int i = 0; i < 8; ++i) {
      Result<Lsn> lsn = c->WriteLog(ToBytes(std::string(400, 'f')));
      if (lsn.ok()) last = *lsn;
    }
    if (last != kNoLsn && ForceAll(cluster, *c, last).ok()) ++committed;
    cluster.sim().RunFor(500 * sim::kMillisecond);
  }
  cluster.chaos().StopMarkov();

  obs::BenchReport report("chaos_flow_determinism");
  report.BeginRow();
  report.SetConfig("seed", 11);
  report.SetMetric("committed", static_cast<double>(committed));
  report.SetMetric(
      "overloads_received",
      static_cast<double>(c->overloads_received().value()));
  report.SetMetric("backoffs", static_cast<double>(c->backoffs().value()));
  report.AddSnapshot("", cluster.metrics().Snapshot(cluster.sim().Now()));
  return obs::ChromeTraceJson(cluster.tracer()) + "---\n" +
         report.ToJson();
}

TEST(ChaosDeterminismTest, FlowEnabledMarkovRunsAreByteIdentical) {
  const std::string first = RunFlowFaultedWorkload();
  const std::string second = RunFlowFaultedWorkload();
  EXPECT_FALSE(first.empty());
  // The run actually exercised the flow stack.
  EXPECT_NE(first.find("flow.shed"), std::string::npos);
  EXPECT_NE(first.find("flow.backoff"), std::string::npos);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace dlog
