// Tests of the resources' busy accounts and the force-latency
// attribution layer: window busy times from two account readings against
// a clipped-interval model, hand-built critical-path/slack extraction,
// the exact-summation contract of ForceLog latency attribution
// (including the ack-after-disk ablation where the disk phases are
// nonzero), the closed-form cross-check of measured utilizations, and
// byte-for-byte determinism of every profiler artifact under an active
// fault plan.

#include <algorithm>
#include <cinttypes>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/capacity.h"
#include "chaos/fault_plan.h"
#include "common/rng.h"
#include "harness/cluster.h"
#include "harness/et1_driver.h"
#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "storage/disk.h"

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

// --- busy accounts ---

/// The exact busy schedule of one FIFO-served resource, kept as the
/// intervals [start, end) it is busy on each piece of work.
struct IntervalModel {
  std::vector<std::pair<sim::Time, sim::Time>> intervals;

  /// A crash at `at` drops the work not yet served: every interval is
  /// clipped there.
  void CutAt(sim::Time at) {
    for (auto& [start, end] : intervals) {
      start = std::min(start, at);
      end = std::min(end, at);
    }
  }

  /// Busy time inside [from, to): the clipped intervals' sum.
  sim::Duration BusyIn(sim::Time from, sim::Time to) const {
    sim::Duration busy = 0;
    for (const auto& [start, end] : intervals) {
      const sim::Time lo = std::max(start, from);
      const sim::Time hi = std::min(end, to);
      if (hi > lo) busy += hi - lo;
    }
    return busy;
  }
};

/// One reading of the three accounts at `at`.
struct Reading {
  sim::Time at = 0;
  sim::Duration cpu = 0;
  sim::Duration disk = 0;
  sim::Duration net = 0;
};

TEST(BusyAccountTest, WindowDifferencesMatchClippedIntervals) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    sim::Simulator sim;
    sim::Cpu cpu(&sim, 1.0 + static_cast<double>(rng.NextBelow(8)));
    storage::SimDisk disk(&sim, storage::DiskConfig{});
    net::NetworkConfig net_cfg;
    net_cfg.header_bytes = 0;
    net::Network network(&sim, net_cfg);

    IntervalModel cpu_model, disk_model, net_model;
    sim::Time cpu_free = 0;
    disk.SetRequestProbe([&](const storage::SimDisk::RequestTiming& t) {
      disk_model.intervals.push_back({t.start, t.end});
    });
    network.SetPacketProbe([&](const net::Network::PacketTiming& t) {
      net_model.intervals.push_back({t.tx_start, t.tx_end});
    });

    std::vector<Reading> readings;
    auto read = [&]() {
      const sim::Time now = sim.Now();
      readings.push_back(
          {now,
           sim::BusyElapsed(cpu.busy_ns().value(), cpu.busy_until(), now),
           sim::BusyElapsed(disk.busy_time(), disk.busy_until(), now),
           sim::BusyElapsed(network.busy_time(), network.busy_until(),
                            now)});
    };
    // Also read just before a resource's queued work ends, where only a
    // tail of a few ns separates the reading from the end.
    auto read_before = [&](sim::Time busy_until, uint64_t ns) {
      sim.At(busy_until - std::min<sim::Duration>(ns, busy_until - sim.Now()),
             read);
    };

    // Random submissions and readings, in bursts (several in one tick),
    // short gaps and idle stretches.
    sim::Time t = 0;
    for (int op = 0; op < 300; ++op) {
      if (rng.Bernoulli(0.05)) t += rng.NextBelow(500 * sim::kMillisecond);
      if (rng.Bernoulli(0.7)) t += rng.NextBelow(8 * sim::kMillisecond);
      const uint64_t kind = rng.NextBelow(6);
      const uint64_t size = rng.NextBelow(3000);
      sim.At(t, [&, kind, size]() {
        const sim::Time now = sim.Now();
        switch (kind) {
          case 0: {
            const sim::Duration service = cpu.InstructionsToTime(size);
            const sim::Time start = std::max(now, cpu_free);
            cpu_free = start + service;
            cpu_model.intervals.push_back({start, cpu_free});
            cpu.Execute(size, nullptr);
            read_before(cpu.busy_until(), size % 1500);
            break;
          }
          case 1:
            disk.WriteTrack(size % 4, Bytes(16, 0), nullptr);
            read_before(disk.busy_until(), size % 1500);
            break;
          case 2:
            disk.ReadTrack(size % 4, [](Result<SharedBytes>) {});
            read_before(disk.busy_until(), size % 1500);
            break;
          case 3: {
            net::Packet packet;
            packet.src = 1;
            packet.dst = 2;
            packet.payload = Bytes(size % net_cfg.mtu_bytes, 0);
            network.Send(packet);
            read_before(network.busy_until(), size % 1500);
            break;
          }
          case 4:
            // A crash drops the disk's unserved tail, now and then.
            if (size < 300) {
              disk.Crash();
              disk_model.CutAt(now);
            }
            break;
          default:
            read();
        }
      });
    }
    sim.Run();
    ASSERT_GT(readings.size(), 10u);

    // Every window between two readings, including from time 0.
    readings.insert(readings.begin(), Reading{});
    for (size_t i = 0; i < readings.size(); ++i) {
      for (size_t j = i; j < readings.size(); ++j) {
        const Reading& a = readings[i];
        const Reading& b = readings[j];
        ASSERT_EQ(b.cpu - a.cpu, cpu_model.BusyIn(a.at, b.at));
        ASSERT_EQ(b.disk - a.disk, disk_model.BusyIn(a.at, b.at));
        ASSERT_EQ(b.net - a.net, net_model.BusyIn(a.at, b.at));
      }
    }
  }
}

// --- critical paths ---

TEST(CriticalPathTest, HandBuiltTreeFindsGatingChainAndSlack) {
  sim::Simulator sim;
  obs::Tracer tracer(&sim);
  // root [0,100]; childA [0,40]; childB [10,90] with grand [20,85].
  obs::SpanContext root = tracer.StartTrace("txn", "client-1");
  obs::SpanContext a = tracer.StartSpan("wal.group", "client-1", root);
  sim.RunFor(10);
  obs::SpanContext b = tracer.StartSpan("wire.send", "client-1", root);
  sim.RunFor(10);
  obs::SpanContext g = tracer.StartSpan("track.write", "server-2", b);
  sim.RunFor(20);  // t=40
  tracer.EndSpan(a);
  sim.RunFor(45);  // t=85
  tracer.EndSpan(g);
  sim.RunFor(5);  // t=90
  tracer.EndSpan(b);
  sim.RunFor(10);  // t=100
  tracer.EndSpan(root);

  std::vector<obs::CriticalPath> paths =
      obs::ExtractCriticalPaths(tracer);
  ASSERT_EQ(paths.size(), 1u);
  const obs::CriticalPath& p = paths[0];
  EXPECT_EQ(p.start, 0u);
  EXPECT_EQ(p.end, 100u);
  ASSERT_EQ(p.steps.size(), 3u);
  EXPECT_EQ(p.steps[0].name, "txn");
  EXPECT_EQ(p.steps[0].self, 10u);  // 100 - childB end 90
  EXPECT_EQ(p.steps[1].name, "wire.send");
  EXPECT_EQ(p.steps[1].self, 5u);  // 90 - grand end 85
  EXPECT_EQ(p.steps[2].name, "track.write");
  EXPECT_EQ(p.steps[2].self, 65u);  // leaf: 85 - 20
  // Self times telescope to the root's full duration.
  uint64_t total = 0;
  for (const obs::PathStep& s : p.steps) total += s.self;
  EXPECT_EQ(total, 80u);  // root.end - leaf.start = 100 - 20

  ASSERT_EQ(p.off_path.size(), 1u);
  EXPECT_EQ(p.off_path[0].name, "wal.group");
  // Gated by sibling childB finishing at 90; childA ended at 40.
  EXPECT_EQ(p.off_path[0].slack, 50u);

  const std::string text = obs::CriticalPathText(paths);
  EXPECT_NE(text.find("track.write"), std::string::npos);
  EXPECT_NE(text.find("slack"), std::string::npos);
}

TEST(CriticalPathTest, OpenRootsAreSkipped) {
  sim::Simulator sim;
  obs::Tracer tracer(&sim);
  tracer.StartTrace("txn", "client-1");  // never closed
  EXPECT_TRUE(obs::ExtractCriticalPaths(tracer).empty());
}

// --- ForceLog latency attribution ---

TEST(AttributionTest, ComponentNamesAreStableAndOrdered) {
  const std::vector<std::string>& names = obs::AttributionComponents();
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names.front(), "client.cpu");
  EXPECT_EQ(names.back(), "ack.return");
}

/// Every attribution's components must be non-negative, emitted in the
/// canonical order, and sum exactly (integer nanoseconds, no epsilon)
/// to the ForceLog span's duration.
void CheckExactSummation(const std::vector<obs::Profiler::Attribution>& attrs) {
  const std::vector<std::string>& names = obs::AttributionComponents();
  for (const obs::Profiler::Attribution& attr : attrs) {
    ASSERT_EQ(attr.components.size(), names.size());
    sim::Duration sum = 0;
    for (size_t i = 0; i < names.size(); ++i) {
      EXPECT_EQ(attr.components[i].first, names[i]);
      EXPECT_GE(attr.components[i].second, 0u);
      sum += attr.components[i].second;
    }
    EXPECT_EQ(sum, attr.end - attr.start)
        << "components must sum exactly to the span duration";
  }
}

TEST(AttributionTest, ComponentsSumExactlyOnEt1Workload) {
  harness::ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.tracing = true;
  harness::Cluster cluster(cfg);
  std::vector<std::unique_ptr<harness::Et1Driver>> drivers;
  for (int i = 0; i < 2; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = static_cast<ClientId>(i + 1);
    harness::Et1DriverConfig driver_cfg;
    driver_cfg.seed = 40 + i;
    drivers.push_back(std::make_unique<harness::Et1Driver>(
        &cluster, log_cfg, driver_cfg));
    drivers.back()->Start();
  }
  cluster.sim().RunFor(2 * sim::kSecond);

  const std::vector<obs::Profiler::Attribution> attrs =
      cluster.profiler().AttributeForces(cluster.tracer());
  ASSERT_GT(attrs.size(), 10u);
  CheckExactSummation(attrs);

  // On the NVRAM fast path the wire and CPU phases carry the latency.
  sim::Duration net = 0, total = 0;
  for (const obs::Profiler::Attribution& a : attrs) {
    for (const auto& [name, d] : a.components) {
      if (name == "net.transmit" || name == "server.cpu") net += d;
    }
    total += a.end - a.start;
  }
  EXPECT_GT(net, 0u);
  EXPECT_GT(total, net);
}

TEST(AttributionTest, DiskPhasesNonzeroWhenAckAfterDisk) {
  harness::ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.tracing = true;
  cfg.server.ack_after_disk = true;
  harness::Cluster cluster(cfg);
  harness::ClientHandle c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  for (int i = 0; i < 5; ++i) {
    // The client roots its wal.group/ForceLog spans under the caller's
    // current context (normally the engine's "txn" trace) — a bare
    // WriteLog would record nothing.
    obs::SpanContext txn = cluster.tracer().StartTrace("txn", "client-1");
    obs::Tracer::Scope scope(&cluster.tracer(), txn);
    Result<Lsn> lsn = c->WriteLog(ToBytes("record-" + std::to_string(i)));
    ASSERT_TRUE(lsn.ok());
    ASSERT_TRUE(ForceAll(cluster, *c, *lsn).ok());
    cluster.tracer().EndSpan(txn);
    cluster.sim().RunFor(100 * sim::kMillisecond);
  }

  const std::vector<obs::Profiler::Attribution> attrs =
      cluster.profiler().AttributeForces(cluster.tracer());
  ASSERT_FALSE(attrs.empty());
  CheckExactSummation(attrs);
  // Forces waited for the media: rotation + transfer must show up.
  sim::Duration disk = 0;
  for (const obs::Profiler::Attribution& a : attrs) {
    for (const auto& [name, d] : a.components) {
      if (name == "rotation.wait" || name == "media.write") disk += d;
    }
  }
  EXPECT_GT(disk, 0u);
}

// --- closed-form cross-check ---

TEST(ProfilerTest, MeasuredUtilizationTracksClosedFormsBelowSaturation) {
  constexpr int kClients = 20;
  constexpr int kServers = 6;
  constexpr int kNetworks = 2;
  constexpr int kSeconds = 5;

  harness::ClusterConfig cfg;
  cfg.num_servers = kServers;
  cfg.num_networks = kNetworks;
  cfg.server.cpu_mips = 4.0;
  cfg.server.flush_interval = 1 * sim::kSecond;
  harness::Cluster cluster(cfg);
  std::vector<std::unique_ptr<harness::Et1Driver>> drivers;
  for (int i = 0; i < kClients; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = static_cast<ClientId>(i + 1);
    harness::Et1DriverConfig driver_cfg;
    driver_cfg.seed = 300 + i;
    drivers.push_back(std::make_unique<harness::Et1Driver>(
        &cluster, log_cfg, driver_cfg));
    drivers.back()->Start();
  }
  // Busy time elapsed by now, summed over servers' CPUs, servers' disks
  // and the LANs.
  auto read = [&cluster]() {
    const sim::Time now = cluster.Now();
    sim::Duration cpu = 0, disk = 0, net = 0;
    for (int s = 1; s <= kServers; ++s) {
      server::LogServer& server = cluster.server(s);
      cpu += sim::BusyElapsed(server.cpu().busy_ns().value(),
                              server.cpu().busy_until(), now);
      disk += sim::BusyElapsed(server.disk().busy_time(),
                               server.disk().busy_until(), now);
    }
    for (int n = 0; n < kNetworks; ++n) {
      net += sim::BusyElapsed(cluster.network(n).busy_time(),
                              cluster.network(n).busy_until(), now);
    }
    return std::vector<sim::Duration>{cpu, disk, net};
  };
  cluster.sim().RunFor(2 * sim::kSecond);
  const std::vector<sim::Duration> before = read();
  cluster.sim().RunFor(kSeconds * sim::kSecond);
  const std::vector<sim::Duration> after = read();

  const double window = static_cast<double>(kSeconds * sim::kSecond);
  const double cpu = static_cast<double>(after[0] - before[0]) / window /
                     kServers;
  const double disk = static_cast<double>(after[1] - before[1]) / window /
                      kServers;
  const double net = static_cast<double>(after[2] - before[2]) / window /
                     kNetworks;

  analysis::CapacityInputs in;
  in.clients = kClients;
  in.servers = kServers;
  const analysis::CapacityOutputs out = analysis::ComputeCapacity(in);
  EXPECT_NEAR(cpu, out.cpu_fraction_comm + out.cpu_fraction_logging, 0.05);
  EXPECT_NEAR(disk, out.disk_utilization, 0.05);
  EXPECT_NEAR(net, out.network_utilization / kNetworks, 0.05);
}

// --- determinism under chaos ---

std::string RunProfiledFaultedWorkload() {
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

  for (int i = 0; i < 20; ++i) {
    obs::SpanContext txn = cluster.tracer().StartTrace("txn", "client-1");
    obs::Tracer::Scope scope(&cluster.tracer(), txn);
    Result<Lsn> lsn = c->WriteLog(ToBytes("r" + std::to_string(i)));
    if (lsn.ok()) (void)ForceAll(cluster, *c, *lsn);
    cluster.tracer().EndSpan(txn);
    cluster.sim().RunFor(300 * sim::kMillisecond);
  }

  const obs::Profiler& prof = cluster.profiler();
  const std::vector<obs::Profiler::Attribution> attrs =
      prof.AttributeForces(cluster.tracer());
  CheckExactSummation(attrs);  // exactness holds under faults too
  std::string attr_text;
  for (const obs::Profiler::Attribution& a : attrs) {
    char line[160];
    std::snprintf(line, sizeof(line), "force span=%" PRIu64, a.span);
    attr_text += line;
    for (const auto& [name, d] : a.components) {
      std::snprintf(line, sizeof(line), " %s=%" PRIu64, name.c_str(), d);
      attr_text += line;
    }
    attr_text += "\n";
  }
  // Every resource's busy account and every server's occupancy account,
  // the crashed and restarted server's included.
  std::string accounts;
  const sim::Time now = cluster.Now();
  for (int s = 1; s <= cluster.num_servers(); ++s) {
    server::LogServer& server = cluster.server(s);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "server-%d cpu=%" PRIu64 " disk=%" PRIu64
                  " nvram=%.17g/%.17g\n",
                  s,
                  sim::BusyElapsed(server.cpu().busy_ns().value(),
                                   server.cpu().busy_until(), now),
                  sim::BusyElapsed(server.disk().busy_time(),
                                   server.disk().busy_until(), now),
                  server.nvram_occupancy().Integral(now),
                  server.nvram_occupancy().max());
    accounts += line;
  }
  accounts += "net-0 " +
              std::to_string(sim::BusyElapsed(cluster.network().busy_time(),
                                              cluster.network().busy_until(),
                                              now)) +
              "\n";
  const std::vector<obs::CriticalPath> paths =
      obs::ExtractCriticalPaths(cluster.tracer());
  return accounts + "---\n" + obs::CriticalPathText(paths) + "---\n" +
         attr_text + "---\n" + obs::ChromeTraceJson(cluster.tracer(), paths);
}

TEST(ProfilerDeterminismTest, ArtifactsByteIdenticalUnderFaultPlan) {
  const std::string first = RunProfiledFaultedWorkload();
  const std::string second = RunProfiledFaultedWorkload();
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.find("server-2"), std::string::npos);
  EXPECT_NE(first.find("force span="), std::string::npos);
  EXPECT_EQ(first, second);
}

// --- metrics integration ---

TEST(ProfilerMetricsTest, SnapshotCarriesAttributionUtilizationAndBytesCopied) {
  harness::ClusterConfig cfg;
  cfg.tracing = true;
  harness::Cluster cluster(cfg);
  cluster.profiler().RegisterMetrics(&cluster.metrics());
  harness::ClientHandle c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  obs::SpanContext txn = cluster.tracer().StartTrace("txn", "client-1");
  {
    obs::Tracer::Scope scope(&cluster.tracer(), txn);
    Result<Lsn> lsn = c->WriteLog(ToBytes("hello"));
    ASSERT_TRUE(lsn.ok());
    ASSERT_TRUE(ForceAll(cluster, *c, *lsn).ok());
  }
  cluster.tracer().EndSpan(txn);
  cluster.sim().RunFor(1 * sim::kSecond);
  cluster.profiler().UpdateAttributionMetrics(cluster.tracer());

  const obs::MetricsSnapshot snap =
      cluster.metrics().Snapshot(cluster.sim().Now());
  // Histograms flatten with a p99 alongside p50/p95.
  EXPECT_GT(snap.Get("profiler/attr/total/count"), 0.0);
  ASSERT_TRUE(snap.values.count("profiler/attr/total/p99"));
  EXPECT_GE(snap.Get("profiler/attr/total/p99"),
            snap.Get("profiler/attr/total/p50"));
  // Each server registers its CPU busy account and NVRAM occupancy
  // gauge. The two record copies land on two of the three servers, so
  // count matches rather than naming one.
  double busy_server_cpus = 0, nvram_levels = 0;
  for (const auto& [key, value] : snap.values) {
    if (key.rfind("server-", 0) != 0) continue;
    if (key.ends_with("/cpu/busy_ns") && value > 0) ++busy_server_cpus;
    if (key.ends_with("/nvram/occupancy_bytes/max") && value > 0) {
      ++nvram_levels;
    }
  }
  EXPECT_GE(busy_server_cpus, 2);
  EXPECT_GE(nvram_levels, 2);
  // The process-wide copy counter registers as a first-class metric.
  ASSERT_TRUE(snap.values.count("process/bytes_copied"));
  EXPECT_GT(snap.Get("process/bytes_copied"), 0.0);
}

}  // namespace
}  // namespace dlog
