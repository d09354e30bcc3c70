#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "harness/cluster.h"

namespace dlog {
namespace {

using client::LogClient;
using client::LogClientConfig;
using harness::Cluster;
using harness::ClusterConfig;

/// Initializes a client synchronously; returns the final status.
Status InitClient(Cluster& cluster, LogClient& log_client,
                  sim::Duration timeout = 30 * sim::kSecond) {
  Status result = Status::Internal("init never completed");
  bool done = false;
  log_client.Init([&](Status st) {
    result = st;
    done = true;
  });
  cluster.RunUntil([&]() { return done; }, timeout);
  return result;
}

/// Writes a record and forces it; returns the LSN.
Result<Lsn> WriteForced(Cluster& cluster, LogClient& log_client,
                        const std::string& data) {
  Result<Lsn> lsn = log_client.WriteLog(ToBytes(data));
  if (!lsn.ok()) return lsn;
  Status forced = Status::Internal("force never completed");
  bool done = false;
  log_client.ForceLog(*lsn, [&](Status st) {
    forced = st;
    done = true;
  });
  if (!cluster.RunUntil([&]() { return done; })) {
    return Status::TimedOut("force did not complete");
  }
  if (!forced.ok()) return forced;
  return lsn;
}

Result<Bytes> ReadSync(Cluster& cluster, LogClient& log_client, Lsn lsn) {
  Result<Bytes> result = Status::Internal("read never completed");
  bool done = false;
  log_client.ReadLog(lsn, [&](Result<Bytes> r) {
    result = std::move(r);
    done = true;
  });
  cluster.RunUntil([&]() { return done; });
  return result;
}

TEST(SystemTest, InitOnEmptyLog) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  EXPECT_TRUE(InitClient(cluster, *c).ok());
  EXPECT_TRUE(c->IsInitialized());
  EXPECT_EQ(c->current_epoch(), 1u);
  EXPECT_EQ(c->EndOfLog(), kNoLsn);
}

TEST(SystemTest, WriteForceRead) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());

  Result<Lsn> lsn1 = WriteForced(cluster, *c, "hello");
  ASSERT_TRUE(lsn1.ok());
  EXPECT_EQ(*lsn1, 1u);
  Result<Lsn> lsn2 = WriteForced(cluster, *c, "world");
  ASSERT_TRUE(lsn2.ok());
  EXPECT_EQ(*lsn2, 2u);

  EXPECT_EQ(*ReadSync(cluster, *c, 1), ToBytes("hello"));
  EXPECT_EQ(*ReadSync(cluster, *c, 2), ToBytes("world"));
  EXPECT_TRUE(ReadSync(cluster, *c, 3).status().IsOutOfRange());
}

TEST(SystemTest, RecordsLandOnExactlyNServers) {
  ClusterConfig cfg;
  cfg.num_servers = 5;
  Cluster cluster(cfg);
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(WriteForced(cluster, *c, "r" + std::to_string(i)).ok());
  }
  for (Lsn lsn = 1; lsn <= 10; ++lsn) {
    int holders = 0;
    for (int s = 1; s <= 5; ++s) {
      for (const LogRecord& r : cluster.server(s).RecordsOf(1)) {
        if (r.lsn == lsn && r.present) {
          ++holders;
          break;
        }
      }
    }
    EXPECT_EQ(holders, 2) << "LSN " << lsn;
  }
}

TEST(SystemTest, GroupingPacksManyRecordsPerBatch) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());

  // Buffer 7 small records, force once: ET1-style grouping.
  Lsn last = kNoLsn;
  for (int i = 0; i < 7; ++i) {
    Result<Lsn> lsn = c->WriteLog(ToBytes(std::string(100, 'x')));
    ASSERT_TRUE(lsn.ok());
    last = *lsn;
  }
  bool done = false;
  c->ForceLog(last, [&](Status st) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  // 7 records x 2 copies in two batches (one per server), not 14 RPCs.
  EXPECT_EQ(c->records_sent().value(), 14u);
  EXPECT_LE(c->batches_sent().value(), 4u);
}

TEST(SystemTest, BufferedWritesReachDiskViaGroupBuffer) {
  ClusterConfig cfg;
  cfg.server.flush_interval = 20 * sim::kMillisecond;
  Cluster cluster(cfg);
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(c->WriteLog(ToBytes(std::string(200, 'a' + (i % 26)))).ok());
    if (i % 10 == 9) {
      bool done = false;
      c->ForceLog(c->EndOfLog(), [&](Status) { done = true; });
      ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
    }
  }
  cluster.sim().RunFor(sim::kSecond);
  // Tracks were written on the write-set servers.
  uint64_t tracks = 0, disk_writes = 0;
  for (int s = 1; s <= 3; ++s) {
    tracks += cluster.server(s).tracks_written().value();
    disk_writes += cluster.server(s).disk().writes().value();
  }
  EXPECT_GT(tracks, 0u);
  EXPECT_GT(disk_writes, 0u);
}

TEST(SystemTest, ServerCrashRestartPreservesAckedRecords) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  ASSERT_TRUE(WriteForced(cluster, *c, "durable").ok());

  // Crash and restart every server: records must survive in NVRAM/disk.
  for (int s = 1; s <= 3; ++s) cluster.server(s).Crash();
  cluster.sim().RunFor(100 * sim::kMillisecond);
  for (int s = 1; s <= 3; ++s) cluster.server(s).Restart();

  // A fresh client (the old one's connections died) re-initializes and
  // reads the record back.
  auto c2 = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c2).ok());
  Result<Bytes> r = ReadSync(cluster, *c2, 1);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, ToBytes("durable"));
}

TEST(SystemTest, ClientRestartRecoversForcedRecords) {
  Cluster cluster(ClusterConfig{});
  LogClientConfig ccfg;
  ccfg.client_id = 7;
  auto c = cluster.AddClient(ccfg);
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  const Epoch first_epoch = c->current_epoch();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(WriteForced(cluster, *c, "rec" + std::to_string(i)).ok());
  }
  // Two unforced records die with the client.
  ASSERT_TRUE(c->WriteLog(ToBytes("lost1")).ok());
  ASSERT_TRUE(c->WriteLog(ToBytes("lost2")).ok());
  cluster.CrashClient(c);

  // The cluster-owned restart rebuilds the node with the same identity.
  cluster.RestartClient(c);
  auto c2 = c;
  ASSERT_TRUE(InitClient(cluster, *c2).ok());
  EXPECT_GT(c2->current_epoch(), first_epoch);
  for (Lsn lsn = 1; lsn <= 5; ++lsn) {
    Result<Bytes> r = ReadSync(cluster, *c2, lsn);
    ASSERT_TRUE(r.ok()) << "lsn " << lsn << ": " << r.status().ToString();
    EXPECT_EQ(*r, ToBytes("rec" + std::to_string(lsn - 1)));
  }
  // The unforced records are reported consistently: either recovered (if
  // they reached servers before the crash) or not-present.
  for (Lsn lsn = 6; lsn <= 7; ++lsn) {
    Result<Bytes> first = ReadSync(cluster, *c2, lsn);
    Result<Bytes> second = ReadSync(cluster, *c2, lsn);
    EXPECT_EQ(first.ok(), second.ok());
    if (first.ok()) {
      EXPECT_EQ(*first, *second);
    }
  }
  // New writes continue beyond the recovered end of log.
  Result<Lsn> next = WriteForced(cluster, *c2, "after-restart");
  ASSERT_TRUE(next.ok());
  EXPECT_GT(*next, 7u);
}

TEST(SystemTest, ForceCompletesDespiteWriteSetServerDeath) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  Cluster cluster(cfg);
  LogClientConfig ccfg;
  ccfg.force_timeout = 100 * sim::kMillisecond;
  ccfg.force_retries = 2;
  auto c = cluster.AddClient(ccfg);
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  ASSERT_TRUE(WriteForced(cluster, *c, "warmup").ok());

  // Kill one write-set server (a holder of the warmup record).
  int victim = 0;
  for (int s = 1; s <= 4 && victim == 0; ++s) {
    for (const LogRecord& r : cluster.server(s).RecordsOf(1)) {
      if (r.lsn == 1 && r.present) {
        victim = s;
        break;
      }
    }
  }
  ASSERT_NE(victim, 0);
  cluster.server(victim).Crash();
  Result<Lsn> lsn = c->WriteLog(ToBytes("survives"));
  ASSERT_TRUE(lsn.ok());
  bool done = false;
  Status force_status = Status::Internal("never");
  c->ForceLog(*lsn, [&](Status st) {
    force_status = st;
    done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }, 60 * sim::kSecond));
  EXPECT_TRUE(force_status.ok());
  EXPECT_GE(c->server_switches().value(), 1u);

  // The record has two live holders among the surviving servers.
  int holders = 0;
  for (int s = 1; s <= 4; ++s) {
    if (s == victim) continue;
    for (const LogRecord& r : cluster.server(s).RecordsOf(1)) {
      if (r.lsn == *lsn && r.present) {
        ++holders;
        break;
      }
    }
  }
  EXPECT_GE(holders, 2);
}

TEST(SystemTest, LossyNetworkEndToEnd) {
  ClusterConfig cfg;
  cfg.network.loss_probability = 0.10;
  cfg.network.duplicate_probability = 0.05;
  Cluster cluster(cfg);
  LogClientConfig ccfg;
  ccfg.force_timeout = 100 * sim::kMillisecond;
  auto c = cluster.AddClient(ccfg);
  ASSERT_TRUE(InitClient(cluster, *c).ok());

  std::map<Lsn, std::string> written;
  for (int i = 0; i < 50; ++i) {
    const std::string data = "lossy" + std::to_string(i);
    Result<Lsn> lsn = WriteForced(cluster, *c, data);
    ASSERT_TRUE(lsn.ok()) << i << ": " << lsn.status().ToString();
    written[*lsn] = data;
  }
  for (const auto& [lsn, data] : written) {
    Result<Bytes> r = ReadSync(cluster, *c, lsn);
    ASSERT_TRUE(r.ok()) << "lsn " << lsn;
    EXPECT_EQ(*r, ToBytes(data));
  }
  // Loss and duplication actually happened.
  EXPECT_GT(cluster.network().packets_lost().value(), 0u);
}

TEST(SystemTest, DualNetworkSurvivesOneNetworkOutage) {
  ClusterConfig cfg;
  cfg.num_networks = 2;
  Cluster cluster(cfg);
  LogClientConfig ccfg;
  ccfg.force_timeout = 100 * sim::kMillisecond;
  auto c = cluster.AddClient(ccfg);
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  ASSERT_TRUE(WriteForced(cluster, *c, "two nets").ok());
  // Both networks carried traffic (round-robin).
  EXPECT_GT(cluster.network(0).packets_sent().value(), 0u);
  EXPECT_GT(cluster.network(1).packets_sent().value(), 0u);
}

TEST(SystemTest, IntervalListsStayShortUnderStickyWrites) {
  ClusterConfig cfg;
  cfg.num_servers = 5;
  Cluster cluster(cfg);
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(c->WriteLog(ToBytes("x")).ok());
    if (i % 20 == 19) {
      bool done = false;
      c->ForceLog(c->EndOfLog(), [&](Status) { done = true; });
      ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
    }
  }
  // Sticky server selection: each storing server holds one interval.
  for (int s = 1; s <= 5; ++s) {
    EXPECT_LE(cluster.server(s).IntervalsOf(1).size(), 1u);
  }
}

TEST(SystemTest, EpochsRiseAcrossRestarts) {
  Cluster cluster(ClusterConfig{});
  client::LogClientConfig ccfg;
  ccfg.client_id = 3;
  auto c = cluster.AddClient(ccfg);
  Epoch last = 0;
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(InitClient(cluster, *c).ok());
    EXPECT_GT(c->current_epoch(), last);
    last = c->current_epoch();
    ASSERT_TRUE(WriteForced(cluster, *c, "r" + std::to_string(round)).ok());
    cluster.CrashClient(c);
    cluster.RestartClient(c);
  }
}

TEST(SystemTest, TwoClientsShareServersIndependently) {
  Cluster cluster(ClusterConfig{});
  client::LogClientConfig a_cfg;
  a_cfg.client_id = 1;
  client::LogClientConfig b_cfg;
  b_cfg.client_id = 2;
  b_cfg.node_id = 1500;
  auto a = cluster.AddClient(a_cfg);
  auto b = cluster.AddClient(b_cfg);
  ASSERT_TRUE(InitClient(cluster, *a).ok());
  ASSERT_TRUE(InitClient(cluster, *b).ok());

  ASSERT_TRUE(WriteForced(cluster, *a, "from-a").ok());
  ASSERT_TRUE(WriteForced(cluster, *b, "from-b").ok());
  EXPECT_EQ(*ReadSync(cluster, *a, 1), ToBytes("from-a"));
  EXPECT_EQ(*ReadSync(cluster, *b, 1), ToBytes("from-b"));
}

TEST(SystemTest, ReadsServedFromLocalBufferWithoutServerTrip) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  Result<Lsn> lsn = c->WriteLog(ToBytes("still local"));
  ASSERT_TRUE(lsn.ok());
  // Not forced yet: the record is in the client buffer.
  Result<Bytes> r = ReadSync(cluster, *c, *lsn);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, ToBytes("still local"));
  EXPECT_EQ(cluster.server(1).read_rpcs().value() +
                cluster.server(2).read_rpcs().value() +
                cluster.server(3).read_rpcs().value(),
            0u);
}

TEST(SystemTest, ServerForestIndexesDiskResidentRecords) {
  ClusterConfig cfg;
  cfg.server.flush_interval = 10 * sim::kMillisecond;
  cfg.server.disk.track_bytes = 2048;  // small tracks: several flushes
  Cluster cluster(cfg);
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(WriteForced(cluster, *c, std::string(120, 'z')).ok());
  }
  cluster.sim().RunFor(sim::kSecond);
  const std::optional<forest::AppendForest> forest =
      cluster.server(1).ForestOf(1);
  if (forest.has_value() && !forest->empty()) {
    EXPECT_TRUE(forest->CheckInvariants().ok());
    // The forest locates a disk-resident record's track.
    Result<forest::AppendForest::Node> node = forest->Find(5);
    if (node.ok()) {
      EXPECT_TRUE(cluster.server(1).disk().IsWritten(node->value));
    }
  }
}

/// True if `server` stores a present record of client 1 at `lsn`.
bool Holds(server::LogServer& server, Lsn lsn) {
  for (const LogRecord& r : server.RecordsOf(1)) {
    if (r.lsn == lsn && r.present) return true;
  }
  return false;
}

// Section 3.1.2: a force completes only once N servers hold its records.
// The first force batch to one write-set member is lost, and the next
// batch reaches that server first: it must report the gap, not start the
// client's stream there and acknowledge LSNs it never received.
TEST(SystemTest, ForceWaitsForNCopiesWhenAServersFirstBatchIsLost) {
  constexpr net::NodeId kClientNode = 1001;
  Cluster cluster(ClusterConfig{});
  LogClientConfig cfg;
  cfg.node_id = kClientNode;
  auto c = cluster.AddClient(cfg);
  ASSERT_TRUE(InitClient(cluster, *c).ok());

  auto write_and_force = [&](int n, Status* forced, bool* done) {
    Lsn last = kNoLsn;
    for (int i = 0; i < n; ++i) {
      Result<Lsn> lsn = c->WriteLog(ToBytes(std::string(50, 'f')));
      ASSERT_TRUE(lsn.ok());
      last = *lsn;
    }
    c->ForceLog(last, [forced, done](Status st) {
      *forced = st;
      *done = true;
    });
  };
  Status first = Status::Internal("force never completed");
  Status second = first;
  bool first_done = false;
  bool second_done = false;
  cluster.network().SetLinkFault(kClientNode, 2, net::LinkFault{1.0, 0});
  write_and_force(7, &first, &first_done);
  cluster.sim().RunFor(2 * sim::kMillisecond);
  cluster.network().ClearLinkFault(kClientNode, 2);
  write_and_force(7, &second, &second_done);
  ASSERT_TRUE(
      cluster.RunUntil([&]() { return first_done && second_done; }));
  EXPECT_TRUE(first.ok()) << first.ToString();
  EXPECT_TRUE(second.ok()) << second.ToString();

  // The client's sticky write set is servers 2 and 3, so the dropped
  // link hit a member; both hold every forced LSN.
  EXPECT_TRUE(cluster.server(1).RecordsOf(1).empty());
  for (Lsn lsn = 1; lsn <= 14; ++lsn) {
    EXPECT_TRUE(Holds(cluster.server(2), lsn)) << "LSN " << lsn;
    EXPECT_TRUE(Holds(cluster.server(3), lsn)) << "LSN " << lsn;
  }
}

TEST(SystemTest, ShedThenRetryForceIsNotDuplicated) {
  // Servers with a tiny NVRAM shed mid-stream: three 425-byte record
  // entries fill it past the 95% threshold. The client backs off per the
  // Overloaded hint and re-offers. The force must still complete, and the
  // retries must not duplicate any record.
  ClusterConfig cfg;
  cfg.server.nvram_bytes = 1300;
  Cluster cluster(cfg);
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());

  Lsn last = kNoLsn;
  for (int i = 0; i < 8; ++i) {
    Result<Lsn> lsn = c->WriteLog(ToBytes(std::string(400, 'a' + i)));
    ASSERT_TRUE(lsn.ok());
    last = *lsn;
  }
  Status forced = Status::Internal("force never completed");
  bool done = false;
  c->ForceLog(last, [&](Status st) {
    forced = st;
    done = true;
  });
  // Generous deadline: shed rounds back off up to the policy's max.
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }, 120 * sim::kSecond));
  EXPECT_TRUE(forced.ok()) << forced.ToString();
  // The scenario only proves idempotence if servers actually shed.
  EXPECT_GT(c->overloads_received().value(), 0u);
  EXPECT_GT(c->backoffs().value(), 0u);

  // Exactly N copies of every record cluster-wide, and no server holds a
  // duplicate of any LSN.
  for (Lsn lsn = 1; lsn <= last; ++lsn) {
    int holders = 0;
    for (int s = 1; s <= 3; ++s) {
      int on_this_server = 0;
      for (const LogRecord& r : cluster.server(s).RecordsOf(1)) {
        if (r.lsn == lsn && r.present) ++on_this_server;
      }
      EXPECT_LE(on_this_server, 1) << "server " << s << " LSN " << lsn;
      holders += on_this_server;
    }
    EXPECT_EQ(holders, 2) << "LSN " << lsn;
  }
}

}  // namespace
}  // namespace dlog
