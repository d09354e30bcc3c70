// Media-failure repair (Section 5.3's "repair of a log when one
// redundant copy is lost"): a server loses its storage; RepairLog
// restores N-way redundancy from the surviving copies.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "harness/cluster.h"

namespace dlog {
namespace {

using client::LogClientConfig;
using harness::Cluster;
using harness::ClusterConfig;

struct Fixture {
  explicit Fixture(int servers = 4, ClientId client_id = 1)
      : cluster(MakeConfig(servers)) {
    LogClientConfig cfg;
    cfg.client_id = client_id;
    log = cluster.AddClient(cfg);
    bool ready = false;
    log->Init([&](Status st) { ready = st.ok(); });
    cluster.RunUntil([&]() { return ready; });
    EXPECT_TRUE(log->IsInitialized());
  }

  static ClusterConfig MakeConfig(int servers) {
    ClusterConfig cfg;
    cfg.num_servers = servers;
    return cfg;
  }

  /// Writes `n` records, each padded to at least `bytes`, and forces
  /// them.
  void WriteForced(int n, size_t bytes = 0) {
    Lsn last = kNoLsn;
    for (int i = 0; i < n; ++i) {
      std::string data = "rec" + std::to_string(i);
      if (data.size() < bytes) data.resize(bytes, '.');
      auto lsn = log->WriteLog(ToBytes(data));
      ASSERT_TRUE(lsn.ok());
      last = *lsn;
    }
    bool done = false;
    log->ForceLog(last, [&](Status st) {
      EXPECT_TRUE(st.ok());
      done = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  }

  Status Repair() {
    Status result = Status::Internal("never");
    bool done = false;
    log->RepairLog([&](Status st) {
      result = st;
      done = true;
    });
    cluster.RunUntil([&]() { return done; }, 120 * sim::kSecond);
    return result;
  }

  /// True if server `s` stores this client's record `lsn`.
  bool Holds(int s, Lsn lsn) {
    for (const LogRecord& r : cluster.server(s).RecordsOf(log->client_id())) {
      if (r.lsn == lsn) return true;
    }
    return false;
  }

  int HoldersOf(Lsn lsn) {
    int holders = 0;
    for (int s = 1; s <= cluster.num_servers(); ++s) {
      if (cluster.server(s).IsUp() && Holds(s, lsn)) ++holders;
    }
    return holders;
  }

  /// The server holding LSN 1 (a write-set member).
  int VictimFor(Lsn lsn) {
    for (int s = 1; s <= cluster.num_servers(); ++s) {
      if (Holds(s, lsn)) return s;
    }
    return 0;
  }

  Cluster cluster;
  harness::ClientHandle log;
};

TEST(RepairTest, NoopWhenFullyReplicated) {
  Fixture f;
  f.WriteForced(10);
  EXPECT_TRUE(f.Repair().ok());
  for (Lsn lsn = 1; lsn <= 10; ++lsn) EXPECT_EQ(f.HoldersOf(lsn), 2);
}

TEST(RepairTest, RestoresRedundancyAfterMediaLoss) {
  Fixture f;
  f.WriteForced(30);
  const int victim = f.VictimFor(1);
  ASSERT_NE(victim, 0);
  f.cluster.server(victim).WipeStorage();
  f.cluster.server(victim).Restart();
  f.cluster.sim().RunFor(sim::kSecond);

  // Redundancy lost: one holder for the victim's share.
  EXPECT_EQ(f.HoldersOf(1), 1);

  ASSERT_TRUE(f.Repair().ok());
  // Every record has two holders again.
  for (Lsn lsn = 1; lsn <= 30; ++lsn) {
    EXPECT_GE(f.HoldersOf(lsn), 2) << "lsn " << lsn;
  }
  // And everything still reads back correctly.
  for (Lsn lsn = 1; lsn <= 30; lsn += 7) {
    bool done = false;
    Result<Bytes> r = Status::Internal("never");
    f.log->ReadLog(lsn, [&](Result<Bytes> got) {
      r = std::move(got);
      done = true;
    });
    ASSERT_TRUE(f.cluster.RunUntil([&]() { return done; }));
    EXPECT_TRUE(r.ok()) << "lsn " << lsn;
  }
}

TEST(RepairTest, SurvivesSubsequentLossOfOriginalHolder) {
  Fixture f;
  f.WriteForced(20);
  const int victim = f.VictimFor(1);
  f.cluster.server(victim).WipeStorage();
  f.cluster.server(victim).Restart();
  ASSERT_TRUE(f.Repair().ok());

  // Now wipe the *other* original holder: the repaired copies must carry
  // the log on their own.
  const int second = f.VictimFor(1);
  ASSERT_NE(second, 0);
  f.cluster.server(second).WipeStorage();
  f.cluster.server(second).Restart();
  f.cluster.sim().RunFor(sim::kSecond);

  for (Lsn lsn = 1; lsn <= 20; lsn += 5) {
    EXPECT_GE(f.HoldersOf(lsn), 1) << "lsn " << lsn;
  }
  // A fresh client recovers the full log from the repaired copies.
  f.cluster.CrashClient(f.log);
  f.cluster.RestartClient(f.log);
  auto log2 = f.log;
  bool ready = false;
  for (int attempt = 0; attempt < 5 && !ready; ++attempt) {
    bool done = false;
    log2->Init([&](Status st) {
      ready = st.ok();
      done = true;
    });
    ASSERT_TRUE(f.cluster.RunUntil([&]() { return done; },
                                   60 * sim::kSecond));
  }
  ASSERT_TRUE(ready);
  EXPECT_GE(log2->EndOfLog(), 20u);
  bool done = false;
  Result<Bytes> r = Status::Internal("never");
  log2->ReadLog(1, [&](Result<Bytes> got) {
    r = std::move(got);
    done = true;
  });
  ASSERT_TRUE(f.cluster.RunUntil([&]() { return done; }));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ToString(*r), "rec0");
}

TEST(RepairTest, ReportsPartialWhenNoSpareServers) {
  Fixture f(2);  // M = N = 2: no spare server to repair onto
  f.WriteForced(5);
  const int victim = f.VictimFor(1);
  f.cluster.server(victim).WipeStorage();
  f.cluster.server(victim).Restart();
  f.cluster.sim().RunFor(sim::kSecond);
  Status st = f.Repair();
  // With M == N the only eligible target is the wiped server itself,
  // which no longer appears as a holder — so repair succeeds by copying
  // back onto it.
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(f.HoldersOf(1), 2);
}

// A segment whose copy fails ends once, however many of its calls fail,
// so the segment queued behind it is still repaired.
TEST(RepairTest, AFailedSegmentDoesNotSkipTheNext) {
  Fixture f(4, /*client_id=*/12);
  // 300-byte records: LSN 1-30 take several CopyLog chunks.
  f.WriteForced(30, 300);
  // Sticky failover spreads clients by id: client 12 starts on {1, 2}.
  for (int s = 1; s <= 4; ++s) {
    ASSERT_EQ(f.Holds(s, 1), s <= 2) << "server " << s;
  }
  f.cluster.server(1).Crash();
  f.WriteForced(30, 300);
  // The client abandoned server 1 for server 3.
  for (Lsn lsn = 31; lsn <= 60; ++lsn) {
    ASSERT_TRUE(f.Holds(2, lsn) && f.Holds(3, lsn)) << "lsn " << lsn;
  }
  f.cluster.server(1).Restart();
  f.cluster.sim().RunFor(sim::kSecond);
  f.cluster.server(2).Crash();

  // The survey sees LSN 1-30 on server 1 only and LSN 31-60 on server 3
  // only. Server 2 is the first non-holder of LSN 1-30 in config order;
  // it is down, so every CopyLog chunk of that segment times out.
  EXPECT_TRUE(f.Repair().IsUnavailable());
  // LSN 31-60 are still copied, to server 1.
  for (Lsn lsn = 31; lsn <= 60; ++lsn) {
    EXPECT_TRUE(f.Holds(1, lsn) && f.Holds(3, lsn)) << "lsn " << lsn;
    EXPECT_EQ(f.HoldersOf(lsn), 2) << "lsn " << lsn;
  }
}

}  // namespace
}  // namespace dlog
