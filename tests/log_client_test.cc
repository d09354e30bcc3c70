// Focused unit tests of LogClient behaviours that the system tests only
// exercise incidentally: the δ bound, grouping thresholds, policies,
// the read-ahead, and crash semantics.

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "harness/cluster.h"
#include "wire/messages.h"

namespace dlog {
namespace {

using client::LogClientConfig;
using client::SelectionPolicy;
using harness::Cluster;
using harness::ClusterConfig;

Status InitSync(Cluster& cluster, client::LogClient& c) {
  Status result = Status::Internal("never");
  bool done = false;
  c.Init([&](Status st) {
    result = st;
    done = true;
  });
  cluster.RunUntil([&]() { return done; });
  return result;
}

TEST(LogClientTest, WriteBeforeInitFails) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  EXPECT_EQ(c->WriteLog(ToBytes("x")).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(LogClientTest, CrashedClientRejectsEverything) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  c->Crash();
  EXPECT_TRUE(c->WriteLog(ToBytes("x")).status().IsAborted());
  bool done = false;
  Status st;
  c->ForceLog(1, [&](Status s) {
    st = s;
    done = true;
  });
  cluster.RunUntil([&]() { return done; });
  EXPECT_FALSE(st.ok());
}

TEST(LogClientTest, DeltaBoundThrottlesUnackedSends) {
  // With all servers shedding (tiny NVRAM), sends stall at δ records even
  // though many more are buffered and forced.
  ClusterConfig cluster_cfg;
  cluster_cfg.server.nvram_bytes = 1;  // every write shed
  Cluster cluster(cluster_cfg);
  LogClientConfig cfg;
  cfg.client_id = 1;
  cfg.delta = 4;
  cfg.force_timeout = 100 * sim::kMillisecond;
  cfg.force_retries = 1000;  // never switch (everyone sheds anyway)
  auto c = cluster.AddClient(cfg);
  ASSERT_TRUE(InitSync(cluster, *c).ok());

  Lsn last = kNoLsn;
  for (int i = 0; i < 20; ++i) {
    auto lsn = c->WriteLog(ToBytes("r"));
    ASSERT_TRUE(lsn.ok());
    last = *lsn;
  }
  bool done = false;
  c->ForceLog(last, [&](Status) { done = true; });
  cluster.sim().RunFor(3 * sim::kSecond);
  EXPECT_FALSE(done);  // nothing can be acked
  // At most δ distinct records were ever handed to the transport.
  EXPECT_LE(c->records_sent().value(), 2u * 4u * 10u);  // δ x N x retries
  // The δ invariant exactly: no more than δ records partially written.
  uint64_t distinct_sent = 0;
  for (int s = 1; s <= cluster.num_servers(); ++s) {
    distinct_sent =
        std::max<uint64_t>(distinct_sent,
                           cluster.server(s).RecordsOf(1).size());
  }
  EXPECT_LE(distinct_sent, 4u);
}

TEST(LogClientTest, UnforcedSmallWritesStayBuffered) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(c->WriteLog(ToBytes("small")).ok());
  }
  cluster.sim().RunFor(2 * sim::kSecond);
  EXPECT_EQ(c->records_sent().value(), 0u);  // grouping: nothing forced
  EXPECT_GT(c->bytes_buffered(), 0u);
}

TEST(LogClientTest, FullPacketTriggersSendWithoutForce) {
  Cluster cluster(ClusterConfig{});
  LogClientConfig cfg;
  cfg.client_id = 1;
  cfg.mtu_payload = 600;
  auto c = cluster.AddClient(cfg);
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(c->WriteLog(Bytes(200, 'x')).ok());
  }
  cluster.sim().RunFor(2 * sim::kSecond);
  EXPECT_GT(c->records_sent().value(), 0u);  // a full packet went out
}

TEST(LogClientTest, EndOfLogCountsBufferedRecords) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  EXPECT_EQ(c->EndOfLog(), kNoLsn);
  ASSERT_TRUE(c->WriteLog(ToBytes("a")).ok());
  ASSERT_TRUE(c->WriteLog(ToBytes("b")).ok());
  EXPECT_EQ(c->EndOfLog(), 2u);
}

TEST(LogClientTest, ReadCacheServesPackedNeighbors) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  Lsn last = kNoLsn;
  for (int i = 0; i < 10; ++i) {
    auto lsn = c->WriteLog(ToBytes("n" + std::to_string(i)));
    last = *lsn;
  }
  bool done = false;
  c->ForceLog(last, [&](Status) { done = true; });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));

  // First read fetches a packed batch...
  done = false;
  c->ReadLog(1, [&](Result<Bytes> r) {
    EXPECT_TRUE(r.ok());
    done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  uint64_t rpcs_after_first = 0;
  for (int s = 1; s <= 3; ++s) {
    rpcs_after_first += cluster.server(s).read_rpcs().value();
  }
  // ...so the following reads hit the client cache: no further RPCs.
  for (Lsn lsn = 2; lsn <= 5; ++lsn) {
    done = false;
    c->ReadLog(lsn, [&](Result<Bytes> r) {
      EXPECT_TRUE(r.ok());
      done = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  }
  uint64_t rpcs_after_all = 0;
  for (int s = 1; s <= 3; ++s) {
    rpcs_after_all += cluster.server(s).read_rpcs().value();
  }
  EXPECT_EQ(rpcs_after_all, rpcs_after_first);
}

// Each read RPC brings back a packet of records and the client reads the
// next ones from it, however long the replay, so a replay reads one
// packet of records per read RPC instead of one record.
TEST(LogClientTest, ReadCacheKeepsCachingPastItsCapacity) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  for (int chunk = 0; chunk < 50; ++chunk) {
    Lsn last = kNoLsn;
    for (int i = 0; i < 100; ++i) {
      last = *c->WriteLog(Bytes(100, static_cast<uint8_t>(i)));
    }
    bool forced = false;
    c->ForceLog(last, [&](Status) { forced = true; });
    ASSERT_TRUE(cluster.RunUntil([&]() { return forced; }));
  }
  auto read_rpcs = [&cluster]() {
    uint64_t n = 0;
    for (int s = 1; s <= 3; ++s) n += cluster.server(s).read_rpcs().value();
    return n;
  };
  auto read = [&](Lsn from, Lsn to) {
    for (Lsn lsn = from; lsn <= to; ++lsn) {
      bool done = false;
      c->ReadLog(lsn, [&](Result<Bytes> r) {
        EXPECT_TRUE(r.ok());
        done = true;
      });
      ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
    }
  };
  read(1, 4000);
  const uint64_t before = read_rpcs();
  read(4001, 5000);
  EXPECT_LE(read_rpcs() - before, 150u);
}

/// Writes `n` records of 100 bytes to `c` and forces them.
void WriteForced(Cluster& cluster, client::LogClient& c, int n) {
  Lsn last = kNoLsn;
  for (int i = 0; i < n; ++i) {
    last = *c.WriteLog(Bytes(100, static_cast<uint8_t>(i)));
  }
  bool forced = false;
  c.ForceLog(last, [&](Status) { forced = true; });
  ASSERT_TRUE(cluster.RunUntil([&]() { return forced; }));
}

/// Reads `lsn` from `c`, running the cluster until the read completes.
Result<Bytes> ReadSync(Cluster& cluster, client::LogClient& c, Lsn lsn) {
  Result<Bytes> result = Status::Internal("never");
  bool done = false;
  c.ReadLog(lsn, [&](Result<Bytes> r) {
    result = std::move(r);
    done = true;
  });
  cluster.RunUntil([&]() { return done; });
  return result;
}

/// ReadLog RPCs the cluster's servers have served.
uint64_t ReadRpcs(Cluster& cluster) {
  uint64_t n = 0;
  for (int s = 1; s <= cluster.num_servers(); ++s) {
    n += cluster.server(s).read_rpcs().value();
  }
  return n;
}

/// Reads forward from LSN 1 until a read costs a second RPC; returns the
/// LSN that read asked for, the first of the newest reply's records
/// (kNoLsn if no read did).
Lsn ReadIntoTheSecondReply(Cluster& cluster, client::LogClient& c) {
  const uint64_t before = ReadRpcs(cluster);
  for (Lsn lsn = 1; lsn <= c.EndOfLog(); ++lsn) {
    EXPECT_TRUE(ReadSync(cluster, c, lsn).ok()) << "LSN " << lsn;
    if (ReadRpcs(cluster) - before == 2) return lsn;
  }
  return kNoLsn;
}

// The client keeps only the newest reply's records: past the first reply,
// an LSN of the newest one reads with no RPC, and LSN 1, from the first
// reply, costs one RPC again.
TEST(LogClientTest, ReadAheadHoldsTheNewestReplyOnly) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  WriteForced(cluster, *c, 100);
  const Lsn second = ReadIntoTheSecondReply(cluster, *c);
  ASSERT_GT(second, 2u);  // the first reply packed records after LSN 1

  uint64_t before = ReadRpcs(cluster);
  const Result<Bytes> ahead = ReadSync(cluster, *c, second + 1);
  ASSERT_TRUE(ahead.ok());
  EXPECT_EQ(*ahead, Bytes(100, static_cast<uint8_t>(second)));
  EXPECT_EQ(ReadRpcs(cluster) - before, 0u);

  before = ReadRpcs(cluster);
  const Result<Bytes> first = ReadSync(cluster, *c, 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, Bytes(100, 0));
  EXPECT_EQ(ReadRpcs(cluster) - before, 1u);
}

// TruncateLog drops the read-ahead when it holds a truncated LSN, so that
// LSN is not read back from it, and keeps it when the truncation point
// lies below it.
TEST(LogClientTest, TruncateLogDropsAReadAheadHoldingTruncatedRecords) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  WriteForced(cluster, *c, 100);
  const Lsn second = ReadIntoTheSecondReply(cluster, *c);
  ASSERT_GT(second, 2u);

  ASSERT_EQ(c->TruncateLog(second), second);
  uint64_t before = ReadRpcs(cluster);
  EXPECT_TRUE(ReadSync(cluster, *c, second + 1).ok());
  EXPECT_EQ(ReadRpcs(cluster) - before, 0u);

  ASSERT_EQ(c->TruncateLog(second + 1), second + 1);
  EXPECT_TRUE(ReadSync(cluster, *c, second).status().IsNotFound());
  before = ReadRpcs(cluster);
  EXPECT_TRUE(ReadSync(cluster, *c, second + 1).ok());
  EXPECT_EQ(ReadRpcs(cluster) - before, 1u);
}

// A record travels whole in one batch, so one whose encoding exceeds
// mtu_payload could never reach a server: WriteLog refuses it up front.
TEST(LogClientTest, RecordLargerThanOnePacketIsRejected) {
  Cluster cluster(ClusterConfig{});
  LogClientConfig cfg;
  cfg.client_id = 1;
  auto c = cluster.AddClient(cfg);
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  const size_t max_data =
      cfg.mtu_payload - wire::EncodedRecordSize(LogRecord{});

  auto first = c->WriteLog(ToBytes("before"));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(c->WriteLog(Bytes(max_data + 1, 'x')).status().code(),
            StatusCode::kInvalidArgument);

  // The client keeps working, and a record exactly at the bound (its
  // own batch) round-trips.
  const Bytes at_bound(max_data, 'y');
  auto lsn = c->WriteLog(at_bound);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, *first + 1);  // the refused record took no LSN
  bool done = false;
  Status forced = Status::Internal("never");
  c->ForceLog(*lsn, [&](Status st) {
    forced = st;
    done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  EXPECT_TRUE(forced.ok());
  EXPECT_EQ(cluster.network().packets_oversized().value(), 0u);

  done = false;
  Result<Bytes> read = Status::Internal("never");
  c->ReadLog(*lsn, [&](Result<Bytes> r) {
    read = std::move(r);
    done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, at_bound);
}

TEST(LogClientTest, RoundRobinPolicySpreadsInitialSets) {
  ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = 6;
  Cluster cluster(cluster_cfg);
  // Several round-robin clients: every server should store something.
  std::vector<harness::ClientHandle> clients;
  for (int i = 0; i < 6; ++i) {
    LogClientConfig cfg;
    cfg.client_id = static_cast<ClientId>(i + 1);
    cfg.policy = SelectionPolicy::kRoundRobin;
    clients.push_back(cluster.AddClient(cfg));
    ASSERT_TRUE(InitSync(cluster, *clients.back()).ok());
    Lsn lsn = *clients.back()->WriteLog(ToBytes("x"));
    bool done = false;
    clients.back()->ForceLog(lsn, [&](Status) { done = true; });
    ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  }
  int servers_used = 0;
  for (int s = 1; s <= 6; ++s) {
    uint64_t records = cluster.server(s).records_written().value();
    if (records > 0) ++servers_used;
  }
  EXPECT_GE(servers_used, 4);
}

TEST(LogClientTest, InitUnavailableWithTooFewServers) {
  ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = 5;
  Cluster cluster(cluster_cfg);
  // N=2, M=5 needs 4 interval lists; take 2 servers down.
  cluster.server(1).Crash();
  cluster.server(2).Crash();
  LogClientConfig cfg;
  cfg.client_id = 1;
  cfg.rpc_timeout = 100 * sim::kMillisecond;
  cfg.rpc_attempts = 2;
  auto c = cluster.AddClient(cfg);
  Status st = InitSync(cluster, *c);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  // Bring one back: init succeeds on retry.
  cluster.server(1).Restart();
  EXPECT_TRUE(InitSync(cluster, *c).ok());
}

TEST(LogClientTest, GeneratorQuorumBlocksInit) {
  ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = 5;
  Cluster cluster(cluster_cfg);
  LogClientConfig cfg;
  cfg.client_id = 1;
  // Generator representatives on servers 1-3; kill 2 of them. Interval
  // lists are still gatherable (4 of 5 up), but no epoch is issuable.
  cfg.generator_reps = {1, 2, 3};
  cfg.rpc_timeout = 100 * sim::kMillisecond;
  cfg.rpc_attempts = 2;
  cluster.server(1).Crash();
  cluster.server(2).Crash();
  auto c = cluster.AddClient(cfg);
  Status st = InitSync(cluster, *c);
  EXPECT_TRUE(st.IsUnavailable());
}

TEST(LogClientTest, ValidateRejectsMoreServersThanAckBits) {
  LogClientConfig cfg;
  for (net::NodeId id = 1; id <= client::kMaxServers + 1; ++id) {
    cfg.servers.push_back(id);
  }
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kInvalidArgument);
  cfg.servers.pop_back();
  EXPECT_TRUE(cfg.Validate().ok());
}

// A server the client abandons for silence may still acknowledge what it
// was sent; that acknowledgment counts toward the N copies.
TEST(LogClientTest, AcksFromAServerThatLeftTheWriteSetStillCount) {
  Cluster cluster(ClusterConfig{});  // M = 3, N = 2
  LogClientConfig cfg;
  cfg.client_id = 1;
  cfg.node_id = 1000;  // the first client node id AddClient hands out
  cfg.force_timeout = 200 * sim::kMillisecond;
  cfg.force_retries = 1;
  auto c = cluster.AddClient(cfg);
  ASSERT_TRUE(InitSync(cluster, *c).ok());

  // The first record's holders are the write set.
  const Lsn first = *c->WriteLog(ToBytes("a"));
  bool done = false;
  c->ForceLog(first, [&](Status) { done = true; });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  const std::vector<ServerId> holders = c->view().Find(first)->servers;
  ASSERT_EQ(holders.size(), 2u);
  const net::NodeId slow = holders[1];
  const net::NodeId spare = 6 - holders[0] - holders[1];

  // The slow server's acknowledgments arrive only after the client has
  // switched away from it, and its replacement (the spare) is down.
  cluster.server(spare).Crash();
  cluster.network().SetLinkFault(slow, 1000,
                                 net::LinkFault{0.0, 600 * sim::kMillisecond});
  const Lsn second = *c->WriteLog(ToBytes("b"));
  done = false;
  Status st = Status::Internal("never");
  c->ForceLog(second, [&](Status s) {
    st = s;
    done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return done; }, 10 * sim::kSecond));
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(c->server_switches().value(), 1u);
  EXPECT_EQ(c->view().Find(second)->servers, holders);
}

// Destroying a cluster while a ReadLog RPC is in flight drops the call:
// its callback never runs into the half-destroyed client.
TEST(LogClientTest, DestroyingTheClusterMidReadNeverRunsTheCallback) {
  auto cluster = std::make_unique<Cluster>(ClusterConfig{});
  auto c = cluster->AddClient();
  ASSERT_TRUE(InitSync(*cluster, *c).ok());
  const Lsn lsn = *c->WriteLog(ToBytes("r"));
  bool forced = false;
  c->ForceLog(lsn, [&](Status) { forced = true; });
  ASSERT_TRUE(cluster->RunUntil([&]() { return forced; }));

  // Durable and no longer buffered: the read needs a server round trip.
  bool called = false;
  c->ReadLog(lsn, [&](Result<Bytes>) { called = true; });
  cluster->RunFor(100 * sim::kMicrosecond);
  ASSERT_FALSE(called);
  cluster.reset();
  EXPECT_FALSE(called);
}

// A crash fails a read in flight with Aborted, while an Init or a
// RepairLog it cuts off never calls back.
TEST(LogClientTest, CrashAbortsAReadButSilencesInitAndRepair) {
  Cluster cluster(ClusterConfig{});
  auto c = cluster.AddClient();
  ASSERT_TRUE(InitSync(cluster, *c).ok());
  const Lsn lsn = *c->WriteLog(ToBytes("r"));
  bool forced = false;
  c->ForceLog(lsn, [&](Status) { forced = true; });
  ASSERT_TRUE(cluster.RunUntil([&]() { return forced; }));

  // Both wait on servers: the read for its record, the repair for its
  // survey.
  Result<Bytes> read = Status::Internal("never");
  bool read_done = false;
  c->ReadLog(lsn, [&](Result<Bytes> r) {
    read = std::move(r);
    read_done = true;
  });
  bool repaired = false;
  c->RepairLog([&](Status) { repaired = true; });
  cluster.RunFor(100 * sim::kMicrosecond);
  ASSERT_FALSE(read_done);
  ASSERT_FALSE(repaired);
  cluster.CrashClient(c);
  cluster.RunFor(5 * sim::kSecond);
  EXPECT_TRUE(read_done);
  EXPECT_TRUE(read.status().IsAborted()) << read.status().ToString();
  EXPECT_FALSE(repaired);

  cluster.RestartClient(c);
  bool initialized = false;
  c->Init([&](Status) { initialized = true; });
  cluster.RunFor(100 * sim::kMicrosecond);
  ASSERT_FALSE(initialized);
  cluster.CrashClient(c);
  cluster.RunFor(5 * sim::kSecond);
  EXPECT_FALSE(initialized);
}

}  // namespace
}  // namespace dlog
