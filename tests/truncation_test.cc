// Section 5.3 log space management: checkpoint-driven truncation of the
// online log, from the store level up through the full stack.

#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <vector>

#include "harness/cluster.h"
#include "server/client_log_store.h"
#include "server/track_images.h"
#include "tp/bank.h"
#include "tp/engine.h"
#include "tp/logger.h"

namespace dlog {
namespace {

using server::ClientLogStore;

LogRecord Rec(Lsn lsn, Epoch epoch) {
  LogRecord r;
  r.lsn = lsn;
  r.epoch = epoch;
  r.data = ToBytes("d");
  return r;
}

TEST(TruncationStoreTest, DropsRecordsAndClipsIntervals) {
  server::MemoryTrackImages images;
  ClientLogStore store(1, &images);
  for (Lsn l = 1; l <= 10; ++l) ASSERT_TRUE(store.Write(Rec(l, 1)).ok());
  EXPECT_EQ(store.TruncateBelow(6), 5u);
  EXPECT_EQ(store.record_count(), 5u);
  EXPECT_EQ(store.Intervals(), (IntervalList{{1, 6, 10}}));
  EXPECT_TRUE(store.Read(5).status().IsNotFound());
  EXPECT_TRUE(store.Read(6).ok());
  // Writes continue at the tail.
  EXPECT_TRUE(store.Write(Rec(11, 1)).ok());
  EXPECT_EQ(store.HighestLsn(), 11u);
}

TEST(TruncationStoreTest, TruncatingNothingIsFree) {
  server::MemoryTrackImages images;
  ClientLogStore store(1, &images);
  ASSERT_TRUE(store.Write(Rec(5, 1)).ok());
  EXPECT_EQ(store.TruncateBelow(3), 0u);
  EXPECT_EQ(store.record_count(), 1u);
}

TEST(TruncationStoreTest, SpansMultipleIntervals) {
  server::MemoryTrackImages images;
  ClientLogStore store(1, &images);
  ASSERT_TRUE(store.Write(Rec(1, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(2, 1)).ok());
  ASSERT_TRUE(store.Write(Rec(5, 1)).ok());  // gap
  ASSERT_TRUE(store.Write(Rec(6, 1)).ok());
  EXPECT_EQ(store.TruncateBelow(6), 3u);
  EXPECT_EQ(store.Intervals(), (IntervalList{{1, 6, 6}}));
}

// --- Full stack ---

using client::LogClientConfig;
using harness::Cluster;
using harness::ClusterConfig;

struct StackFixture {
  StackFixture() : cluster(ClusterConfig{}) {
    LogClientConfig cfg;
    cfg.client_id = 1;
    cfg.delta = 4;
    log = cluster.AddClient(cfg);
    bool ready = false;
    log->Init([&](Status st) { ready = st.ok(); });
    cluster.RunUntil([&]() { return ready; });
    EXPECT_TRUE(log->IsInitialized());
  }

  void WriteForced(int n) {
    Lsn last = kNoLsn;
    for (int i = 0; i < n; ++i) {
      auto lsn = log->WriteLog(ToBytes("x" + std::to_string(i)));
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

  size_t TotalLiveRecords() {
    cluster.sim().RunFor(sim::kSecond);  // let truncations propagate
    size_t live = 0;
    for (int s = 1; s <= 3; ++s) live += cluster.server(s).LiveRecordsOf(1);
    return live;
  }

  Cluster cluster;
  harness::ClientHandle log;
};

TEST(TruncationSystemTest, ShrinksOnlineLog) {
  StackFixture f;
  f.WriteForced(40);
  const size_t before = f.TotalLiveRecords();
  const Lsn applied = f.log->TruncateLog(30);
  EXPECT_GT(applied, 1u);
  const size_t after = f.TotalLiveRecords();
  EXPECT_LT(after, before);
  // The recovery window (δ) and tail always survive.
  EXPECT_GE(after, 2u * f.log->view().segments().back().servers.size());
}

TEST(TruncationSystemTest, ClampKeepsRecoveryWindow) {
  StackFixture f;
  f.WriteForced(20);
  // Ask to truncate everything; the client must keep the last δ records.
  const Lsn applied = f.log->TruncateLog(1000);
  EXPECT_LE(applied, 20u - 4 + 1);
  f.cluster.sim().RunFor(sim::kSecond);
  // Restart recovery still works.
  f.cluster.CrashClient(f.log);
  f.cluster.RestartClient(f.log);
  auto log2 = f.log;
  bool ready = false;
  log2->Init([&](Status st) { ready = st.ok(); });
  ASSERT_TRUE(f.cluster.RunUntil([&]() { return ready; }));
  EXPECT_GE(log2->EndOfLog(), 20u);
}

TEST(TruncationSystemTest, MarkSurvivesServerRestart) {
  StackFixture f;
  f.WriteForced(30);
  ASSERT_GT(f.log->TruncateLog(20), 1u);
  f.cluster.sim().RunFor(sim::kSecond);
  const size_t before = f.TotalLiveRecords();

  for (int s = 1; s <= 3; ++s) f.cluster.server(s).Crash();
  f.cluster.sim().RunFor(100 * sim::kMillisecond);
  for (int s = 1; s <= 3; ++s) f.cluster.server(s).Restart();

  // The disk scan must not resurrect the truncated prefix.
  size_t after = 0;
  for (int s = 1; s <= 3; ++s) after += f.cluster.server(s).LiveRecordsOf(1);
  EXPECT_EQ(after, before);
}

TEST(TruncationSystemTest, ReadableRangeFollowsTruncation) {
  StackFixture f;
  f.WriteForced(25);
  const Lsn applied = f.log->TruncateLog(10);
  ASSERT_EQ(applied, 10u);
  f.cluster.sim().RunFor(sim::kSecond);

  bool done = false;
  Result<Bytes> r = Status::Internal("never");
  f.log->ReadLog(5, [&](Result<Bytes> got) {
    r = std::move(got);
    done = true;
  });
  ASSERT_TRUE(f.cluster.RunUntil([&]() { return done; }));
  EXPECT_TRUE(r.status().IsNotFound());

  done = false;
  f.log->ReadLog(15, [&](Result<Bytes> got) {
    r = std::move(got);
    done = true;
  });
  ASSERT_TRUE(f.cluster.RunUntil([&]() { return done; }));
  EXPECT_TRUE(r.ok());
}

/// The <key_low, key_high, track> of each node of `server`'s append
/// forest for client 1, in append order.
std::vector<std::tuple<Lsn, Lsn, uint64_t>> ForestNodes(
    server::LogServer& server) {
  std::vector<std::tuple<Lsn, Lsn, uint64_t>> nodes;
  const std::optional<forest::AppendForest> forest = server.ForestOf(1);
  for (uint64_t i = 0; forest.has_value() && i < forest->size(); ++i) {
    const forest::AppendForest::Node& n = forest->node(i);
    nodes.emplace_back(n.key_low, n.key_high, n.value);
  }
  return nodes;
}

// Section 4.3: the append forest indexes a server's disk tracks and is
// append-only, so a truncation drops records but no nodes. A restarted
// server rebuilds the forest from its disk scan, and must rebuild the one
// its flushes built.
TEST(TruncationSystemTest, RestartRebuildsTheForestItsFlushesBuilt) {
  ClusterConfig cfg;
  cfg.server.flush_interval = 10 * sim::kMillisecond;
  cfg.server.disk.track_bytes = 2048;
  Cluster cluster(cfg);
  auto log = cluster.AddClient();
  bool ready = false;
  log->Init([&](Status st) { ready = st.ok(); });
  ASSERT_TRUE(cluster.RunUntil([&]() { return ready; }));
  for (int i = 0; i < 60; ++i) {
    auto lsn = log->WriteLog(ToBytes(std::string(120, 'z')));
    ASSERT_TRUE(lsn.ok());
    bool done = false;
    log->ForceLog(*lsn, [&](Status st) {
      EXPECT_TRUE(st.ok());
      done = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  }
  ASSERT_EQ(log->TruncateLog(30), 30u);
  cluster.sim().RunFor(sim::kSecond);  // flushes and truncations land

  int indexed = 0;
  for (int s = 1; s <= 3; ++s) {
    const auto built = ForestNodes(cluster.server(s));
    if (!built.empty()) ++indexed;
    cluster.server(s).Crash();
    cluster.sim().RunFor(100 * sim::kMillisecond);
    cluster.server(s).Restart();
    EXPECT_EQ(ForestNodes(cluster.server(s)), built) << "server " << s;
  }
  EXPECT_EQ(indexed, 2);  // the client's two copies
}

// --- Engine checkpoint-driven truncation ---

TEST(TruncationEngineTest, CheckpointTruncatesReplicatedLog) {
  ClusterConfig cluster_cfg;
  Cluster cluster(cluster_cfg);
  LogClientConfig log_cfg;
  log_cfg.client_id = 7;
  log_cfg.delta = 4;
  auto log = cluster.AddClient(log_cfg);
  bool ready = false;
  log->Init([&](Status st) { ready = st.ok(); });
  ASSERT_TRUE(cluster.RunUntil([&]() { return ready; }));

  tp::ReplicatedTxnLogger logger(log.get());
  tp::PageDisk disk(1024);
  tp::EngineConfig cfg;
  cfg.truncate_after_checkpoint = true;
  tp::TransactionEngine engine(&cluster.sim(), &logger, &disk, cfg);
  tp::BankDb bank(&engine, tp::BankConfig{});

  for (int i = 0; i < 20; ++i) {
    bool done = false;
    bank.RunEt1(i, i % 10, i % 5, 10, [&](Status st) {
      EXPECT_TRUE(st.ok());
      done = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  }
  size_t live_before = 0;
  cluster.sim().RunFor(sim::kSecond);
  for (int s = 1; s <= 3; ++s) live_before += cluster.server(s).LiveRecordsOf(7);

  bool cleaned = false;
  engine.CleanPages([&](Status st) {
    EXPECT_TRUE(st.ok());
    cleaned = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return cleaned; }));
  cluster.sim().RunFor(sim::kSecond);

  size_t live_after = 0;
  for (int s = 1; s <= 3; ++s) live_after += cluster.server(s).LiveRecordsOf(7);
  EXPECT_LT(live_after, live_before / 4);  // online log collapsed

  // And the bank still recovers correctly afterwards.
  engine.Crash();
  cluster.CrashClient(log);
  cluster.RestartClient(log);
  auto log2 = log;
  ready = false;
  for (int attempt = 0; attempt < 5 && !ready; ++attempt) {
    bool done = false;
    log2->Init([&](Status st) {
      ready = st.ok();
      done = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
  }
  ASSERT_TRUE(ready);
  tp::ReplicatedTxnLogger logger2(log2.get());
  tp::TransactionEngine recovered(&cluster.sim(), &logger2, &disk,
                                  tp::EngineConfig{});
  bool rec_done = false;
  Status rec_st;
  recovered.Recover([&](Status st) {
    rec_st = st;
    rec_done = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&]() { return rec_done; },
                               120 * sim::kSecond));
  ASSERT_TRUE(rec_st.ok());
  tp::BankDb bank_after(&recovered, tp::BankConfig{});
  EXPECT_EQ(bank_after.TotalAccounts(), 200);
}

}  // namespace
}  // namespace dlog
