// Full-stack randomized fault injection: clients run forced writes over
// the real protocol stack while servers crash and restart and the
// network loses and duplicates packets. Invariant: every force-
// acknowledged record is readable with exact contents afterwards.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "harness/cluster.h"

namespace dlog {
namespace {

using client::LogClientConfig;
using harness::Cluster;
using harness::ClusterConfig;

class SystemFaultProperty
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(SystemFaultProperty, ForcedRecordsSurviveServerChurn) {
  const auto [servers, loss, seed] = GetParam();

  ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = servers;
  cluster_cfg.network.loss_probability = loss;
  cluster_cfg.network.duplicate_probability = loss / 2;
  cluster_cfg.seed = seed;
  Cluster cluster(cluster_cfg);

  LogClientConfig ccfg;
  ccfg.client_id = 1;
  ccfg.force_timeout = 100 * sim::kMillisecond;
  ccfg.force_retries = 2;
  ccfg.seed = seed;
  auto c = cluster.AddClient(ccfg);

  bool ready = false;
  c->Init([&](Status st) { ready = st.ok(); });
  ASSERT_TRUE(cluster.RunUntil([&]() { return ready; }));

  Rng rng(seed * 131);
  std::map<Lsn, std::string> durable;

  // Crash/restart schedule: every ~1.5 s, crash one random server for
  // ~1 s — but never let fewer than N stay up.
  int down_server = 0;  // 0 = none
  for (int round = 0; round < 25; ++round) {
    // Issue a small burst and force it.
    Lsn last = kNoLsn;
    std::map<Lsn, std::string> burst;
    for (int i = 0; i < 4; ++i) {
      const std::string data =
          "r" + std::to_string(round) + "-" + std::to_string(i);
      Result<Lsn> lsn = c->WriteLog(ToBytes(data));
      ASSERT_TRUE(lsn.ok());
      burst[*lsn] = data;
      last = *lsn;
    }
    bool forced = false;
    Status force_st = Status::Internal("pending");
    c->ForceLog(last, [&](Status st) {
      force_st = st;
      forced = true;
    });

    // Fault injection while the force is in flight.
    if (down_server != 0 && rng.NextBelow(2) == 0) {
      cluster.server(down_server).Restart();
      down_server = 0;
    } else if (down_server == 0 && rng.NextBelow(3) == 0 && servers > 2) {
      down_server = 1 + static_cast<int>(rng.NextBelow(servers));
      cluster.server(down_server).Crash();
    }

    ASSERT_TRUE(cluster.RunUntil([&]() { return forced; },
                                 120 * sim::kSecond))
        << "round " << round << " seed " << seed;
    ASSERT_TRUE(force_st.ok());
    for (auto& [lsn, data] : burst) durable[lsn] = data;
  }

  // Bring everything back and audit.
  if (down_server != 0) cluster.server(down_server).Restart();
  cluster.sim().RunFor(2 * sim::kSecond);
  for (const auto& [lsn, data] : durable) {
    Result<Bytes> r = Status::Internal("pending");
    bool done = false;
    c->ReadLog(lsn, [&](Result<Bytes> got) {
      r = std::move(got);
      done = true;
    });
    ASSERT_TRUE(cluster.RunUntil([&]() { return done; }, 60 * sim::kSecond));
    ASSERT_TRUE(r.ok()) << "lsn " << lsn << ": " << r.status().ToString();
    EXPECT_EQ(ToString(*r), data) << "lsn " << lsn;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SystemFaultProperty,
    ::testing::Combine(::testing::Values(3, 5),       // servers
                       ::testing::Values(0.0, 0.05),  // packet loss
                       ::testing::Range(1, 5)));      // seeds

// Client crash/restart cycles over the real stack: the recovered client
// must see every previously forced record and keep epochs rising.
class ClientRestartProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClientRestartProperty, ForcedHistorySurvivesRestarts) {
  const int seed = GetParam();
  ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = 4;
  cluster_cfg.seed = seed;
  Cluster cluster(cluster_cfg);

  std::map<Lsn, std::string> durable;
  Epoch last_epoch = 0;
  Rng rng(seed * 53);

  for (int life = 0; life < 5; ++life) {
    LogClientConfig ccfg;
    ccfg.client_id = 9;
    ccfg.node_id = 1000 + life;
    ccfg.seed = seed * 10 + life;
    auto c = cluster.AddClient(ccfg);
    bool ready = false;
    Status init_st;
    for (int attempt = 0; attempt < 5 && !ready; ++attempt) {
      bool done = false;
      c->Init([&](Status st) {
        init_st = st;
        ready = st.ok();
        done = true;
      });
      ASSERT_TRUE(cluster.RunUntil([&]() { return done; },
                                   60 * sim::kSecond));
    }
    ASSERT_TRUE(ready) << init_st.ToString();
    EXPECT_GT(c->current_epoch(), last_epoch);
    last_epoch = c->current_epoch();

    // Verify all previously durable records.
    for (const auto& [lsn, data] : durable) {
      Result<Bytes> r = Status::Internal("pending");
      bool done = false;
      c->ReadLog(lsn, [&](Result<Bytes> got) {
        r = std::move(got);
        done = true;
      });
      ASSERT_TRUE(cluster.RunUntil([&]() { return done; }));
      ASSERT_TRUE(r.ok()) << "life " << life << " lsn " << lsn;
      EXPECT_EQ(ToString(*r), data);
    }

    // New forced work, then some unforced tail, then crash.
    const int writes = 3 + static_cast<int>(rng.NextBelow(5));
    Lsn last = kNoLsn;
    std::map<Lsn, std::string> burst;
    for (int i = 0; i < writes; ++i) {
      const std::string data =
          "life" + std::to_string(life) + "-" + std::to_string(i);
      Result<Lsn> lsn = c->WriteLog(ToBytes(data));
      ASSERT_TRUE(lsn.ok());
      burst[*lsn] = data;
      last = *lsn;
    }
    bool forced = false;
    c->ForceLog(last, [&](Status st) { forced = st.ok(); });
    ASSERT_TRUE(cluster.RunUntil([&]() { return forced; },
                                 60 * sim::kSecond));
    for (auto& [lsn, data] : burst) durable[lsn] = data;
    // Unforced records may or may not survive; they must not disturb
    // anything else.
    (void)c->WriteLog(ToBytes("unforced-a"));
    (void)c->WriteLog(ToBytes("unforced-b"));
    c->Crash();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClientRestartProperty,
                         ::testing::Range(1, 7));

}  // namespace
}  // namespace dlog
