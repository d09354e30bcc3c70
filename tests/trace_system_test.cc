// End-to-end tests of the tracing subsystem through the full stack:
// one ET1 transaction must export a connected causal span tree covering
// every stage from txn begin to force ack; identical (config, seed) runs
// must export byte-identical traces; and the invariant probes must hold
// over a scripted crash/restart interleaving (the E3 scenario).

#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/cluster.h"
#include "obs/export.h"
#include "obs/probes.h"
#include "obs/trace.h"
#include "tp/bank.h"
#include "tp/engine.h"
#include "tp/logger.h"
#include "tp/storage.h"

namespace dlog {
namespace {

/// A transaction-processing node with tracing attached, running serial
/// ET1 transactions (each waits for the previous commit, so exactly one
/// trace is active at a time).
struct TracedNode {
  explicit TracedNode(harness::Cluster* cluster) : cluster_(cluster) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = 1;
    log_ = cluster->AddClient(log_cfg);
    bool ready = false;
    log_->Init([&](Status st) { ready = st.ok(); });
    EXPECT_TRUE(cluster->RunUntil([&]() { return ready; }));
    logger_ = std::make_unique<tp::ReplicatedTxnLogger>(log_.get());
    page_disk_ = std::make_unique<tp::PageDisk>(1024);
    engine_ = std::make_unique<tp::TransactionEngine>(
        &cluster->sim(), logger_.get(), page_disk_.get(),
        tp::EngineConfig{});
    engine_->SetTracer(&cluster->tracer(), "client-1");
    bank_ = std::make_unique<tp::BankDb>(engine_.get(), tp::BankConfig{});
  }

  Status RunOneEt1(int i) {
    bool done = false;
    Status result = Status::Internal("pending");
    bank_->RunEt1(i % 100, i % 10, i % 5, 1, [&](Status st) {
      result = st;
      done = true;
    });
    EXPECT_TRUE(cluster_->RunUntil([&]() { return done; }));
    return result;
  }

  harness::Cluster* cluster_;
  harness::ClientHandle log_;
  std::unique_ptr<tp::ReplicatedTxnLogger> logger_;
  std::unique_ptr<tp::PageDisk> page_disk_;
  std::unique_ptr<tp::TransactionEngine> engine_;
  std::unique_ptr<tp::BankDb> bank_;
};

/// Walks parent links to the root; returns kNoSpan on a broken chain.
obs::SpanId RootOf(const std::vector<obs::Span>& spans,
                   const obs::Span& span) {
  const obs::Span* cur = &span;
  for (int guard = 0; guard < 1000; ++guard) {
    if (cur->parent == obs::kNoSpan) return cur->id;
    if (cur->parent > spans.size()) return obs::kNoSpan;
    const obs::Span& parent = spans[cur->parent - 1];
    if (parent.trace != cur->trace) return obs::kNoSpan;
    cur = &parent;
  }
  return obs::kNoSpan;
}

TEST(TraceSystemTest, Et1TransactionExportsConnectedSpanTree) {
  harness::ClusterConfig cluster_cfg;
  cluster_cfg.tracing = true;
  harness::Cluster cluster(cluster_cfg);
  TracedNode node(&cluster);

  ASSERT_TRUE(node.RunOneEt1(0).ok());
  // Let the partial-track flush timer fire so the track.write stage of
  // this transaction's records is recorded too.
  cluster.sim().RunFor(300 * sim::kMillisecond);

  const std::vector<obs::Span>& spans = cluster.tracer().spans();
  ASSERT_FALSE(spans.empty());

  // Exactly one transaction root.
  std::vector<const obs::Span*> roots;
  for (const obs::Span& s : spans) {
    if (s.name == "txn") roots.push_back(&s);
  }
  ASSERT_EQ(roots.size(), 1u);
  const obs::TraceId trace = roots[0]->trace;
  const obs::SpanId root_id = roots[0]->id;
  EXPECT_FALSE(roots[0]->open);

  // Every span belongs to that trace and reaches the root: the tree is
  // connected across client, wire, and all three servers.
  std::set<std::string> stages;
  std::set<std::string> nodes;
  for (const obs::Span& s : spans) {
    EXPECT_EQ(s.trace, trace) << s.name;
    EXPECT_EQ(RootOf(spans, s), root_id) << s.name;
    stages.insert(s.name);
    nodes.insert(s.node);
  }
  for (const char* stage :
       {"txn", "wal.group", "ForceLog", "commit", "wire.send",
        "nvram.buffer", "track.write", "force.ack"}) {
    EXPECT_TRUE(stages.count(stage)) << "missing stage " << stage;
  }
  // The trace crosses the wire: client plus at least two ack'ing servers.
  EXPECT_TRUE(nodes.count("client-1"));
  EXPECT_GE(nodes.size(), 3u);

  // The exporter renders it, and the structural probe agrees.
  std::string json = obs::ChromeTraceJson(cluster.tracer());
  for (const char* stage : {"txn", "ForceLog", "track.write"}) {
    EXPECT_NE(json.find(stage), std::string::npos);
  }
  EXPECT_TRUE(obs::CheckSpanTreeConnected(cluster.tracer()).empty());
}

std::string RunDeterministicWorkload() {
  harness::ClusterConfig cluster_cfg;
  cluster_cfg.tracing = true;
  cluster_cfg.seed = 7;
  harness::Cluster cluster(cluster_cfg);
  TracedNode node(&cluster);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(node.RunOneEt1(i).ok());
  }
  cluster.sim().RunFor(300 * sim::kMillisecond);
  return obs::ChromeTraceJson(cluster.tracer());
}

TEST(TraceSystemTest, SameConfigAndSeedExportByteIdenticalTraces) {
  const std::string first = RunDeterministicWorkload();
  const std::string second = RunDeterministicWorkload();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(TraceSystemTest, ProbesHoldAcrossScriptedCrashInterleaving) {
  // The E3 recovery scenario: a server crashes mid-stream, the client
  // keeps committing against the surviving pair, the server restarts and
  // catches up, then a second server takes its turn crashing.
  harness::ClusterConfig cluster_cfg;
  cluster_cfg.tracing = true;
  cluster_cfg.seed = 11;
  harness::Cluster cluster(cluster_cfg);
  TracedNode node(&cluster);

  int committed = 0;
  for (int i = 0; i < 24; ++i) {
    if (i == 4) cluster.server(1).Crash();
    if (i == 10) cluster.server(1).Restart();
    if (i == 14) cluster.server(2).Crash();
    if (i == 20) cluster.server(2).Restart();
    if (node.RunOneEt1(i).ok()) ++committed;
  }
  // With two of three servers always up, every commit must go through.
  EXPECT_EQ(committed, 24);
  cluster.sim().RunFor(300 * sim::kMillisecond);

  // Every committed transaction was acked by >= 2 servers before its
  // ForceLog completed; per-server record streams stayed monotonic; the
  // exported forest is structurally sound.
  std::vector<std::string> violations =
      obs::RunAllProbes(cluster.tracer(), /*quorum=*/2);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: " << violations[0];
}

}  // namespace
}  // namespace dlog
