// Unit tests for the observability subsystem: tracer semantics, the
// metrics registry and snapshot diffing, the exporters, BenchReport
// JSON, and the trace-driven invariant probes.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/bench_report.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/probes.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace dlog::obs {
namespace {

// --- Tracer ---

TEST(TracerTest, RootChildAndInstantFormATree) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  SpanContext root = tracer.StartTrace("txn", "client-1");
  sim.RunFor(5);
  SpanContext child = tracer.StartSpan("commit", "client-1", root);
  SpanContext instant = tracer.Instant("force.ack", "server-1", child);
  sim.RunFor(5);
  tracer.EndSpan(child);
  tracer.EndSpan(root);

  ASSERT_EQ(tracer.span_count(), 3u);
  const Span& r = tracer.spans()[0];
  const Span& c = tracer.spans()[1];
  const Span& i = tracer.spans()[2];
  EXPECT_EQ(r.parent, kNoSpan);
  EXPECT_EQ(c.parent, r.id);
  EXPECT_EQ(i.parent, c.id);
  EXPECT_EQ(c.trace, r.trace);
  EXPECT_EQ(i.trace, r.trace);
  EXPECT_FALSE(r.open);
  EXPECT_EQ(r.start, 0);
  EXPECT_EQ(r.end, 10);
  EXPECT_EQ(c.start, 5);
  EXPECT_EQ(c.end, 10);
  // Instants are closed, zero-length events.
  EXPECT_FALSE(i.open);
  EXPECT_EQ(i.start, i.end);
  // Dense ids: id k is spans()[k - 1]; kNoSpan and unminted ids miss.
  EXPECT_EQ(tracer.Find(instant.span), &i);
  EXPECT_EQ(tracer.Find(root.span), &r);
  EXPECT_EQ(tracer.Find(kNoSpan), nullptr);
  EXPECT_EQ(tracer.Find(instant.span + 1), nullptr);
}

TEST(TracerTest, InvalidParentDropsSubtree) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  SpanContext child = tracer.StartSpan("orphan", "n", SpanContext{});
  EXPECT_FALSE(child.valid());
  EXPECT_EQ(tracer.span_count(), 0u);
  // Operations on the invalid context are harmless no-ops.
  tracer.AddArg(child, "k", 1);
  tracer.EndSpan(child);
}

TEST(TracerTest, EndSpanIsIdempotent) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  SpanContext root = tracer.StartTrace("txn", "n");
  sim.RunFor(7);
  tracer.EndSpan(root);
  sim.RunFor(7);
  tracer.EndSpan(root);  // second close must not move the end time
  EXPECT_EQ(tracer.spans()[0].end, 7);
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  tracer.set_enabled(false);
  SpanContext root = tracer.StartTrace("txn", "n");
  EXPECT_FALSE(root.valid());
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(TracerTest, ContextStackScopes) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  EXPECT_FALSE(tracer.Current().valid());
  SpanContext root = tracer.StartTrace("txn", "n");
  {
    Tracer::Scope scope(&tracer, root);
    EXPECT_EQ(tracer.Current().span, root.span);
    {
      Tracer::Scope inner(&tracer, SpanContext{});
      EXPECT_FALSE(tracer.Current().valid());
    }
    EXPECT_EQ(tracer.Current().span, root.span);
  }
  EXPECT_FALSE(tracer.Current().valid());
  // A null tracer Scope must be safe.
  { Tracer::Scope scope(nullptr, root); }
}

TEST(TracerTest, ArgsAttachInOrder) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  SpanContext root = tracer.StartTrace("txn", "n");
  tracer.AddArg(root, "lsn", 42);
  tracer.AddArg(root, "upto", 7);
  const Span& s = tracer.spans()[0];
  ASSERT_EQ(s.args.size(), 2u);
  EXPECT_EQ(s.args[0].first, "lsn");
  EXPECT_EQ(s.args[0].second, 42u);
  EXPECT_EQ(s.args[1].first, "upto");
}

// --- MetricsRegistry ---

TEST(MetricsRegistryTest, SnapshotFlattensAllKinds) {
  sim::Simulator sim;
  sim::Counter counter;
  double ring_slots = 0;
  sim::TimeWeightedGauge twg;
  sim::Histogram hist;
  MetricsRegistry registry;
  registry.RegisterCounter("server-1/log/records_written", &counter);
  registry.RegisterCallback("server-1/net/ring_slots",
                            [&ring_slots]() { return ring_slots; });
  registry.RegisterTimeWeightedGauge("server-1/nvram/occupancy_bytes",
                                     &twg);
  registry.RegisterHistogram("client-1/log/force_latency_ms", &hist);
  EXPECT_EQ(registry.entries().size(), 4u);

  counter.Increment(3);
  ring_slots = 2;
  twg.Set(0, 10.0);
  twg.Set(9, 0.0);
  hist.Add(1.0);
  hist.Add(3.0);

  MetricsSnapshot snap = registry.Snapshot(/*now=*/10);
  EXPECT_DOUBLE_EQ(snap.Get("server-1/log/records_written"), 3.0);
  EXPECT_DOUBLE_EQ(snap.Get("server-1/net/ring_slots"), 2.0);
  EXPECT_DOUBLE_EQ(snap.Get("server-1/nvram/occupancy_bytes/avg"), 9.0);
  EXPECT_DOUBLE_EQ(snap.Get("server-1/nvram/occupancy_bytes/max"), 10.0);
  EXPECT_DOUBLE_EQ(snap.Get("client-1/log/force_latency_ms/count"), 2.0);
  EXPECT_DOUBLE_EQ(snap.Get("client-1/log/force_latency_ms/mean"), 2.0);
  EXPECT_DOUBLE_EQ(snap.Get("client-1/log/force_latency_ms/max"), 3.0);
}

TEST(MetricsRegistryTest, UnregisterPrefixDropsComponent) {
  sim::Counter a, b;
  MetricsRegistry registry;
  registry.RegisterCounter("client-1/log/x", &a);
  registry.RegisterCounter("server-1/log/y", &b);
  registry.UnregisterPrefix("client-1/");
  ASSERT_EQ(registry.entries().size(), 1u);
  EXPECT_EQ(registry.entries().begin()->first, "server-1/log/y");
}

TEST(MetricsRegistryTest, ReRegisteringReplaces) {
  sim::Counter old_counter, new_counter;
  MetricsRegistry registry;
  registry.RegisterCounter("c", &old_counter);
  new_counter.Increment(9);
  registry.RegisterCounter("c", &new_counter);
  EXPECT_EQ(registry.entries().size(), 1u);
  EXPECT_DOUBLE_EQ(registry.Snapshot(0).Get("c"), 9.0);

  // Across kinds: the counter's name re-registered as a callback leaves
  // one entry, which snapshots the callback's value, and is a change.
  const uint64_t version = registry.version();
  registry.RegisterCallback("c", []() { return 4.0; });
  EXPECT_EQ(registry.entries().size(), 1u);
  EXPECT_DOUBLE_EQ(registry.Snapshot(0).Get("c"), 4.0);
  EXPECT_GT(registry.version(), version);
}

// --- Exporters ---

TEST(ExportTest, ChromeTraceJsonShape) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  SpanContext root = tracer.StartTrace("txn", "client-1");
  tracer.AddArg(root, "txn", 1);
  sim.RunFor(1500);  // 1.5 us
  SpanContext send = tracer.StartSpan("wire.send", "client-1", root);
  tracer.EndSpan(root);
  std::string json = ChromeTraceJson(tracer);

  // Structure and both spans present; the wire.send is still open.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"txn\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"wire.send\""), std::string::npos);
  EXPECT_NE(json.find("\"open\":1"), std::string::npos);
  // Node becomes a named thread.
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("client-1"), std::string::npos);
  // Microsecond timestamps keep nanosecond precision: 1500 ns = 1.500 us.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  (void)send;
}

TEST(ExportTest, IdenticalRunsExportIdenticalBytes) {
  auto run = []() {
    sim::Simulator sim;
    Tracer tracer(&sim);
    SpanContext root = tracer.StartTrace("txn", "n");
    sim.RunFor(10);
    SpanContext child = tracer.StartSpan("commit", "n", root);
    sim.RunFor(5);
    tracer.EndSpan(child);
    tracer.EndSpan(root);
    return ChromeTraceJson(tracer);
  };
  EXPECT_EQ(run(), run());
}

// --- exporter edge cases ---

TEST(ExportTest, EmptyTraceExportsValidSkeletons) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  // The export always announces its critical-path lane, even with
  // nothing to put in it.
  EXPECT_EQ(ChromeTraceJson(tracer),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
            "\"args\":{\"name\":\"critical-path\"}}]}\n");
}

TEST(ExportTest, JsonSpecialCharactersAreEscaped) {
  // Every exporter writes two names: one with a quote and a backslash,
  // one with a control character.
  const std::string quoted = "a\"b\\c";
  const std::string newline = "node\n1";
  sim::Simulator sim;
  Tracer tracer(&sim);
  FlightRecorder recorder;
  tracer.SetFlightRecorder(&recorder);
  SpanContext root = tracer.StartTrace(quoted, newline);
  sim.RunFor(10);
  tracer.EndSpan(root);
  recorder.Dump(newline, sim.Now(), quoted);

  BenchReport report(quoted);
  report.SetConfig(newline, quoted);

  // Both names as starving clients: their series and alerts carry them.
  MetricsRegistry registry;
  TimeSeriesConfig telemetry;
  telemetry.enabled = true;
  TimeSeriesCollector collector(telemetry, &registry);
  HealthMonitor monitor(&collector);
  for (const std::string& client : {quoted, newline}) {
    registry.RegisterCallback(client + "/log/pending_records",
                              []() { return 1.0; });
    monitor.AddClientNode(client);
  }
  for (sim::Time w = 1; w <= 8; ++w) {
    collector.Sample();
    monitor.Evaluate(w * collector.interval());
  }
  ASSERT_EQ(monitor.alerts().size(), 2u);

  for (const std::string& json :
       {ChromeTraceJson(tracer),
        ChromeTraceJson(tracer, ExtractCriticalPaths(tracer)),
        FlightDumpsJson(recorder), report.ToJson(),
        TimeSeriesJson(collector), AlertsJson(monitor)}) {
    EXPECT_NE(json.find("a\\\"b\\\\c"), std::string::npos) << json;
    EXPECT_NE(json.find("node\\u000a1"), std::string::npos) << json;
    // No raw quote or newline from a name survives to break a JSON
    // string: the one raw newline ends the document.
    EXPECT_EQ(json.find("a\"b"), std::string::npos) << json;
    EXPECT_EQ(json.find('\n'), json.size() - 1) << json;
  }
}

TEST(ExportTest, LongSpanNameSurvivesWhole) {
  // Formatted text of any length is written whole.
  const std::string name(300, 'x');
  sim::Simulator sim;
  Tracer tracer(&sim);
  SpanContext root = tracer.StartTrace(name, "n");
  sim.RunFor(10);
  tracer.EndSpan(root);
  const std::vector<CriticalPath> paths = ExtractCriticalPaths(tracer);
  const std::string json = ChromeTraceJson(tracer, paths);
  EXPECT_NE(json.find("\"name\":\"" + name + "\",\"cname\""),
            std::string::npos);
  EXPECT_NE(CriticalPathText(paths).find(" " + name + " self="),
            std::string::npos);
}

TEST(ExportTest, ZeroDurationSpansExportZeroDur) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  SpanContext root = tracer.StartTrace("txn", "n");
  tracer.Instant("force.ack", "s", root);
  tracer.EndSpan(root);  // closes at its start time: zero duration
  const std::vector<CriticalPath> paths = ExtractCriticalPaths(tracer);
  const std::string json = ChromeTraceJson(tracer, paths);
  EXPECT_NE(json.find("\"dur\":0.000"), std::string::npos);
}

TEST(ExportTest, ColoredExportByteIdenticalAcrossReruns) {
  auto run = []() {
    sim::Simulator sim;
    Tracer tracer(&sim);
    SpanContext root = tracer.StartTrace("txn", "client-1");
    sim.RunFor(10);
    SpanContext send = tracer.StartSpan("wire.send", "client-1", root);
    sim.RunFor(5);
    tracer.Instant("force.ack", "server-1", send);
    tracer.EndSpan(send);
    sim.RunFor(3);
    tracer.EndSpan(root);
    return ChromeTraceJson(tracer, ExtractCriticalPaths(tracer));
  };
  const std::string first = run();
  EXPECT_NE(first.find("\"cname\""), std::string::npos);
  EXPECT_NE(first.find("dlog.critical"), std::string::npos);
  EXPECT_EQ(first, run());
}

// --- BenchReport ---

TEST(BenchReportTest, DeterministicJson) {
  BenchReport report("E0");
  report.BeginRow();
  report.SetConfig("servers", 3.0);
  report.SetConfig("design", "grouped");
  report.SetMetric("tps", 512.5);
  report.BeginRow();
  report.SetConfig("servers", 4.0);
  report.SetMetric("tps", 600.0);
  EXPECT_EQ(report.rows(), 2u);
  EXPECT_EQ(report.ToJson(),
            "{\"experiment\":\"E0\",\"rows\":["
            "{\"config\":{\"design\":\"grouped\",\"servers\":3},"
            "\"metrics\":{\"tps\":512.5}},"
            "{\"config\":{\"servers\":4},\"metrics\":{\"tps\":600}}]}\n");
}

TEST(BenchReportTest, AddSnapshotPrefixesKeys) {
  sim::Counter c;
  c.Increment(4);
  MetricsRegistry registry;
  registry.RegisterCounter("server-1/log/forces", &c);
  BenchReport report("E0");
  report.BeginRow();
  report.AddSnapshot("final/", registry.Snapshot(0));
  EXPECT_NE(report.ToJson().find("\"final/server-1/log/forces\":4"),
            std::string::npos);
}

// --- Probes ---

TEST(ProbesTest, ForceAckQuorumHoldsWithEnoughAcks) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  SpanContext root = tracer.StartTrace("txn", "client-1");
  SpanContext force = tracer.StartSpan("ForceLog", "client-1", root);
  tracer.Instant("force.ack", "server-1", force);
  tracer.Instant("force.ack", "server-2", force);
  sim.RunFor(10);
  tracer.EndSpan(force);
  tracer.EndSpan(root);
  EXPECT_TRUE(CheckForceAckQuorum(tracer, 2).empty());
  // Three distinct servers never acked.
  EXPECT_FALSE(CheckForceAckQuorum(tracer, 3).empty());
}

TEST(ProbesTest, ForceAckQuorumIgnoresOpenForces) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  SpanContext root = tracer.StartTrace("txn", "client-1");
  tracer.StartSpan("ForceLog", "client-1", root);  // never completes
  EXPECT_TRUE(CheckForceAckQuorum(tracer, 2).empty());
}

TEST(ProbesTest, ForceAckQuorumCountsDistinctServers) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  SpanContext root = tracer.StartTrace("txn", "client-1");
  SpanContext force = tracer.StartSpan("ForceLog", "client-1", root);
  // Two acks from the same server are one vote, not two.
  tracer.Instant("force.ack", "server-1", force);
  tracer.Instant("force.ack", "server-1", force);
  tracer.EndSpan(force);
  tracer.EndSpan(root);
  EXPECT_FALSE(CheckForceAckQuorum(tracer, 2).empty());
}

SpanContext BufferInstant(Tracer* tracer, const std::string& server,
                          SpanContext parent, uint64_t client, uint64_t lsn,
                          uint64_t epoch) {
  SpanContext i = tracer->Instant("nvram.buffer", server, parent);
  tracer->AddArg(i, "client", client);
  tracer->AddArg(i, "lsn", lsn);
  tracer->AddArg(i, "epoch", epoch);
  return i;
}

TEST(ProbesTest, LsnMonotonicAcceptsLegalStreams) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  SpanContext root = tracer.StartTrace("txn", "client-1");
  BufferInstant(&tracer, "server-1", root, 1, 1, 1);
  BufferInstant(&tracer, "server-1", root, 1, 2, 1);
  // New epoch may restart lsns (post-crash resend).
  BufferInstant(&tracer, "server-1", root, 1, 2, 2);
  // A different server has its own stream.
  BufferInstant(&tracer, "server-2", root, 1, 1, 1);
  tracer.EndSpan(root);
  EXPECT_TRUE(CheckLsnMonotonic(tracer).empty());
}

TEST(ProbesTest, LsnMonotonicFlagsRegression) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  SpanContext root = tracer.StartTrace("txn", "client-1");
  BufferInstant(&tracer, "server-1", root, 1, 5, 1);
  BufferInstant(&tracer, "server-1", root, 1, 5, 1);  // repeat, same epoch
  tracer.EndSpan(root);
  EXPECT_FALSE(CheckLsnMonotonic(tracer).empty());
}

TEST(ProbesTest, SpanTreeConnectedOnWellFormedTrace) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  SpanContext root = tracer.StartTrace("txn", "n");
  SpanContext child = tracer.StartSpan("commit", "n", root);
  tracer.EndSpan(child);
  tracer.EndSpan(root);
  EXPECT_TRUE(CheckSpanTreeConnected(tracer).empty());
  EXPECT_TRUE(RunAllProbes(tracer, 0).empty());
}

}  // namespace
}  // namespace dlog::obs
