// Tests for the live telemetry layer: the streaming histogram the
// per-window quantiles ride on, the TimeSeriesCollector's sparse
// delta-encoded series (reset clamping, retention, sample-and-hold
// levels), the HealthMonitor rules and their hysteresis, the flight
// recorder rings, and the end-to-end determinism gate — series and
// alert exports byte-identical across TrialRunner thread counts.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/fault_plan.h"
#include "client/log_client.h"
#include "harness/cluster.h"
#include "harness/et1_driver.h"
#include "harness/trial_runner.h"
#include "obs/flight.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace dlog::obs {
namespace {

using sim::StreamingHistogram;

// --- StreamingHistogram ---

TEST(StreamingHistogramTest, BucketBoundsRoundTrip) {
  // Every value maps into a bucket whose [low, high] range contains it,
  // across the linear region, the log-linear region, and saturation.
  const uint64_t probes[] = {0,    1,     15,     16,     17,   100,
                             1000, 12345, 1 << 20, 1ull << 39};
  for (uint64_t v : probes) {
    const size_t b = StreamingHistogram::BucketIndex(v);
    EXPECT_LE(StreamingHistogram::BucketLow(b), v) << v;
    EXPECT_GE(StreamingHistogram::BucketHigh(b), v) << v;
  }
  // Saturation: everything at or past kMaxValue lands in the top bucket.
  EXPECT_EQ(StreamingHistogram::BucketIndex(StreamingHistogram::kMaxValue),
            StreamingHistogram::kNumBuckets - 1);
  EXPECT_EQ(StreamingHistogram::BucketIndex(UINT64_MAX),
            StreamingHistogram::kNumBuckets - 1);
}

TEST(StreamingHistogramTest, OccupiedRangeTracksRecordsAndMerge) {
  StreamingHistogram h;
  EXPECT_GT(h.bucket_lo(), h.bucket_hi());  // empty: inverted range
  h.Record(100);
  h.Record(5000);
  const size_t lo = StreamingHistogram::BucketIndex(100);
  const size_t hi = StreamingHistogram::BucketIndex(5000);
  EXPECT_EQ(h.bucket_lo(), lo);
  EXPECT_EQ(h.bucket_hi(), hi);

  StreamingHistogram wider;
  wider.Record(3);
  wider.Record(1 << 20);
  h.Merge(wider);
  EXPECT_EQ(h.bucket_lo(), StreamingHistogram::BucketIndex(3));
  EXPECT_EQ(h.bucket_hi(), StreamingHistogram::BucketIndex(1 << 20));
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), uint64_t{1} << 20);

  h.Clear();
  EXPECT_GT(h.bucket_lo(), h.bucket_hi());
  EXPECT_EQ(h.count(), 0u);
}

TEST(StreamingHistogramTest, QuantilesClampToExactExtremes) {
  StreamingHistogram h;
  h.Record(777);
  // A single sample reads exactly, at every quantile, despite bucketing.
  EXPECT_EQ(h.Percentile(0.0), 777.0);
  EXPECT_EQ(h.Percentile(0.5), 777.0);
  EXPECT_EQ(h.Percentile(1.0), 777.0);
  // A quantile landing in the saturated top bucket stays within the
  // exact recorded extremes.
  h.Record(StreamingHistogram::kMaxValue * 2);
  const double top = h.Percentile(1.0);
  EXPECT_GE(top, static_cast<double>(StreamingHistogram::BucketLow(
                     StreamingHistogram::kNumBuckets - 1)));
  EXPECT_LE(top, static_cast<double>(StreamingHistogram::kMaxValue * 2));
  // Alone in the histogram, a saturated value reads back exactly (the
  // min/max clamp).
  StreamingHistogram only;
  only.Record(StreamingHistogram::kMaxValue * 2);
  EXPECT_EQ(only.Percentile(0.5),
            static_cast<double>(StreamingHistogram::kMaxValue * 2));
}

TEST(StreamingHistogramTest, PercentileFromCountsHonorsStartHint) {
  StreamingHistogram h;
  h.Record(100, 50);
  h.Record(5000, 50);
  const auto& b = h.buckets();
  const double no_hint = StreamingHistogram::PercentileFromCounts(
      b.data(), b.size(), h.count(), 0.9);
  const double hinted = StreamingHistogram::PercentileFromCounts(
      b.data(), b.size(), h.count(), 0.9, h.bucket_lo());
  EXPECT_EQ(no_hint, hinted);  // the hint is a pure optimization
  EXPECT_GE(hinted, 4000.0);   // p90 sits in the 5000 bucket
}

TEST(StreamingHistogramTest, SelfMergeDoublesCounts) {
  StreamingHistogram h;
  h.Record(10, 3);
  h.Merge(h);
  EXPECT_EQ(h.count(), 6u);
}

// --- Exact Histogram hardening ---

TEST(HistogramTest, SelfMergeDoublesEverySample) {
  sim::Histogram h;
  h.Add(1.0);
  h.Add(2.0);
  h.Merge(h);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 6.0);
}

TEST(HistogramTest, PercentileInterpolatesBetweenRanks) {
  sim::Histogram h;
  h.Add(1.0);
  h.Add(2.0);
  EXPECT_EQ(h.Percentile(0.5), 1.5);
  EXPECT_EQ(h.Percentile(0.0), 1.0);
  EXPECT_EQ(h.Percentile(1.0), 2.0);
  sim::Histogram empty;
  EXPECT_EQ(empty.Percentile(0.5), 0.0);
  empty.Merge(h);  // merge into empty works
  EXPECT_EQ(empty.count(), 2u);
}

// --- TimeSeriesCollector unit ---

TimeSeriesConfig UnitConfig() {
  TimeSeriesConfig cfg;
  cfg.enabled = true;
  cfg.interval = 1 * sim::kSecond;
  return cfg;
}

TEST(TimeSeriesConfigTest, ValidateRejectsBadValues) {
  TimeSeriesConfig cfg = UnitConfig();
  EXPECT_TRUE(cfg.Validate().ok());
  cfg.interval = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = UnitConfig();
  cfg.retention_windows = 0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = UnitConfig();
  cfg.aggregate_streaming.assign(33, "x");
  EXPECT_FALSE(cfg.Validate().ok());
  // Disabled configs are not validated (nothing will run).
  cfg.enabled = false;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(TimeSeriesCollectorTest, CounterDeltasAreSparse) {
  MetricsRegistry reg;
  sim::Counter c;
  reg.RegisterCounter("n/ops", &c);
  TimeSeriesCollector col(UnitConfig(), &reg);

  c.Increment(5);
  col.Sample(1 * sim::kSecond);
  c.Increment(3);
  col.Sample(2 * sim::kSecond);
  col.Sample(3 * sim::kSecond);  // idle: nothing stored
  col.Sample(4 * sim::kSecond);  // idle
  c.Increment(7);
  col.Sample(5 * sim::kSecond);

  EXPECT_EQ(col.windows(), 5u);
  EXPECT_EQ(col.At("n/ops", 1), 5.0);
  EXPECT_EQ(col.At("n/ops", 2), 3.0);
  EXPECT_EQ(col.At("n/ops", 3), 0.0);  // gap-filled zero
  EXPECT_EQ(col.At("n/ops", 4), 0.0);
  EXPECT_EQ(col.At("n/ops", 5), 7.0);
  EXPECT_EQ(col.Latest("n/ops"), 7.0);
  // Unknown keys read the fallback.
  EXPECT_EQ(col.At("n/nope", 1, -1.0), -1.0);
}

TEST(TimeSeriesCollectorTest, LevelsSampleAndHold) {
  MetricsRegistry reg;
  sim::Gauge g;
  reg.RegisterGauge("n/depth", &g);
  TimeSeriesCollector col(UnitConfig(), &reg);

  g.Set(4);
  col.Sample(1 * sim::kSecond);
  col.Sample(2 * sim::kSecond);  // unchanged: not stored
  g.Set(9);
  col.Sample(3 * sim::kSecond);

  EXPECT_EQ(col.At("n/depth", 1), 4.0);
  EXPECT_EQ(col.At("n/depth", 2), 4.0);  // held, not zero
  EXPECT_EQ(col.At("n/depth", 3), 9.0);
  // Past the last change a level keeps reading the held value...
  col.Sample(4 * sim::kSecond);
  EXPECT_EQ(col.At("n/depth", 4), 9.0);
  // ...while a rate series would read zero (see CounterDeltasAreSparse).
}

TEST(TimeSeriesCollectorTest, ReRegisteredCounterResetClamps) {
  MetricsRegistry reg;
  auto first = std::make_unique<sim::Counter>();
  reg.RegisterCounter("n/ops", first.get());
  TimeSeriesCollector col(UnitConfig(), &reg);

  first->Increment(100);
  col.Sample(1 * sim::kSecond);
  EXPECT_EQ(col.At("n/ops", 1), 100.0);

  // Component restart: a fresh counter replaces the old name. The new
  // reading (7) is below the previous one (100); the delta must clamp
  // to the new absolute value, not wrap to a huge or negative number.
  sim::Counter second;
  first.reset();
  reg.RegisterCounter("n/ops", &second);
  second.Increment(7);
  col.Sample(2 * sim::kSecond);
  EXPECT_EQ(col.At("n/ops", 2), 7.0);
}

TEST(TimeSeriesCollectorTest, RetentionEvictsOldWindows) {
  MetricsRegistry reg;
  sim::Counter c;
  reg.RegisterCounter("n/ops", &c);
  TimeSeriesConfig cfg = UnitConfig();
  cfg.retention_windows = 2;
  TimeSeriesCollector col(cfg, &reg);

  for (int w = 1; w <= 3; ++w) {
    c.Increment(static_cast<uint64_t>(w) * 10);
    col.Sample(w * sim::kSecond);
  }
  EXPECT_EQ(col.At("n/ops", 1, -1.0), -1.0);  // evicted
  EXPECT_EQ(col.At("n/ops", 2), 20.0);
  EXPECT_EQ(col.At("n/ops", 3), 30.0);
  // The JSON export starts at the first retained window.
  const std::string json = TimeSeriesJson(col);
  EXPECT_NE(json.find("\"first_window\":2"), std::string::npos);
}

TEST(TimeSeriesCollectorTest, StreamQuantilesPerWindowAndRestart) {
  MetricsRegistry reg;
  auto first = std::make_unique<StreamingHistogram>();
  reg.RegisterStreamingHistogram("c1/log/force_latency_us", first.get());
  TimeSeriesCollector col(UnitConfig(), &reg);

  for (int i = 0; i < 10; ++i) first->Record(100);
  col.Sample(1 * sim::kSecond);
  EXPECT_EQ(col.At("c1/log/force_latency_us/count", 1), 10.0);
  // Windowed quantiles interpolate inside the landing bucket: within
  // the histogram's 1/16 relative resolution of the exact value.
  EXPECT_NEAR(col.At("c1/log/force_latency_us/p99", 1), 100.0, 100.0 / 16);
  // The default aggregate follows the per-node stream.
  EXPECT_EQ(col.At("cluster/log/force_latency_us/count", 1), 10.0);
  EXPECT_NEAR(col.At("cluster/log/force_latency_us/p99", 1), 100.0,
              100.0 / 16);

  // Quiet window: no quantile values stored, reads fall back to zero.
  col.Sample(2 * sim::kSecond);
  EXPECT_EQ(col.At("c1/log/force_latency_us/p99", 2), 0.0);
  EXPECT_EQ(col.At("cluster/log/force_latency_us/count", 2), 0.0);

  // Restart: a fresh histogram under the same name, with *fewer* counts
  // than the previous reading and different occupied buckets. The
  // window delta must be the new histogram's own counts — stale prev
  // buckets from the old object must not bleed in.
  StreamingHistogram second;
  first.reset();
  reg.RegisterStreamingHistogram("c1/log/force_latency_us", &second);
  for (int i = 0; i < 4; ++i) second.Record(9000);
  col.Sample(3 * sim::kSecond);
  EXPECT_EQ(col.At("c1/log/force_latency_us/count", 3), 4.0);
  const double p99 = col.At("c1/log/force_latency_us/p99", 3);
  EXPECT_NEAR(p99, 9000.0, 9000.0 * 0.07);  // bucket resolution
}

TEST(TimeSeriesCollectorTest, ExcludedPrefixesAreNotSampled) {
  MetricsRegistry reg;
  sim::Counter sampled;
  reg.RegisterCounter("n/ops", &sampled);
  // Process-wide values (shared across concurrent trials) must stay out
  // of the deterministic series.
  reg.RegisterCallback("process/bytes_copied", []() { return 123.0; });
  TimeSeriesCollector col(UnitConfig(), &reg);
  sampled.Increment(1);
  col.Sample(1 * sim::kSecond);
  EXPECT_EQ(col.At("n/ops", 1), 1.0);
  EXPECT_EQ(col.At("process/bytes_copied", 1, -1.0), -1.0);
  EXPECT_EQ(col.series_index().count("process/bytes_copied"), 0u);
}

TEST(TimeSeriesCollectorTest, RegistryVersionGatesReEnumeration) {
  MetricsRegistry reg;
  sim::Counter c;
  reg.RegisterCounter("n/ops", &c);
  const uint64_t v = reg.version();
  // Idempotent re-registration of the identical entry: no version bump,
  // so a component registering twice between windows cannot churn the
  // collector's cached slots.
  reg.RegisterCounter("n/ops", &c);
  EXPECT_EQ(reg.version(), v);
  sim::Counter other;
  reg.RegisterCounter("n/ops", &other);
  EXPECT_GT(reg.version(), v);
}

// --- HealthMonitor rules ---

struct HealthRig {
  MetricsRegistry reg;
  sim::Counter busy_a, busy_b;
  std::unique_ptr<TimeSeriesCollector> col;
  std::unique_ptr<HealthMonitor> mon;

  explicit HealthRig(HealthConfig hcfg) {
    reg.RegisterCounter("a/cpu/busy_ns", &busy_a);
    reg.RegisterCounter("b/cpu/busy_ns", &busy_b);
    col = std::make_unique<TimeSeriesCollector>(UnitConfig(), &reg);
    hcfg.enabled = true;
    mon = std::make_unique<HealthMonitor>(hcfg, col.get());
    mon->AddServerNode("a");
    mon->AddServerNode("b");
  }

  void Window(uint64_t a_busy_ns, uint64_t b_busy_ns) {
    busy_a.Increment(a_busy_ns);
    busy_b.Increment(b_busy_ns);
    const sim::Time edge =
        static_cast<sim::Time>(col->windows() + 1) * sim::kSecond;
    col->Sample(edge);
    mon->Evaluate(edge);
  }
};

TEST(HealthMonitorTest, ImbalanceFiresWithHysteresisAndClears) {
  HealthConfig hcfg;
  hcfg.imbalance_cv_threshold = 0.5;
  hcfg.imbalance_min_mean_util = 0.05;
  hcfg.fire_windows = 2;
  hcfg.clear_windows = 2;
  HealthRig rig(hcfg);

  // Skewed: a=0.5 util, b=0.1 -> cv ~ 0.667 > 0.5. One breach window is
  // absorbed by hysteresis...
  rig.Window(500'000'000, 100'000'000);
  EXPECT_TRUE(rig.mon->alerts().empty());
  // ...the second raises.
  rig.Window(500'000'000, 100'000'000);
  ASSERT_EQ(rig.mon->alerts().size(), 1u);
  EXPECT_EQ(rig.mon->alerts()[0].rule, "imbalance");
  EXPECT_TRUE(rig.mon->alerts()[0].fired);
  EXPECT_EQ(rig.mon->active_alerts(), 1u);

  // Balanced again: clears only after clear_windows quiet windows.
  rig.Window(300'000'000, 300'000'000);
  EXPECT_EQ(rig.mon->alerts().size(), 1u);
  rig.Window(300'000'000, 300'000'000);
  ASSERT_EQ(rig.mon->alerts().size(), 2u);
  EXPECT_FALSE(rig.mon->alerts()[1].fired);
  EXPECT_EQ(rig.mon->active_alerts(), 0u);
}

TEST(HealthMonitorTest, ImbalanceQuietBelowMeanUtilFloor) {
  HealthConfig hcfg;
  hcfg.imbalance_cv_threshold = 0.5;
  hcfg.imbalance_min_mean_util = 0.05;
  hcfg.fire_windows = 1;
  HealthRig rig(hcfg);
  // Perfectly skewed but nearly idle: mean util 0.0005 is under the
  // floor, so the trivially-high CV must not fire.
  for (int i = 0; i < 4; ++i) rig.Window(1'000'000, 0);
  EXPECT_TRUE(rig.mon->alerts().empty());
  EXPECT_EQ(rig.mon->imbalance_cv_history().size(), 4u);
  EXPECT_EQ(rig.mon->imbalance_cv_history()[0], 0.0);
}

TEST(HealthMonitorTest, SloBurnNeedsMinForces) {
  MetricsRegistry reg;
  StreamingHistogram lat;
  reg.RegisterStreamingHistogram("c1/log/force_latency_us", &lat);
  TimeSeriesCollector col(UnitConfig(), &reg);
  HealthConfig hcfg;
  hcfg.enabled = true;
  hcfg.slo_force_p99_us = 1000.0;
  hcfg.slo_min_forces = 4;
  hcfg.fire_windows = 1;
  HealthMonitor mon(hcfg, &col);

  // Slow forces, but below the sample floor: no judgment.
  lat.Record(50'000, 2);
  col.Sample(1 * sim::kSecond);
  mon.Evaluate(1 * sim::kSecond);
  EXPECT_TRUE(mon.alerts().empty());

  // Enough slow forces: fires.
  lat.Record(50'000, 8);
  col.Sample(2 * sim::kSecond);
  mon.Evaluate(2 * sim::kSecond);
  ASSERT_EQ(mon.alerts().size(), 1u);
  EXPECT_EQ(mon.alerts()[0].rule, "slo_burn");
}

TEST(HealthMonitorTest, StarvationWatchesPendingWithoutProgress) {
  MetricsRegistry reg;
  sim::Gauge pending;
  sim::Counter forces;
  reg.RegisterGauge("c1/log/pending_records", &pending);
  reg.RegisterCounter("c1/log/forces_completed", &forces);
  TimeSeriesCollector col(UnitConfig(), &reg);
  HealthConfig hcfg;
  hcfg.enabled = true;
  hcfg.starvation_windows = 2;
  hcfg.fire_windows = 1;  // starvation uses its own window count
  HealthMonitor mon(hcfg, &col);
  mon.AddClientNode("c1");

  auto window = [&](sim::Time w) {
    col.Sample(w * sim::kSecond);
    mon.Evaluate(w * sim::kSecond);
  };

  // Stuck: records pending, no force completes, for 2 windows -> fires.
  pending.Set(12);
  window(1);
  EXPECT_TRUE(mon.alerts().empty());
  window(2);
  ASSERT_EQ(mon.alerts().size(), 1u);
  EXPECT_EQ(mon.alerts()[0].rule, "starvation");
  EXPECT_EQ(mon.alerts()[0].subject, "c1");

  // Progress resumes; the alert clears after clear_windows.
  for (sim::Time w = 3; mon.active_alerts() > 0 && w < 10; ++w) {
    forces.Increment(1);
    window(w);
  }
  EXPECT_EQ(mon.active_alerts(), 0u);
}

TEST(HealthConfigTest, ValidateRejectsBadHysteresis) {
  HealthConfig hcfg;
  hcfg.enabled = true;
  EXPECT_TRUE(hcfg.Validate().ok());
  hcfg.fire_windows = 0;
  EXPECT_FALSE(hcfg.Validate().ok());
  hcfg = HealthConfig{};
  hcfg.enabled = true;
  hcfg.imbalance_cv_threshold = -1;
  EXPECT_FALSE(hcfg.Validate().ok());
}

// --- Flight recorder ---

Span MakeSpan(uint64_t id, std::string_view node) {
  Span s;
  s.trace = 1;
  s.id = id;
  s.name = "op";
  s.node = std::string(node);
  s.start = id;
  s.end = id + 1;
  s.open = false;
  return s;
}

TEST(FlightRecorderTest, RingKeepsNewestAndDumpsChronologically) {
  FlightRecorderConfig cfg;
  cfg.ring_spans = 4;
  FlightRecorder rec(cfg);
  for (uint64_t id = 1; id <= 10; ++id) rec.Record(MakeSpan(id, "n1"));
  EXPECT_EQ(rec.RingSize("n1"), 4u);

  rec.Dump("n1", 99, "test");
  ASSERT_EQ(rec.dumps().size(), 1u);
  const auto& d = rec.dumps()[0];
  EXPECT_EQ(d.spans_recorded, 10u);  // total ever, not just retained
  ASSERT_EQ(d.spans.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(d.spans[i].id, 7 + i);  // oldest retained first
  }

  // A node that never recorded still dumps (empty), so a crash on an
  // idle node is visible in the artifact.
  rec.Dump("ghost", 100, "test");
  ASSERT_EQ(rec.dumps().size(), 2u);
  EXPECT_EQ(rec.dumps()[1].spans_recorded, 0u);
  EXPECT_TRUE(rec.dumps()[1].spans.empty());
}

TEST(FlightRecorderTest, TracerRingModeFeedsRecorderWhenDisabled) {
  sim::Simulator sim;
  Tracer tracer(&sim);
  tracer.set_enabled(false);
  FlightRecorder rec(FlightRecorderConfig{});
  tracer.SetFlightRecorder(&rec);
  EXPECT_TRUE(tracer.active());  // ring mode counts as active

  SpanContext root = tracer.StartTrace("probe", "c1");
  ASSERT_TRUE(root.valid());
  tracer.AddArg(root, "k", 7);
  sim.RunFor(5);
  tracer.EndSpan(root);

  // The span reached the ring, closed, with its arg — and the full span
  // log stayed empty (tracing is off).
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_EQ(rec.RingSize("c1"), 1u);
  rec.Dump("c1", 5, "test");
  const Span& s = rec.dumps()[0].spans[0];
  EXPECT_EQ(s.name, "probe");
  EXPECT_EQ(s.end, 5u);
  ASSERT_EQ(s.args.size(), 1u);
  EXPECT_EQ(s.args[0].second, 7u);
}

// --- Cluster integration: chaos restart + telemetry regression ---

Status InitClient(harness::Cluster& cluster, client::LogClient& c) {
  Status result = Status::TimedOut("init never completed");
  bool done = false;
  c.Init([&](Status s) {
    result = s;
    done = true;
  });
  cluster.RunUntil([&]() { return done; }, 30 * sim::kSecond);
  return result;
}

TEST(ClusterTelemetryTest, SurvivesClientCrashRestartWithoutWraparound) {
  harness::ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.telemetry.enabled = true;
  cfg.telemetry.interval = 250 * sim::kMillisecond;
  harness::Cluster cluster(cfg);
  harness::ClientHandle c = cluster.AddClient();
  ASSERT_TRUE(InitClient(cluster, *c).ok());

  auto write_some = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Result<Lsn> lsn = c->WriteLog(ToBytes("r" + std::to_string(i)));
      if (!lsn.ok()) continue;
      bool forced = false;
      c->ForceLog(*lsn, [&](Status) { forced = true; });
      cluster.RunUntil([&]() { return forced; }, 1 * sim::kSecond);
    }
  };
  write_some(8);

  chaos::FaultPlan plan;
  plan.CrashClient(cluster.Now() + 100 * sim::kMillisecond, 0)
      .RestartClient(cluster.Now() + 600 * sim::kMillisecond, 0);
  cluster.chaos().Execute(plan);
  cluster.RunFor(1 * sim::kSecond);
  ASSERT_TRUE(c->IsUp());
  ASSERT_TRUE(InitClient(cluster, *c).ok());
  write_some(8);
  cluster.RunFor(1 * sim::kSecond);

  // The restarted client re-registered fresh counters under the same
  // names; every windowed delta must stay a sane per-window magnitude —
  // a missed reset would show up as a ~2^64 wraparound value.
  const TimeSeriesCollector* col = cluster.telemetry();
  ASSERT_GT(col->windows(), 8u);
  size_t checked = 0;
  for (const auto& [name, index] : col->series_index()) {
    const auto& s = col->series_at(index);
    for (double v : s.values) {
      ASSERT_LT(std::abs(v), 1e15) << name;
    }
    checked += s.values.size();
  }
  EXPECT_GT(checked, 0u);
  // And the client's committed work from both lives is visible.
  EXPECT_GT(col->Latest("client-1/log/forces_completed", 0.0), 0.0);
}

// --- End-to-end determinism across trial thread counts ---

struct MiniRun {
  std::string series;
  std::string alerts;
  uint64_t committed = 0;
};

// A scaled-down E18 skewed scenario: every client hits servers {1,2,3}
// of 4, so the imbalance signal is live while the run stays fast.
MiniRun MiniE18() {
  const int clients = 6, servers = 4;
  harness::ClusterConfig cfg;
  cfg.num_servers = servers;
  cfg.run_until_quantum = sim::kMillisecond;
  cfg.telemetry.enabled = true;
  cfg.telemetry.interval = 250 * sim::kMillisecond;
  cfg.health.enabled = true;
  cfg.health.imbalance_min_mean_util = 1e-4;
  cfg.health.fire_windows = 2;
  harness::Cluster cluster(cfg);

  std::vector<std::unique_ptr<harness::Et1Driver>> drivers;
  for (int i = 0; i < clients; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = static_cast<ClientId>(i + 1);
    for (int j = 0; j < 3; ++j) {
      log_cfg.servers.push_back(static_cast<net::NodeId>(j + 1));
    }
    log_cfg.generator_reps = log_cfg.servers;
    log_cfg.seed = 500 + static_cast<uint64_t>(i);
    harness::Et1DriverConfig driver_cfg;
    driver_cfg.tps = 20.0;
    driver_cfg.seed = 5000 + static_cast<uint64_t>(i);
    driver_cfg.max_log_backlog = 32;
    drivers.push_back(std::make_unique<harness::Et1Driver>(
        &cluster, log_cfg, driver_cfg));
  }
  for (int i = 0; i < clients; ++i) {
    harness::Et1Driver* d = drivers[static_cast<size_t>(i)].get();
    cluster.client_scheduler(i).At(
        static_cast<sim::Time>(i) * 100 * sim::kMillisecond,
        [d]() { d->Start(); });
  }
  MiniRun r;
  if (!cluster.RunUntil(harness::AllStarted(drivers), 30 * sim::kSecond)) {
    return r;
  }
  cluster.RunFor(3 * sim::kSecond);
  r.series = TimeSeriesJson(*cluster.telemetry());
  r.alerts = AlertsJson(*cluster.health());
  for (auto& d : drivers) r.committed += d->committed();
  return r;
}

TEST(TelemetryDeterminismTest, TrialRunnerThreadCountInvariant) {
  // The same two trials through 1 and 4 runner threads: per-trial
  // exports must be identical — concurrency changes wall-clock only.
  auto trial = [](size_t) { return MiniE18(); };
  const auto one = harness::TrialRunner(1).Run(2, trial);
  const auto four = harness::TrialRunner(4).Run(2, trial);
  ASSERT_EQ(one.size(), four.size());
  for (size_t i = 0; i < one.size(); ++i) {
    ASSERT_FALSE(one[i].series.empty());
    ASSERT_GT(one[i].committed, 0u);
    // The skewed placement must actually trip the monitor, otherwise the
    // alert-sequence comparison is vacuous.
    EXPECT_NE(one[i].alerts.find("\"imbalance\""), std::string::npos);
    EXPECT_EQ(one[i].series, four[i].series) << i;
    EXPECT_EQ(one[i].alerts, four[i].alerts) << i;
    EXPECT_EQ(one[i].committed, four[i].committed) << i;
  }
  // Trials are independent reruns of one config: identical output.
  EXPECT_EQ(one[0].series, one[1].series);
}

}  // namespace
}  // namespace dlog::obs
