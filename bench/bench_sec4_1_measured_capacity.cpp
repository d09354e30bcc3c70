// Experiment E15 — measured capacity: the Section 4.1 closed forms
// cross-checked against the resources' exact busy accounts.
//
// A fixed 50-client fleet sweeps its per-client ET1 rate from light
// load up past the saturation knee (the dual 10 Mbit LANs give out
// first). At every point each resource's utilization over the
// post-warmup window is the difference of two readings of its busy
// account (sim::BusyElapsed), and the analytic model
// (analysis::ComputeCapacity) predicts the same quantities from the
// offered load. Below the knee the two must agree
// within +/-0.05 absolute and the committed rate must track the
// offered rate within 5%; the binary exits nonzero otherwise, which is
// what lets CI gate on it.
//
// A second, small trace-capture run exports the colored Chrome trace
// with the extracted critical-path lane (E15_trace.json) and prints
// the per-force latency attribution -- the profiler walkthrough the
// README documents. It also runs the trace invariant probes (every
// ForceLog acknowledged by N servers before it completes, each server's
// per-client LSN stream monotonic, every span's parent recorded) and
// exits nonzero on any violation.
//
// Usage: bench_sec4_1_measured_capacity [seed]
// The seed (default 1) feeds every cluster and ET1 driver the bench
// builds; the default reproduces the committed baseline.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/capacity.h"
#include "harness/cluster.h"
#include "harness/et1_driver.h"
#include "obs/bench_report.h"
#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/probes.h"
#include "obs/profiler.h"

namespace {

using namespace dlog;

constexpr int kClients = 50;
constexpr int kServers = 6;
constexpr int kNetworks = 2;
constexpr int kMeasureSeconds = 10;
/// Below the knee, |measured - predicted| utilization must stay within
/// this absolute tolerance, and TPS within 5% of offered.
constexpr double kUtilTolerance = 0.05;
constexpr double kTpsTolerance = 0.05;
/// A point counts as below the knee when every predicted utilization
/// is under this fraction; beyond it queueing (open-loop) makes the
/// closed forms inapplicable by design.
constexpr double kKneeFraction = 0.8;

struct Point {
  double tps_per_client = 0;
  double offered = 0;
  double tps = 0;
  // Measured over the post-warmup window (busy accounts).
  double cpu_util = 0;   // mean across servers
  double disk_util = 0;  // mean across servers
  double net_util = 0;   // mean across LANs
  double nvram_avg_bytes = 0;
  double nvram_max_bytes = 0;
  double force_p95_ms = 0;
  // Predicted by the Section 4.1 closed forms at this offered load.
  double pred_cpu = 0;
  double pred_disk = 0;
  double pred_net = 0;
  bool below_knee = false;
  bool ok = true;
};

/// One reading, at one instant, of every account the sweep measures:
/// per server the busy time its CPU and disk arm have elapsed and its
/// NVRAM level × time integral, and per LAN the medium's elapsed busy
/// time. A window's figures are differences of two readings.
struct Accounts {
  std::vector<sim::Duration> cpu_busy, disk_busy, net_busy;
  std::vector<double> nvram_integral;
};

Accounts ReadAccounts(harness::Cluster& cluster) {
  const sim::Time now = cluster.sim().Now();
  Accounts a;
  for (int s = 1; s <= kServers; ++s) {
    server::LogServer& server = cluster.server(s);
    a.cpu_busy.push_back(sim::BusyElapsed(
        server.cpu().busy_ns().value(), server.cpu().busy_until(), now));
    a.disk_busy.push_back(sim::BusyElapsed(
        server.disk().busy_time(), server.disk().busy_until(), now));
    a.nvram_integral.push_back(server.nvram_occupancy().Integral(now));
  }
  for (int n = 0; n < kNetworks; ++n) {
    const net::Network& network = cluster.network(n);
    a.net_busy.push_back(sim::BusyElapsed(network.busy_time(),
                                          network.busy_until(), now));
  }
  return a;
}

Point RunPoint(double tps_per_client, uint64_t seed) {
  Point p;
  p.tps_per_client = tps_per_client;
  p.offered = kClients * tps_per_client;

  harness::ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = kServers;
  cluster_cfg.num_networks = kNetworks;
  cluster_cfg.server.cpu_mips = 4.0;
  // A one-second flush interval makes full-track writes dominate, the
  // regime the closed-form disk model assumes; the NVRAM buffer is
  // sized so a second of peak log volume never triggers shedding.
  cluster_cfg.server.flush_interval = 1 * sim::kSecond;
  cluster_cfg.server.nvram_bytes = 1024 * 1024;
  cluster_cfg.seed = seed;
  harness::Cluster cluster(cluster_cfg);

  std::vector<std::unique_ptr<harness::Et1Driver>> drivers;
  for (int i = 0; i < kClients; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = static_cast<ClientId>(i + 1);
    harness::Et1DriverConfig driver_cfg;
    driver_cfg.tps = tps_per_client;
    driver_cfg.seed = 1500 + 1000 * (seed - 1) + i;
    drivers.push_back(std::make_unique<harness::Et1Driver>(
        &cluster, log_cfg, driver_cfg));
    drivers.back()->Start();
  }

  // Warm up through initialization traffic, then measure a clean window.
  cluster.sim().RunFor(2 * sim::kSecond);
  const sim::Time window_start = cluster.sim().Now();
  const Accounts before = ReadAccounts(cluster);
  uint64_t committed_before = 0;
  for (auto& d : drivers) committed_before += d->committed();

  cluster.sim().RunFor(kMeasureSeconds * sim::kSecond);
  const sim::Time window_end = cluster.sim().Now();
  const Accounts after = ReadAccounts(cluster);

  uint64_t committed = 0;
  for (auto& d : drivers) committed += d->committed();
  p.tps = static_cast<double>(committed - committed_before) /
          kMeasureSeconds;

  const double window = static_cast<double>(window_end - window_start);
  for (int s = 0; s < kServers; ++s) {
    p.cpu_util +=
        static_cast<double>(after.cpu_busy[s] - before.cpu_busy[s]) / window;
    p.disk_util +=
        static_cast<double>(after.disk_busy[s] - before.disk_busy[s]) /
        window;
    p.nvram_avg_bytes +=
        (after.nvram_integral[s] - before.nvram_integral[s]) / window;
    p.nvram_max_bytes = std::max(
        p.nvram_max_bytes, cluster.server(s + 1).nvram_occupancy().max());
  }
  p.cpu_util /= kServers;
  p.disk_util /= kServers;
  p.nvram_avg_bytes /= kServers;
  for (int n = 0; n < kNetworks; ++n) {
    p.net_util +=
        static_cast<double>(after.net_busy[n] - before.net_busy[n]) / window;
  }
  p.net_util /= kNetworks;

  sim::Histogram force_ms;
  for (auto& d : drivers) {
    force_ms.Merge(d->log().force_latency_ms());
  }
  p.force_p95_ms = force_ms.Percentile(0.95);

  // The Section 4.1 model at this offered load. The endpoints
  // round-robin their packets over the LANs, so the single-network
  // closed form spreads evenly across kNetworks.
  analysis::CapacityInputs in;
  in.clients = kClients;
  in.tps_per_client = tps_per_client;
  in.servers = kServers;
  const analysis::CapacityOutputs out = analysis::ComputeCapacity(in);
  p.pred_cpu = out.cpu_fraction_comm + out.cpu_fraction_logging;
  p.pred_disk = out.disk_utilization;
  p.pred_net = out.network_utilization / kNetworks;
  p.below_knee = p.pred_cpu < kKneeFraction &&
                 p.pred_disk < kKneeFraction &&
                 p.pred_net < kKneeFraction;
  if (p.below_knee) {
    p.ok = std::fabs(p.cpu_util - p.pred_cpu) <= kUtilTolerance &&
           std::fabs(p.disk_util - p.pred_disk) <= kUtilTolerance &&
           std::fabs(p.net_util - p.pred_net) <= kUtilTolerance &&
           std::fabs(p.tps - p.offered) <= kTpsTolerance * p.offered;
  }
  return p;
}

/// The small trace-capture run: few clients, short horizon, so the
/// exported Chrome trace stays browsable. Returns the metrics snapshot
/// (per-component attribution histograms included) for the report, and
/// sets `*violations` to the number of trace invariants the run broke.
obs::MetricsSnapshot TraceCaptureRun(obs::BenchReport* report,
                                     size_t* violations, uint64_t seed) {
  harness::ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = 3;
  cluster_cfg.tracing = true;
  cluster_cfg.seed = seed;
  harness::Cluster cluster(cluster_cfg);

  std::vector<std::unique_ptr<harness::Et1Driver>> drivers;
  for (int i = 0; i < 3; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = static_cast<ClientId>(i + 1);
    harness::Et1DriverConfig driver_cfg;
    driver_cfg.tps = 10.0;
    driver_cfg.seed = 900 + 1000 * (seed - 1) + i;
    drivers.push_back(std::make_unique<harness::Et1Driver>(
        &cluster, log_cfg, driver_cfg));
    drivers.back()->Start();
  }
  cluster.sim().RunFor(2 * sim::kSecond);

  obs::Profiler& prof = cluster.profiler();
  prof.RegisterMetrics(&cluster.metrics());
  prof.UpdateAttributionMetrics(cluster.tracer());

  const std::vector<obs::CriticalPath> paths =
      obs::ExtractCriticalPaths(cluster.tracer());
  const Status st = obs::WriteFile(
      "E15_trace.json",
      obs::ChromeTraceJson(cluster.tracer(), paths));
  if (!st.ok()) {
    std::printf("failed to write E15_trace.json: %s\n",
                st.ToString().c_str());
  } else {
    std::printf("wrote E15_trace.json (%zu spans, %zu critical paths)\n",
                cluster.tracer().spans().size(), paths.size());
  }

  // Every client keeps the default N copies.
  const std::vector<std::string> broken = obs::RunAllProbes(
      cluster.tracer(), client::LogClientConfig{}.copies);
  std::printf("trace invariants: %zu violations over %zu spans\n",
              broken.size(), cluster.tracer().spans().size());
  for (const std::string& v : broken) std::printf("  %s\n", v.c_str());
  *violations = broken.size();

  // A taste of the critical-path report: the first transactions.
  std::vector<obs::CriticalPath> head(
      paths.begin(),
      paths.begin() + std::min<size_t>(paths.size(), 2));
  std::printf("%s\n", obs::CriticalPathText(head).c_str());

  std::printf("per-force latency attribution (ms):\n");
  for (const std::string& name : obs::AttributionComponents()) {
    sim::Histogram& h = prof.ComponentHistogram(name);
    std::printf("  %-14s mean %8.4f  p95 %8.4f\n", name.c_str(),
                h.Mean(), h.Percentile(0.95));
  }

  report->BeginRow();
  report->SetConfig("design", "trace_capture");
  report->SetConfig("clients", 3);
  report->SetConfig("servers", 3);
  return cluster.metrics().Snapshot(cluster.sim().Now());
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1;
  obs::BenchReport report("E15");

  std::printf(
      "E15: measured capacity, %d clients x sweep TPS, %d servers, "
      "%d LANs, flush interval 1s, %ds measured window\n\n",
      kClients, kServers, kNetworks, kMeasureSeconds);
  std::printf(
      "  offered |  TPS    | cpu meas/pred | disk meas/pred | "
      "net meas/pred | knee\n");

  bool all_ok = true;
  for (double tps : {4.0, 10.0, 16.0, 22.0, 28.0, 34.0}) {
    const Point p = RunPoint(tps, seed);
    all_ok = all_ok && p.ok;
    std::printf(
        "  %7.0f | %7.1f | %.3f / %.3f | %.3f  / %.3f | %.3f / %.3f | "
        "%s%s\n",
        p.offered, p.tps, p.cpu_util, p.pred_cpu, p.disk_util,
        p.pred_disk, p.net_util, p.pred_net,
        p.below_knee ? "below" : "above",
        p.ok ? "" : "  TOLERANCE EXCEEDED");

    report.BeginRow();
    report.SetConfig("design", "sweep");
    report.SetConfig("clients", kClients);
    report.SetConfig("servers", kServers);
    report.SetConfig("tps_per_client", tps);
    report.SetMetric("offered_tps", p.offered);
    report.SetMetric("tps", p.tps);
    report.SetMetric("server_cpu_util", p.cpu_util);
    report.SetMetric("server_cpu_util_predicted", p.pred_cpu);
    report.SetMetric("server_disk_util", p.disk_util);
    report.SetMetric("server_disk_util_predicted", p.pred_disk);
    report.SetMetric("network_util", p.net_util);
    report.SetMetric("network_util_predicted", p.pred_net);
    report.SetMetric("nvram_avg_bytes", p.nvram_avg_bytes);
    report.SetMetric("nvram_max_bytes", p.nvram_max_bytes);
    report.SetMetric("force_p95_ms", p.force_p95_ms);
    report.SetMetric("below_knee", p.below_knee ? 1.0 : 0.0);
    report.SetMetric("within_tolerance", p.ok ? 1.0 : 0.0);
  }

  std::printf("\ntrace capture (3 clients x 10 TPS, 3 servers, 2s):\n");
  size_t violations = 0;
  const obs::MetricsSnapshot snap = TraceCaptureRun(&report, &violations, seed);
  report.AddSnapshot("trace_run/", snap);

  Status st = report.WriteJson("BENCH_E15.json");
  if (!st.ok()) {
    std::printf("failed to write BENCH_E15.json: %s\n",
                st.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote BENCH_E15.json (%zu rows)\n", report.rows());
  if (violations > 0) {
    std::printf("FAIL: the trace-capture run broke %zu trace invariants\n",
                violations);
    return 1;
  }
  if (!all_ok) {
    std::printf(
        "FAIL: a below-knee point exceeded the +/-%.2f utilization or "
        "%.0f%% TPS tolerance\n",
        kUtilTolerance, kTpsTolerance * 100);
    return 1;
  }
  std::printf("all below-knee points within tolerance\n");
  return 0;
}
