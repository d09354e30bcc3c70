// Experiment E18 — online health monitoring: live windowed telemetry
// plus the HealthMonitor's imbalance rule, exercised end to end.
//
// Two scenarios on the same cluster geometry and ET1 workload:
//
//   skewed    every client writes to the same 3-server slice {1,2,3},
//             leaving the rest of the fleet idle — the Section 5.4
//             "load assignment gone wrong" shape. The cross-server
//             utilization CV sits at sqrt(servers/3 - 1) regardless of
//             absolute load, so the imbalance alert MUST fire.
//   balanced  slices rotate across the fleet ((i+j) % servers, the E17
//             placement), so per-server load is uniform and the run
//             must finish with ZERO alerts of any kind.
//
// Both self-gate (exit nonzero on a miss), making the bench its own
// acceptance test. Every reported metric is simulated — no wall clock —
// so BENCH_E18.json is byte-identical across reruns; CI runs it twice and
// cmp(1)s the reports. The per-window "w<k>/imbalance_cv" keys give
// tools/bench_diff.py a window-by-window view of the signal (matched by
// window index, informational only — see --ts-exact).
//
// Artifacts: E18_series_<scenario>.json (full telemetry export) and
// E18_alerts_<scenario>.json (the alert sequence) in the working
// directory; tools/timeline.py renders the series as a terminal heatmap.
//
// Usage: bench_e18_health [clients] [servers] [seconds]
// Defaults: 24 6 15.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "harness/et1_driver.h"
#include "obs/bench_report.h"
#include "obs/health.h"
#include "obs/timeseries.h"

namespace {

using namespace dlog;

struct ScenarioResult {
  std::string name;
  uint64_t windows = 0;
  uint64_t committed = 0;
  size_t alerts_total = 0;       // raise + clear transitions
  size_t imbalance_raised = 0;   // imbalance raise transitions
  size_t active_at_end = 0;
  uint64_t series_hash = 0;
  uint64_t alerts_hash = 0;
  std::vector<double> imbalance_cv;  // per window, 1-based window k at [k-1]
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
  return static_cast<bool>(out);
}

ScenarioResult RunScenario(const std::string& name, bool skewed,
                           int clients, int servers, int seconds) {
  ScenarioResult r;
  r.name = name;

  harness::ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = servers;
  cluster_cfg.network.bandwidth_bits_per_sec = 1e9;
  // The init barrier polls on a 1 ms grid: the measured window starts at
  // the first grid point after the last client initializes.
  cluster_cfg.run_until_quantum = sim::kMillisecond;
  cluster_cfg.telemetry.enabled = true;
  cluster_cfg.telemetry.interval = 250 * sim::kMillisecond;
  cluster_cfg.health.enabled = true;
  // The workload's absolute CPU utilization is small (the point is the
  // *shape* of the load, not its magnitude); drop the idle-cluster
  // floor so the rule judges it. The CV contrast does the rest: ~1.0
  // skewed vs ~1/sqrt(events per server-window) balanced.
  cluster_cfg.health.imbalance_min_mean_util = 1e-4;
  harness::Cluster cluster(cluster_cfg);

  std::vector<std::unique_ptr<harness::Et1Driver>> drivers;
  drivers.reserve(static_cast<size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = static_cast<ClientId>(i + 1);
    // The scenario is entirely in the slice placement.
    for (int j = 0; j < 3; ++j) {
      const int base = skewed ? j : (i + j) % servers;
      log_cfg.servers.push_back(static_cast<net::NodeId>(base + 1));
    }
    log_cfg.generator_reps = log_cfg.servers;
    log_cfg.seed = 1800 + static_cast<uint64_t>(i);
    harness::Et1DriverConfig driver_cfg;
    driver_cfg.tps = 20.0;
    driver_cfg.seed = 18000 + static_cast<uint64_t>(i);
    driver_cfg.max_log_backlog = 64;
    driver_cfg.bank.accounts = 100;
    driver_cfg.bank.tellers = 10;
    driver_cfg.bank.branches = 2;
    drivers.push_back(std::make_unique<harness::Et1Driver>(
        &cluster, log_cfg, driver_cfg));
  }
  const sim::Duration spread = 1 * sim::kSecond;
  for (int i = 0; i < clients; ++i) {
    harness::Et1Driver* d = drivers[static_cast<size_t>(i)].get();
    cluster.client_scheduler(i).At(
        static_cast<sim::Time>(i) * spread / clients,
        [d]() { d->Start(); });
  }

  if (!cluster.RunUntil(harness::AllStarted(drivers), 60 * sim::kSecond)) {
    std::fprintf(stderr, "E18 %s: fleet failed to initialize\n",
                 name.c_str());
    std::exit(1);
  }
  cluster.RunFor(seconds * sim::kSecond);

  for (auto& d : drivers) r.committed += d->committed();
  r.windows = cluster.telemetry()->windows();
  r.alerts_total = cluster.health()->alerts().size();
  for (const obs::HealthAlert& a : cluster.health()->alerts()) {
    if (a.rule == "imbalance" && a.fired) ++r.imbalance_raised;
  }
  r.active_at_end = cluster.health()->active_alerts();
  r.imbalance_cv = cluster.health()->imbalance_cv_history();

  const std::string series = obs::TimeSeriesJson(*cluster.telemetry());
  const std::string alerts = obs::AlertsJson(*cluster.health());
  r.series_hash = Fnv1a(series);
  r.alerts_hash = Fnv1a(alerts);
  if (!WriteFile("E18_series_" + name + ".json", series) ||
      !WriteFile("E18_alerts_" + name + ".json", alerts)) {
    std::fprintf(stderr, "E18 %s: failed to write artifacts\n",
                 name.c_str());
    std::exit(1);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int clients = argc > 1 ? std::atoi(argv[1]) : 24;
  const int servers = argc > 2 ? std::atoi(argv[2]) : 6;
  const int seconds = argc > 3 ? std::atoi(argv[3]) : 15;
  if (servers < 4) {
    std::fprintf(stderr, "E18 needs >= 4 servers for a skewed placement\n");
    return 1;
  }

  std::printf(
      "E18: online health monitoring, %d clients x %d servers, %ds\n\n",
      clients, servers, seconds);

  const ScenarioResult skewed =
      RunScenario("skewed", true, clients, servers, seconds);
  const ScenarioResult balanced =
      RunScenario("balanced", false, clients, servers, seconds);

  std::printf(
      "  scenario | windows | committed | alerts | imbalance raised | "
      "series hash\n");
  for (const ScenarioResult* r : {&skewed, &balanced}) {
    std::printf("  %-8s | %7llu | %9llu | %6zu | %16zu | %016llx\n",
                r->name.c_str(),
                static_cast<unsigned long long>(r->windows),
                static_cast<unsigned long long>(r->committed),
                r->alerts_total, r->imbalance_raised,
                static_cast<unsigned long long>(r->series_hash));
  }

  obs::BenchReport report("E18");
  for (const ScenarioResult* r : {&skewed, &balanced}) {
    report.BeginRow();
    report.SetConfig("scenario", r->name);
    report.SetConfig("clients", clients);
    report.SetConfig("servers", servers);
    report.SetConfig("seconds", seconds);
    report.SetMetric("windows", static_cast<double>(r->windows));
    report.SetMetric("committed_txns", static_cast<double>(r->committed));
    report.SetMetric("alerts_total", static_cast<double>(r->alerts_total));
    report.SetMetric("imbalance_raised",
                     static_cast<double>(r->imbalance_raised));
    report.SetMetric("active_at_end",
                     static_cast<double>(r->active_at_end));
    // 64-bit hashes split into exactly-representable 32-bit halves.
    report.SetMetric("series_hash_hi",
                     static_cast<double>(r->series_hash >> 32));
    report.SetMetric("series_hash_lo",
                     static_cast<double>(r->series_hash & 0xffffffffu));
    report.SetMetric("alerts_hash_hi",
                     static_cast<double>(r->alerts_hash >> 32));
    report.SetMetric("alerts_hash_lo",
                     static_cast<double>(r->alerts_hash & 0xffffffffu));
    // Per-window signal for bench_diff's time-series view.
    for (size_t w = 0; w < r->imbalance_cv.size(); ++w) {
      report.SetMetric("w" + std::to_string(w + 1) + "/imbalance_cv",
                       r->imbalance_cv[w]);
    }
  }
  Status st = report.WriteJson("BENCH_E18.json");
  if (!st.ok()) {
    std::printf("failed to write BENCH_E18.json: %s\n",
                st.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote BENCH_E18.json (%zu rows) + series/alert "
              "artifacts\n", report.rows());

  bool ok = true;
  if (skewed.imbalance_raised == 0) {
    std::printf("FAIL: skewed placement never raised the imbalance "
                "alert\n");
    ok = false;
  }
  if (balanced.alerts_total != 0) {
    std::printf("FAIL: balanced placement raised %zu alert "
                "transition(s); expected a quiet run\n",
                balanced.alerts_total);
    ok = false;
  }
  if (ok) {
    std::printf("gates: imbalance alert fired under skew (%zu raise(s), "
                "%zu active at end); balanced run quiet\n",
                skewed.imbalance_raised, skewed.active_at_end);
  }
  return ok ? 0 : 1;
}
