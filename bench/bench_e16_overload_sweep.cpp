// Experiment E16 — overload behavior with and without the src/flow
// stack (admission control + retry budgets + adaptive windows).
//
// A fixed client fleet sweeps its offered ET1 rate from half the
// capacity knee to twice past it, against servers whose NVRAM group
// buffer is deliberately small and whose disk is slow: past the knee
// the buffer stays full and the servers must shed. Each load point
// runs twice — flow disabled (the legacy Section 4.2 silent shed:
// clients discover loss only by resend timeout) and flow enabled
// (explicit Overloaded replies with retry-after hints, client backoff
// under a token budget, AIMD wire windows).
//
// The gate, checked by this binary (exit nonzero) and re-checked by
// tools/bench_diff.py against the committed baseline:
//   - with flow, goodput at 2x the knee holds >= 80% of knee goodput;
//   - with flow, force p99 at 2x the knee stays <= ~5x the at-knee p99,
//     while without flow it degrades far past that;
//   - past the knee the flow run actually sheds (nonzero shed_rate and
//     overload_replies_per_sec) — the gate is meaningless otherwise.
//
// Usage: bench_e16_overload_sweep [measure_seconds] [threads]
// The report is a pure function of the config and seeds: any thread
// count yields a byte-identical BENCH_E16.json.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "harness/et1_driver.h"
#include "harness/trial_runner.h"
#include "obs/bench_report.h"

namespace {

using namespace dlog;

constexpr int kClients = 10;
constexpr int kServers = 3;
/// Per-client TPS at the capacity knee — the offered load where goodput
/// saturates for this geometry (slow disk, small NVRAM; see RunPoint).
/// Empirical: goodput flattens at ~186 TPS between 18 and 20 per client.
constexpr double kKneeTps = 19.0;
constexpr double kGoodputRetention = 0.80;  // goodput(2x) / goodput(knee)
constexpr double kP99Blowup = 5.0;          // p99(2x) / p99(knee), flow on

struct Point {
  bool flow = false;
  double tps_per_client = 0;
  double offered = 0;
  double goodput = 0;
  double force_p99_ms = 0;
  double shed_rate = 0;           // silent + replied sheds, per second
  double overload_replies = 0;    // explicit Overloaded replies, per second
  double overloads_received = 0;  // client-side, per second
  double backoffs = 0;
  double retries_suppressed = 0;
  double txns_shed = 0;  // refused at the application layer, per second
};

Point RunPoint(bool flow, double tps_per_client, int measure_seconds) {
  Point p;
  p.flow = flow;
  p.tps_per_client = tps_per_client;
  p.offered = kClients * tps_per_client;

  harness::ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = kServers;
  // The overload geometry: a disk slow enough to be the clear
  // bottleneck and an NVRAM buffer of only a few tracks, so past the
  // knee occupancy pins at the admission threshold and stays there.
  // Sequential log writes never seek, so the slowness has to come from
  // rotation: 600 rpm is 100 ms per track transfer.
  cluster_cfg.server.disk.rpm = 600;
  cluster_cfg.server.nvram_bytes = 48 * 1024;
  cluster_cfg.server.admission.enabled = flow;
  // Match the flow-control timescales to this geometry: the disk drains
  // one track every ~150 ms, so second-scale default backoffs would park
  // clients far longer than the congestion they are reacting to.
  cluster_cfg.server.admission.min_retry_after = 10 * sim::kMillisecond;
  cluster_cfg.server.admission.max_retry_after = 150 * sim::kMillisecond;
  harness::Cluster cluster(cluster_cfg);

  std::vector<std::unique_ptr<harness::Et1Driver>> drivers;
  for (int i = 0; i < kClients; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = static_cast<ClientId>(i + 1);
    log_cfg.retry.enabled = flow;
    log_cfg.retry.initial_backoff = 10 * sim::kMillisecond;
    log_cfg.retry.max_backoff = 100 * sim::kMillisecond;
    log_cfg.wire.adaptive_window.enabled = flow;
    harness::Et1DriverConfig driver_cfg;
    driver_cfg.tps = tps_per_client;
    driver_cfg.seed = 1600 + i;
    // End-to-end backpressure: with flow on, arrivals are refused while
    // the log backlog is deep, instead of queueing without bound.
    driver_cfg.max_log_backlog = flow ? 32 : 0;
    drivers.push_back(std::make_unique<harness::Et1Driver>(
        &cluster, log_cfg, driver_cfg));
    drivers.back()->Start();
  }

  // Warm up through initialization traffic, then measure a clean window.
  cluster.RunFor(2 * sim::kSecond);
  uint64_t committed_before = 0;
  uint64_t shed_before = 0, replies_before = 0;
  uint64_t recv_before = 0, backoff_before = 0, suppressed_before = 0;
  uint64_t txshed_before = 0;
  for (auto& d : drivers) {
    committed_before += d->committed();
    txshed_before += d->txns_shed();
    recv_before += d->log().overloads_received().value();
    backoff_before += d->log().backoffs().value();
    suppressed_before += d->log().retries_suppressed().value();
  }
  for (int s = 1; s <= kServers; ++s) {
    shed_before += cluster.server(s).writes_shed().value();
    replies_before += cluster.server(s).admission().overload_replies().value();
  }

  cluster.RunFor(measure_seconds * sim::kSecond);

  uint64_t committed = 0, shed = 0, replies = 0;
  uint64_t recv = 0, backoff = 0, suppressed = 0, txshed = 0;
  sim::Histogram force_ms;
  for (auto& d : drivers) {
    committed += d->committed();
    txshed += d->txns_shed();
    recv += d->log().overloads_received().value();
    backoff += d->log().backoffs().value();
    suppressed += d->log().retries_suppressed().value();
    force_ms.Merge(d->log().force_latency_ms());
  }
  for (int s = 1; s <= kServers; ++s) {
    shed += cluster.server(s).writes_shed().value();
    replies += cluster.server(s).admission().overload_replies().value();
  }

  const double window = static_cast<double>(measure_seconds);
  p.goodput = static_cast<double>(committed - committed_before) / window;
  p.force_p99_ms = force_ms.Percentile(0.99);
  p.shed_rate = static_cast<double>(shed - shed_before) / window;
  p.overload_replies =
      static_cast<double>(replies - replies_before) / window;
  p.overloads_received = static_cast<double>(recv - recv_before) / window;
  p.backoffs = static_cast<double>(backoff - backoff_before) / window;
  p.retries_suppressed =
      static_cast<double>(suppressed - suppressed_before) / window;
  p.txns_shed = static_cast<double>(txshed - txshed_before) / window;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const int measure_seconds = argc > 1 ? std::atoi(argv[1]) : 10;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 1;
  harness::TrialRunner runner(threads > 0 ? threads : 1);

  const std::vector<double> loads = {kKneeTps / 2, kKneeTps, 2 * kKneeTps};
  struct Trial {
    bool flow;
    double tps;
  };
  std::vector<Trial> trials;
  for (bool flow : {false, true}) {
    for (double tps : loads) trials.push_back({flow, tps});
  }

  std::printf(
      "E16: overload sweep, %d clients, %d servers, slow-disk / small-"
      "NVRAM geometry, knee ~%.0f TPS offered, %ds measured window\n\n",
      kClients, kServers, kClients * kKneeTps, measure_seconds);

  const std::vector<Point> points = runner.Run(
      trials.size(), [&](size_t i) {
        return RunPoint(trials[i].flow, trials[i].tps, measure_seconds);
      });

  obs::BenchReport report("E16");
  std::printf(
      "  flow | offered | goodput | force p99 ms | shed/s | "
      "overload replies/s\n");
  for (const Point& p : points) {
    std::printf("  %4s | %7.0f | %7.1f | %12.1f | %6.1f | %10.1f\n",
                p.flow ? "on" : "off", p.offered, p.goodput,
                p.force_p99_ms, p.shed_rate, p.overload_replies);
    report.BeginRow();
    report.SetConfig("design", "sweep");
    report.SetConfig("flow", p.flow ? "on" : "off");
    report.SetConfig("clients", kClients);
    report.SetConfig("servers", kServers);
    report.SetConfig("tps_per_client", p.tps_per_client);
    report.SetMetric("offered_tps", p.offered);
    report.SetMetric("goodput_tps", p.goodput);
    report.SetMetric("force_p99_ms", p.force_p99_ms);
    report.SetMetric("shed_rate", p.shed_rate);
    report.SetMetric("overload_replies_per_sec", p.overload_replies);
    report.SetMetric("overloads_received_per_sec", p.overloads_received);
    report.SetMetric("backoffs_per_sec", p.backoffs);
    report.SetMetric("retries_suppressed_per_sec", p.retries_suppressed);
    report.SetMetric("txns_shed_per_sec", p.txns_shed);
  }

  Status st = report.WriteJson("BENCH_E16.json");
  if (!st.ok()) {
    std::printf("failed to write BENCH_E16.json: %s\n",
                st.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote BENCH_E16.json (%zu rows)\n", report.rows());

  // Self-gate. Index math mirrors the trials vector: off = 0..2,
  // on = 3..5, each ordered {knee/2, knee, 2x knee}.
  const Point& off_2x = points[2];
  const Point& on_knee = points[4];
  const Point& on_2x = points[5];
  bool ok = true;
  auto check = [&](bool cond, const char* what) {
    if (!cond) {
      std::printf("FAIL: %s\n", what);
      ok = false;
    }
  };
  check(on_2x.goodput >= kGoodputRetention * on_knee.goodput,
        "flow-on goodput at 2x knee fell below 80% of knee goodput");
  check(on_2x.force_p99_ms <= kP99Blowup * on_knee.force_p99_ms,
        "flow-on force p99 at 2x knee exceeded 5x the at-knee p99");
  check(on_2x.shed_rate > 0,
        "flow-on run past the knee shed nothing (geometry too easy)");
  check(on_2x.overload_replies > 0,
        "flow-on run past the knee sent no Overloaded replies");
  check(off_2x.force_p99_ms > on_2x.force_p99_ms,
        "flow did not improve past-knee force p99 over silent shedding");
  if (!ok) return 1;
  std::printf("overload gate passed: goodput retained, p99 bounded, "
              "sheds observed\n");
  return 0;
}
