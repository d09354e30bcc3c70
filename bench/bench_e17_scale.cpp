// Experiment E17 — large-cluster scale: a 50-server / 5000-client ET1
// slice.
//
// The ROADMAP's scale-out target made measurable: every client runs the
// real protocol (init via interval gather + epoch acquisition, grouped
// WriteLog/ForceLog streams, retry timers, driver backpressure) against
// a 50-server fleet on a 1 Gbit LAN. The bench reports raw engine
// throughput (events/s over the measured window), wall-clock, peak RSS,
// and per-client memory, and proves that live telemetry is
// schedule-invisible: the workload's end-state hash (per-client
// committed/failed/shed + per-server records written) must be identical
// with sampling on and off.
//
// Each client talks to a 5-server slice of the fleet (servers
// (i+j) % M, j = 0..4) with its generator representatives on the first
// three — both the write load and the Appendix I identifier-generator
// load spread uniformly, as a real deployment would place them.
//
// Usage: bench_e17_scale [clients] [servers] [window_seconds]
// Defaults: 5000 50 5. CI gates a reduced geometry (400 10 2) via
// tools/bench_diff.py on determinism_ok / committed_txns / events_per_sec;
// the full-size run is the acceptance configuration. Exit is nonzero on
// any determinism mismatch. Engine speed varies run to run, so
// BENCH_E17.json is bench_diff-gated (directional, generous threshold),
// never byte-compared.

#include <algorithm>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "harness/cluster.h"
#include "harness/et1_driver.h"
#include "obs/bench_report.h"

namespace {

using namespace dlog;

struct RunResult {
  /// Live telemetry sampling on (obs::TimeSeriesCollector at the
  /// fleet-scale 1 s cadence). Schedule-invisible — the end-state hash
  /// must still match — and its events/s ratio against the plain run is
  /// the overhead gate: telemetry must keep >= 95% throughput.
  bool telemetry = false;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t records_written = 0;
  uint64_t hash = 0;
  uint64_t window_events = 0;
  double window_wall_s = 0;   // wall-clock of the measured RunFor
  double total_wall_s = 0;    // init + warmup + window
  double events_per_sec = 0;  // window_events / window_wall_s
  double peak_rss_mb = 0;
  double rss_per_client_kb = 0;  // construction RSS delta / clients
};

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB -> MB
}

/// A constructed, not yet initialized, ET1 fleet on one cluster.
struct Fleet {
  std::unique_ptr<harness::Cluster> cluster;
  std::vector<std::unique_ptr<harness::Et1Driver>> drivers;
};

Fleet BuildFleet(bool telemetry, int clients, int servers) {
  Fleet f;
  harness::ClusterConfig cluster_cfg;
  cluster_cfg.num_servers = servers;
  // A modern-LAN profile: at the 1987 default of 10 Mbit the fleet's
  // aggregate init + log traffic would saturate the medium long before
  // the engine becomes the bottleneck this bench measures.
  cluster_cfg.network.bandwidth_bits_per_sec = 1e9;
  cluster_cfg.run_until_quantum = sim::kMillisecond;
  cluster_cfg.telemetry.enabled = telemetry;
  // Fleet-scale cadence: 1 s windows. The 250 ms default suits the
  // fine-grained health windows of small experiments (E18's 24
  // clients); at 400+ clients a sample walks thousands of live metrics,
  // and 1 s is the deployment-realistic monitoring resolution.
  cluster_cfg.telemetry.interval = 1 * sim::kSecond;
  f.cluster = std::make_unique<harness::Cluster>(cluster_cfg);

  f.drivers.reserve(static_cast<size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    client::LogClientConfig log_cfg;
    log_cfg.client_id = static_cast<ClientId>(i + 1);
    // A 5-server slice of the fleet, representatives on its first 3.
    for (int j = 0; j < 5; ++j) {
      log_cfg.servers.push_back(
          static_cast<net::NodeId>((i + j) % servers + 1));
    }
    log_cfg.generator_reps.assign(log_cfg.servers.begin(),
                                  log_cfg.servers.begin() + 3);
    log_cfg.seed = 1700 + static_cast<uint64_t>(i);
    harness::Et1DriverConfig driver_cfg;
    driver_cfg.tps = 2.0;
    driver_cfg.seed = 17000 + static_cast<uint64_t>(i);
    driver_cfg.max_log_backlog = 64;
    // Light per-client bank: the protocol load is what's under test,
    // and 5000 default-size banks would dominate the memory budget.
    driver_cfg.bank.accounts = 100;
    driver_cfg.bank.tellers = 10;
    driver_cfg.bank.branches = 2;
    f.drivers.push_back(std::make_unique<harness::Et1Driver>(
        f.cluster.get(), log_cfg, driver_cfg));
  }
  // Stagger the fleet's Init calls over two simulated seconds so the
  // generator representatives see a ramp, not 5000 simultaneous epoch
  // acquisitions at t = 0.
  const sim::Duration spread = 2 * sim::kSecond;
  for (int i = 0; i < clients; ++i) {
    harness::Et1Driver* d = f.drivers[static_cast<size_t>(i)].get();
    f.cluster->client_scheduler(i).At(
        static_cast<sim::Time>(i) * spread / clients,
        [d]() { d->Start(); });
  }
  return f;
}

/// Init barrier + warm-up: leaves the fleet in steady state.
void StartFleet(Fleet& f) {
  if (!f.cluster->RunUntil(harness::AllStarted(f.drivers),
                           120 * sim::kSecond)) {
    std::fprintf(stderr, "E17: fleet failed to initialize\n");
    std::exit(1);
  }
  f.cluster->RunFor(1 * sim::kSecond);  // past the start transient
}

uint64_t HashFleet(const Fleet& f, int servers, RunResult* r) {
  uint64_t hash = 1469598103934665603ULL;  // FNV offset basis
  for (const auto& d : f.drivers) {
    if (r != nullptr) {
      r->committed += d->committed();
      r->failed += d->failed();
      r->shed += d->txns_shed();
    }
    hash = Fnv1a(hash, d->committed());
    hash = Fnv1a(hash, d->failed());
    hash = Fnv1a(hash, d->txns_shed());
  }
  for (int s = 1; s <= servers; ++s) {
    const uint64_t written = f.cluster->server(s).records_written().value();
    if (r != nullptr) r->records_written += written;
    hash = Fnv1a(hash, written);
  }
  return hash;
}

RunResult RunConfig(bool telemetry, int clients, int servers,
                    int window_seconds) {
  RunResult r;
  r.telemetry = telemetry;

  const double rss_before_mb = PeakRssMb();
  const auto wall_start = std::chrono::steady_clock::now();

  Fleet fleet = BuildFleet(telemetry, clients, servers);
  r.rss_per_client_kb =
      (PeakRssMb() - rss_before_mb) * 1024.0 / clients;

  StartFleet(fleet);

  const uint64_t events_before = fleet.cluster->sim().events_executed();
  const auto window_start = std::chrono::steady_clock::now();
  fleet.cluster->RunFor(window_seconds * sim::kSecond);
  const auto window_end = std::chrono::steady_clock::now();
  const uint64_t events_after = fleet.cluster->sim().events_executed();

  r.hash = HashFleet(fleet, servers, &r);
  r.window_events = events_after - events_before;
  r.window_wall_s =
      std::chrono::duration<double>(window_end - window_start).count();
  r.total_wall_s =
      std::chrono::duration<double>(window_end - wall_start).count();
  r.events_per_sec =
      static_cast<double>(r.window_events) / r.window_wall_s;
  r.peak_rss_mb = PeakRssMb();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int clients = argc > 1 ? std::atoi(argv[1]) : 5000;
  const int servers = argc > 2 ? std::atoi(argv[2]) : 50;
  const int window_seconds = argc > 3 ? std::atoi(argv[3]) : 5;

  // Plain run first: peak RSS is a process-wide high-water mark, so only
  // the first cluster's numbers are attributable. The telemetry run
  // repeats it with live sampling on: same hash, >= 95% of the plain
  // events/s.
  const bool runs[] = {false, true};

  std::printf(
      "E17: scale slice, %d clients x %d servers, 1 Gbit LAN, 2.0 TPS "
      "per client, %ds measured window\n\n",
      clients, servers, window_seconds);
  std::printf(
      "  run       | events/s | window wall s | committed | shed | "
      "hash\n");

  std::vector<RunResult> results;
  for (const bool telemetry : runs) {
    results.push_back(
        RunConfig(telemetry, clients, servers, window_seconds));
    const RunResult& r = results.back();
    std::printf("  %-9s | %8.0f | %13.2f | %9llu | %4llu | %016llx\n",
                telemetry ? "telemetry" : "plain", r.events_per_sec,
                r.window_wall_s,
                static_cast<unsigned long long>(r.committed),
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.hash));
  }

  bool deterministic = true;
  for (const RunResult& r : results) {
    if (r.hash != results[0].hash) deterministic = false;
  }

  // Telemetry-overhead ratio, measured apart from the table rows: a
  // single run's events/s jitters ~10% with machine load while the
  // sampling cost itself is a few percent, so independent runs (even
  // long, even best-of-N) cannot resolve it. Instead hold two live
  // fleets — identical but for sampling — and alternate one-simulated-
  // second slices between them: both sides walk the same load phases
  // within milliseconds of each other, and the ratio of summed walls
  // cancels the noise that run-level comparisons cannot.
  const int ratio_rounds = std::max(window_seconds, 10);
  std::printf("\nmeasuring telemetry overhead (%d interleaved 1s rounds)\n",
              ratio_rounds);
  Fleet plain = BuildFleet(/*telemetry=*/false, clients, servers);
  Fleet sampled = BuildFleet(/*telemetry=*/true, clients, servers);
  StartFleet(plain);
  StartFleet(sampled);
  double wall_plain = 0.0, wall_sampled = 0.0;
  std::vector<double> round_ratios;
  round_ratios.reserve(static_cast<size_t>(ratio_rounds));
  for (int round = 0; round < ratio_rounds; ++round) {
    auto t0 = std::chrono::steady_clock::now();
    plain.cluster->RunFor(1 * sim::kSecond);
    auto t1 = std::chrono::steady_clock::now();
    sampled.cluster->RunFor(1 * sim::kSecond);
    auto t2 = std::chrono::steady_clock::now();
    const double p = std::chrono::duration<double>(t1 - t0).count();
    const double s = std::chrono::duration<double>(t2 - t1).count();
    wall_plain += p;
    wall_sampled += s;
    round_ratios.push_back(p / s);
  }
  // Both fleets executed the identical event sequence (sampling is
  // schedule-invisible), so each round's events/s ratio is its wall
  // ratio. A background burst lands on one side of one round and skews
  // its ratio in one direction; the median across rounds discards it.
  if (HashFleet(plain, servers, nullptr) !=
      HashFleet(sampled, servers, nullptr)) {
    std::printf("FAIL: sampling changed the overhead fleets' end state\n");
    return 1;
  }
  std::nth_element(round_ratios.begin(),
                   round_ratios.begin() + round_ratios.size() / 2,
                   round_ratios.end());
  const double ratio = round_ratios[round_ratios.size() / 2];

  obs::BenchReport report("E17");
  for (const RunResult& r : results) {
    report.BeginRow();
    report.SetConfig("telemetry", r.telemetry ? 1 : 0);
    report.SetConfig("clients", clients);
    report.SetConfig("servers", servers);
    report.SetConfig("window_seconds", window_seconds);
    report.SetMetric("events_per_sec", r.events_per_sec);
    report.SetMetric("window_events", static_cast<double>(r.window_events));
    report.SetMetric("window_wall_seconds", r.window_wall_s);
    report.SetMetric("total_wall_seconds", r.total_wall_s);
    report.SetMetric("committed_txns", static_cast<double>(r.committed));
    report.SetMetric("failed_txns", static_cast<double>(r.failed));
    report.SetMetric("shed_txns", static_cast<double>(r.shed));
    report.SetMetric("records_written",
                     static_cast<double>(r.records_written));
    report.SetMetric("determinism_ok",
                     r.hash == results[0].hash ? 1.0 : 0.0);
    if (!r.telemetry) {
      report.SetMetric("peak_rss_mb", r.peak_rss_mb);
      report.SetMetric("rss_per_client_kb", r.rss_per_client_kb);
    }
    if (r.telemetry) {
      report.SetMetric("telemetry_events_ratio", ratio);
    }
  }
  Status st = report.WriteJson("BENCH_E17.json");
  if (!st.ok()) {
    std::printf("failed to write BENCH_E17.json: %s\n",
                st.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote BENCH_E17.json (%zu rows)\n", report.rows());
  std::printf("peak RSS %.0f MB, ~%.0f KB/client at construction\n",
              results[0].peak_rss_mb, results[0].rss_per_client_kb);

  if (!deterministic) {
    std::printf("FAIL: telemetry sampling changed the end-state hash\n");
    return 1;
  }
  std::printf("determinism: end-state identical with telemetry on and "
              "off\n");
  std::printf("telemetry overhead: %.3fs wall with sampling vs %.3fs "
              "without over %d interleaved rounds (median events/s ratio "
              "%.3f)\n",
              wall_sampled, wall_plain, ratio_rounds, ratio);
  // Wall-clock, so noisy — but a sampling path that costs more than 5%
  // is a hot-loop bug, not noise, which is what this gate is for.
  if (ratio < 0.95) {
    std::printf("FAIL: telemetry overhead exceeds 5%% (ratio %.3f)\n",
                ratio);
    return 1;
  }
  return 0;
}
