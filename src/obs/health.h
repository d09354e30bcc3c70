#ifndef DLOG_OBS_HEALTH_H_
#define DLOG_OBS_HEALTH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace dlog::obs {

struct HealthConfig {
  bool enabled = false;

  /// Cross-server utilization imbalance: coefficient of variation
  /// (stddev/mean) of per-server windowed CPU utilization. This is the
  /// paper's Section 5.4 reconfiguration trigger, measured online.
  double imbalance_cv_threshold = 0.5;
  /// The imbalance rule is quiet while mean utilization is below this —
  /// an idle cluster is trivially "imbalanced" and no reconfiguration
  /// signal.
  double imbalance_min_mean_util = 0.05;

  /// SLO burn: fires when the cluster-wide windowed ForceLog p99
  /// (microseconds, from the merged streaming histograms) exceeds this.
  /// 0 disables the rule.
  double slo_force_p99_us = 0.0;
  /// Minimum forces in the window for the SLO rule to judge it (small
  /// samples make noisy quantiles).
  uint64_t slo_min_forces = 8;

  /// Per-client starvation: a client with pending records but zero
  /// force completions for this many consecutive windows is starving.
  /// 0 disables the rule.
  int starvation_windows = 8;

  /// Hysteresis: a rule's condition must hold for `fire_windows`
  /// consecutive windows to raise its alert, and stay clear for
  /// `clear_windows` consecutive windows to lower it — one-window blips
  /// in either direction are absorbed.
  int fire_windows = 3;
  int clear_windows = 3;

  Status Validate() const;
};

/// One alert transition (raise or clear). The ordered vector of these is
/// the run's "alert sequence" — deterministic, and byte-comparable
/// across runs via AlertsJson.
struct HealthAlert {
  uint64_t window = 0;   // window index of the transition
  sim::Time at = 0;      // simulated time of the window edge
  std::string rule;      // "imbalance", "slo_burn" or "starvation"
  std::string subject;   // "servers", "cluster", "client-7"
  bool fired = false;    // true = raised, false = cleared
  double value = 0.0;    // the measured value at the transition
};

/// Evaluates deterministic per-window health rules over the collector's
/// series, with hysteresis. All inputs are windowed values sampled at
/// quiescent window edges (counter deltas, streaming-histogram
/// quantiles), so the alert sequence is a pure function of the simulated
/// schedule — and the rules read the CPU busy-ns counters, so they work
/// with no profiler attached. Raises/clears bump `health/` counters,
/// update the active-alert gauge, and emit `alert.<rule>` trace instants
/// when tracing.
class HealthMonitor {
 public:
  HealthMonitor(const HealthConfig& config,
                const TimeSeriesCollector* collector);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Optional alert trace instants (rooted at "alert.<rule>" on node
  /// "health"); null or disabled tracer drops them.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

  /// The node names the rules iterate. The harness registers servers at
  /// construction and clients as they are added.
  void AddServerNode(const std::string& name);
  void AddClientNode(const std::string& name);

  /// Registers health/alerts_fired, health/alerts_cleared,
  /// health/active_alerts and per-rule fired counters.
  void RegisterMetrics(MetricsRegistry* registry);

  /// Evaluates every rule against the collector's latest window. Call
  /// immediately after TimeSeriesCollector::Sample for the same window.
  void Evaluate(sim::Time window_end);

  const HealthConfig& config() const { return config_; }
  const std::vector<HealthAlert>& alerts() const { return alerts_; }
  size_t active_alerts() const;

  /// Per-window imbalance CV (0 while below the mean-utilization floor),
  /// indexed by window-1. Exposed for the E18 bench's per-window keys.
  const std::vector<double>& imbalance_cv_history() const {
    return imbalance_cv_;
  }

 private:
  struct RuleState {
    int breach_streak = 0;
    int quiet_streak = 0;
    bool active = false;
  };

  /// Applies one window's breach verdict to a rule's hysteresis state,
  /// appending the transition (if any) to the alert sequence.
  void Judge(const std::string& rule, const std::string& subject,
             bool breach, double value, int fire_windows,
             int clear_windows, uint64_t window, sim::Time at);

  HealthConfig config_;
  const TimeSeriesCollector* collector_;
  Tracer* tracer_ = nullptr;

  std::vector<std::string> servers_;
  std::vector<std::string> clients_;

  /// (rule, subject) -> hysteresis state; map order makes same-window
  /// transitions deterministic.
  std::map<std::string, RuleState> states_;
  std::vector<HealthAlert> alerts_;
  std::vector<double> imbalance_cv_;

  sim::Counter alerts_fired_;
  sim::Counter alerts_cleared_;
  sim::Counter imbalance_fired_;
  sim::Counter slo_burn_fired_;
  sim::Counter starvation_fired_;
  sim::Gauge active_alerts_;
};

/// Deterministic serialization of the alert sequence (the byte-identity
/// artifact for the E18 gate).
std::string AlertsJson(const HealthMonitor& monitor);

}  // namespace dlog::obs

#endif  // DLOG_OBS_HEALTH_H_
