#ifndef DLOG_OBS_HEALTH_H_
#define DLOG_OBS_HEALTH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace dlog::obs {

/// One alert transition (raise or clear). The ordered vector of these is
/// the run's "alert sequence" — deterministic, and byte-comparable
/// across runs via AlertsJson.
struct HealthAlert {
  uint64_t window = 0;   // window index of the transition
  sim::Time at = 0;      // simulated time of the window edge
  std::string rule;      // "imbalance" or "starvation"
  std::string subject;   // "servers" or a client, e.g. "client-7"
  bool fired = false;    // true = raised, false = cleared
  double value = 0.0;    // the measured value at the transition
};

/// Evaluates deterministic per-window health rules over the collector's
/// series, with hysteresis. All inputs are windowed values sampled at
/// quiescent window edges (counter deltas, callback levels), so the alert
/// sequence is a pure function of the simulated schedule — and the rules
/// read the CPU busy-ns counters, so they work with no profiler attached.
/// Raises/clears bump `health/` counters and emit `alert.<rule>` trace
/// instants when tracing.
///
/// The rules:
///   * imbalance — the coefficient of variation (stddev/mean) of
///     per-server windowed CPU utilization exceeds 0.5: the paper's
///     Section 5.4 reconfiguration trigger, measured online. Quiet while
///     mean utilization is below 1e-4, where an idle cluster is trivially
///     "imbalanced". It must hold for 3 consecutive windows to raise the
///     alert and stay clear for 3 to lower it, so one-window blips in
///     either direction are absorbed.
///   * starvation — a client with pending records but zero force
///     completions for 8 consecutive windows; it clears after 3 windows
///     without that condition.
class HealthMonitor {
 public:
  explicit HealthMonitor(const TimeSeriesCollector* collector);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Optional alert trace instants (rooted at "alert.<rule>" on node
  /// "health"); null or disabled tracer drops them.
  void SetTracer(Tracer* tracer) { tracer_ = tracer; }

  /// The node names the rules iterate. The harness registers servers at
  /// construction and clients as they are added.
  void AddServerNode(const std::string& name);
  void AddClientNode(const std::string& name);

  /// Registers health/alerts_fired, health/alerts_cleared, per-rule
  /// fired counters, and health/active_alerts as a callback that reads
  /// active_alerts().
  void RegisterMetrics(MetricsRegistry* registry);

  /// Evaluates every rule against the collector's latest window. Call
  /// immediately after TimeSeriesCollector::Sample for the same window.
  void Evaluate(sim::Time window_end);

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
             bool breach, double value, int fire_windows, uint64_t window,
             sim::Time at);

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
  sim::Counter starvation_fired_;
};

/// Deterministic serialization of the alert sequence (the byte-identity
/// artifact for the E18 gate).
std::string AlertsJson(const HealthMonitor& monitor);

}  // namespace dlog::obs

#endif  // DLOG_OBS_HEALTH_H_
