#include "obs/health.h"

#include <cinttypes>
#include <cmath>

#include "obs/text.h"

namespace dlog::obs {

namespace {

/// The imbalance rule fires when the coefficient of variation of
/// per-server windowed CPU utilization exceeds this.
constexpr double kImbalanceCvThreshold = 0.5;
/// The imbalance rule is quiet while mean utilization is below this: an
/// idle cluster is trivially "imbalanced" and no reconfiguration signal.
/// E18's workload is small in absolute terms (the point is the *shape*
/// of the load, not its magnitude), so the floor sits low enough to judge
/// it; the CV contrast does the rest: ~1.0 skewed vs ~1/sqrt(events per
/// server-window) balanced.
constexpr double kImbalanceMinMeanUtil = 1e-4;
/// A client with pending records but zero force completions for this many
/// consecutive windows is starving.
constexpr int kStarvationWindows = 8;
/// Hysteresis: a rule's condition must hold for kFireWindows consecutive
/// windows to raise its alert (starvation uses kStarvationWindows), and
/// stay clear for kClearWindows consecutive windows to lower it.
constexpr int kFireWindows = 3;
constexpr int kClearWindows = 3;

}  // namespace

HealthMonitor::HealthMonitor(const TimeSeriesCollector* collector)
    : collector_(collector) {}

void HealthMonitor::AddServerNode(const std::string& name) {
  servers_.push_back(name);
}

void HealthMonitor::AddClientNode(const std::string& name) {
  clients_.push_back(name);
}

void HealthMonitor::RegisterMetrics(MetricsRegistry* registry) {
  registry->RegisterCounter("health/alerts_fired", &alerts_fired_);
  registry->RegisterCounter("health/alerts_cleared", &alerts_cleared_);
  registry->RegisterCounter("health/imbalance_fired", &imbalance_fired_);
  registry->RegisterCounter("health/starvation_fired", &starvation_fired_);
  registry->RegisterCallback("health/active_alerts", [this]() {
    return static_cast<double>(active_alerts());
  });
}

void HealthMonitor::Judge(const std::string& rule,
                          const std::string& subject, bool breach,
                          double value, int fire_windows,
                          uint64_t window, sim::Time at) {
  RuleState& st = states_[rule + " " + subject];
  if (breach) {
    ++st.breach_streak;
    st.quiet_streak = 0;
  } else {
    ++st.quiet_streak;
    st.breach_streak = 0;
  }
  bool fired;
  if (!st.active && st.breach_streak >= fire_windows) {
    st.active = true;
    fired = true;
  } else if (st.active && st.quiet_streak >= kClearWindows) {
    st.active = false;
    fired = false;
  } else {
    return;
  }
  HealthAlert alert;
  alert.window = window;
  alert.at = at;
  alert.rule = rule;
  alert.subject = subject;
  alert.fired = fired;
  alert.value = value;
  alerts_.push_back(alert);
  if (fired) {
    alerts_fired_.Increment();
    if (rule == "imbalance") imbalance_fired_.Increment();
    if (rule == "starvation") starvation_fired_.Increment();
  } else {
    alerts_cleared_.Increment();
  }
  if (tracer_ != nullptr && tracer_->active()) {
    SpanContext ctx = tracer_->StartTrace(
        fired ? "alert." + rule : "alert." + rule + ".clear", "health");
    tracer_->AddArg(ctx, "window", window);
    tracer_->EndSpan(ctx);
  }
}

void HealthMonitor::Evaluate(sim::Time window_end) {
  const uint64_t w = collector_->windows();
  if (w == 0) return;
  const double interval_ns =
      static_cast<double>(collector_->interval());

  // --- Cross-server utilization imbalance (coefficient of variation of
  // windowed CPU busy fraction). Quiet below the mean-utilization floor:
  // an idle cluster is trivially "imbalanced".
  {
    double cv = 0.0;
    bool breach = false;
    if (!servers_.empty()) {
      double sum = 0.0;
      std::vector<double> utils;
      utils.reserve(servers_.size());
      for (const std::string& name : servers_) {
        const double util =
            collector_->At(name + "/cpu/busy_ns", w) / interval_ns;
        utils.push_back(util);
        sum += util;
      }
      const double mean = sum / static_cast<double>(utils.size());
      if (mean >= kImbalanceMinMeanUtil) {
        double var = 0.0;
        for (double u : utils) var += (u - mean) * (u - mean);
        var /= static_cast<double>(utils.size());
        cv = std::sqrt(var) / mean;
        breach = cv > kImbalanceCvThreshold;
      }
    }
    imbalance_cv_.push_back(cv);
    Judge("imbalance", "servers", breach, cv, kFireWindows, w, window_end);
  }

  // --- Per-client stream starvation: pending records but no force
  // completions, for kStarvationWindows consecutive windows.
  for (const std::string& name : clients_) {
    const double pending = collector_->At(name + "/log/pending_records", w);
    const double progress =
        collector_->At(name + "/log/forces_completed", w);
    Judge("starvation", name, pending > 0 && progress <= 0, pending,
          kStarvationWindows, w, window_end);
  }
}

size_t HealthMonitor::active_alerts() const {
  size_t n = 0;
  for (const auto& [key, st] : states_) {
    if (st.active) ++n;
  }
  return n;
}

std::string AlertsJson(const HealthMonitor& monitor) {
  std::string out = "{\"alerts\":[";
  bool first = true;
  for (const HealthAlert& alert : monitor.alerts()) {
    if (!first) out.push_back(',');
    first = false;
    AppendF(&out, "{\"window\":%" PRIu64 ",\"at\":%" PRIu64 ",\"rule\":",
            alert.window, alert.at);
    JsonQuote(&out, alert.rule);
    out += ",\"subject\":";
    JsonQuote(&out, alert.subject);
    AppendF(&out, ",\"fired\":%s,\"value\":%.9g}",
            alert.fired ? "true" : "false", alert.value);
  }
  out += "]}\n";
  return out;
}

}  // namespace dlog::obs
