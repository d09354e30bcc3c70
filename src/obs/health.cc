#include "obs/health.h"

#include <cmath>
#include <cstdio>

namespace dlog::obs {

Status HealthConfig::Validate() const {
  if (!enabled) return Status::OK();
  if (imbalance_cv_threshold < 0) {
    return Status::InvalidArgument("imbalance_cv_threshold must be >= 0");
  }
  if (imbalance_min_mean_util < 0) {
    return Status::InvalidArgument("imbalance_min_mean_util must be >= 0");
  }
  if (slo_force_p99_us < 0) {
    return Status::InvalidArgument("slo_force_p99_us must be >= 0");
  }
  if (starvation_windows < 0) {
    return Status::InvalidArgument("starvation_windows must be >= 0");
  }
  if (fire_windows < 1 || clear_windows < 1) {
    return Status::InvalidArgument("hysteresis windows must be >= 1");
  }
  return Status::OK();
}

HealthMonitor::HealthMonitor(const HealthConfig& config,
                             const TimeSeriesCollector* collector)
    : config_(config), collector_(collector) {
  DLOG_CHECK_OK(config.Validate());
}

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
  registry->RegisterCounter("health/slo_burn_fired", &slo_burn_fired_);
  registry->RegisterCounter("health/starvation_fired", &starvation_fired_);
  registry->RegisterGauge("health/active_alerts", &active_alerts_);
}

void HealthMonitor::Judge(const std::string& rule,
                          const std::string& subject, bool breach,
                          double value, int fire_windows,
                          int clear_windows, uint64_t window,
                          sim::Time at) {
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
  } else if (st.active && st.quiet_streak >= clear_windows) {
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
    active_alerts_.Add(1);
    if (rule == "imbalance") imbalance_fired_.Increment();
    if (rule == "slo_burn") slo_burn_fired_.Increment();
    if (rule == "starvation") starvation_fired_.Increment();
  } else {
    alerts_cleared_.Increment();
    active_alerts_.Add(-1);
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
      if (mean >= config_.imbalance_min_mean_util && mean > 0) {
        double var = 0.0;
        for (double u : utils) var += (u - mean) * (u - mean);
        var /= static_cast<double>(utils.size());
        cv = std::sqrt(var) / mean;
        breach = cv > config_.imbalance_cv_threshold;
      }
    }
    imbalance_cv_.push_back(cv);
    Judge("imbalance", "servers", breach, cv, config_.fire_windows,
          config_.clear_windows, w, window_end);
  }

  // --- SLO burn on the cluster-wide windowed ForceLog p99.
  if (config_.slo_force_p99_us > 0) {
    const double count =
        collector_->At("cluster/log/force_latency_us/count", w);
    const double p99 =
        collector_->At("cluster/log/force_latency_us/p99", w);
    const bool breach =
        count >= static_cast<double>(config_.slo_min_forces) &&
        p99 > config_.slo_force_p99_us;
    Judge("slo_burn", "cluster", breach, p99, config_.fire_windows,
          config_.clear_windows, w, window_end);
  }

  // --- Per-client stream starvation: pending records but no force
  // completions, for starvation_windows consecutive windows.
  if (config_.starvation_windows > 0) {
    for (const std::string& name : clients_) {
      const double pending =
          collector_->At(name + "/log/pending_records", w);
      const double progress =
          collector_->At(name + "/log/forces_completed", w);
      Judge("starvation", name, pending > 0 && progress <= 0, pending,
            config_.starvation_windows, config_.clear_windows, w,
            window_end);
    }
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
  char buf[96];
  bool first = true;
  for (const HealthAlert& alert : monitor.alerts()) {
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(buf, sizeof(buf), "{\"window\":%llu,\"at\":%llu,",
                  static_cast<unsigned long long>(alert.window),
                  static_cast<unsigned long long>(alert.at));
    out += buf;
    out += "\"rule\":\"";
    out += alert.rule;
    out += "\",\"subject\":\"";
    out += alert.subject;
    std::snprintf(buf, sizeof(buf), "\",\"fired\":%s,\"value\":%.9g}",
                  alert.fired ? "true" : "false", alert.value);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace dlog::obs
