#ifndef DLOG_OBS_METRICS_H_
#define DLOG_OBS_METRICS_H_

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/stats.h"
#include "sim/time.h"

namespace dlog::obs {

/// A point-in-time reading of every registered metric, flattened to
/// `name -> double` (histograms contribute `name/count`, `/mean`, `/p50`,
/// `/p95`, `/p99`, `/max` sub-keys). Snapshots are value types, sorted
/// by name: obs::BenchReport::AddSnapshot copies one into a report row.
struct MetricsSnapshot {
  sim::Time at = 0;
  std::map<std::string, double> values;

  double Get(const std::string& name, double fallback = 0.0) const {
    auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
};

/// What a registered metric is, for consumers (the telemetry collector)
/// that enumerate the registry once and then read values through typed
/// pointers instead of re-snapshotting string maps every window.
enum class MetricKind {
  kCounter,
  kTimeWeightedGauge,
  kHistogram,
  kStreamingHistogram,
  kCallback,
};

/// One enumerated registry entry. Exactly the pointer matching `kind` is
/// set (callbacks are copied). The pointee is owned by the registered
/// component; an entry is invalidated by any registration change, which
/// bumps MetricsRegistry::version() — consumers cache entries per
/// version.
struct MetricRef {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  const sim::Counter* counter = nullptr;
  const sim::TimeWeightedGauge* tw_gauge = nullptr;
  const sim::Histogram* histogram = nullptr;
  const sim::StreamingHistogram* streaming = nullptr;
  std::function<double()> callback;
};

/// One registry per experiment run, holding *references* to the metrics
/// that live inside components, under hierarchical `node/component/name`
/// keys (e.g. "server-2/log/records_written"). Components keep their
/// counters as members (hot-path increments stay a plain add); the
/// registry provides the unified cross-layer view: enumeration,
/// snapshotting, and diffing between simulated timestamps.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration. Names must be unique; re-registering a name replaces
  /// the old entry (a restarted component re-registers its counters).
  /// Re-registering the identical (name, pointer) pair is an idempotent
  /// no-op — it neither mutates the maps nor bumps version() — so a
  /// component registering twice in one window (e.g. a client restarted
  /// twice before the next telemetry sample) cannot churn consumers.
  /// The registry does not own the metric: the component must outlive it
  /// or call Unregister* first. Names pass as string_views (the key is
  /// materialized only on actual insertion; lookups and erasures are
  /// transparent) so callers can hand over literals or stack-composed
  /// names without an extra temporary per call.
  void RegisterCounter(std::string_view name, const sim::Counter* c);
  void RegisterTimeWeightedGauge(std::string_view name,
                                 const sim::TimeWeightedGauge* g);
  void RegisterHistogram(std::string_view name, const sim::Histogram* h);
  void RegisterStreamingHistogram(std::string_view name,
                                  const sim::StreamingHistogram* h);
  /// Registers a pull-style metric: `fn` is invoked at Snapshot time.
  /// For values with no component object to point at — e.g. the
  /// per-thread dlog::BytesCopied() copy tally.
  void RegisterCallback(std::string_view name, std::function<double()> fn);

  /// Drops every metric whose name starts with `prefix` (component
  /// teardown).
  void UnregisterPrefix(std::string_view prefix);

  /// Reads every registered metric at simulated time `now` (needed for
  /// time-weighted averages).
  MetricsSnapshot Snapshot(sim::Time now) const;

  /// Registered metric names, sorted.
  std::vector<std::string> Names() const;

  /// Every registered metric as a typed reference, sorted by name.
  /// Valid until the next registration change (watch version()).
  std::vector<MetricRef> Enumerate() const;

  /// Bumped by every registration change (registering a new name,
  /// replacing an entry with a different pointer/kind, unregistering).
  /// Idempotent re-registration of the identical entry does not bump it.
  /// Consumers re-Enumerate when the version moves; reading it at a
  /// quiescent engine point is deterministic (the count of changes is a
  /// pure function of the executed event set).
  uint64_t version() const {
    std::lock_guard<std::mutex> lock(mu_);
    return version_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.size() + tw_gauges_.size() + histograms_.size() +
           streaming_.size() + callbacks_.size();
  }

 private:
  /// The mutex serializes the map mutations. Map order keeps enumeration
  /// deterministic regardless of registration order, and idempotent
  /// re-registration (see Register*) keeps version() a pure function of
  /// the set of (name, pointer) changes.
  mutable std::mutex mu_;
  uint64_t version_ = 0;
  // std::less<> enables transparent string_view lookup/erasure.
  std::map<std::string, const sim::Counter*, std::less<>> counters_;
  std::map<std::string, const sim::TimeWeightedGauge*, std::less<>>
      tw_gauges_;
  std::map<std::string, const sim::Histogram*, std::less<>> histograms_;
  std::map<std::string, const sim::StreamingHistogram*, std::less<>>
      streaming_;
  std::map<std::string, std::function<double()>, std::less<>> callbacks_;
};

}  // namespace dlog::obs

#endif  // DLOG_OBS_METRICS_H_
