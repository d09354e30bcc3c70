#ifndef DLOG_OBS_METRICS_H_
#define DLOG_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

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

/// One registered metric: a pointer to a metric that a component owns,
/// or a pull-style callback that the registry owns.
using Metric =
    std::variant<const sim::Counter*, const sim::TimeWeightedGauge*,
                 const sim::Histogram*, const sim::StreamingHistogram*,
                 std::function<double()>>;

/// One registry per experiment run, holding *references* to the metrics
/// that live inside components, under hierarchical `node/component/name`
/// keys (e.g. "server-2/log/records_written"). Components keep their
/// counters as members (hot-path increments stay a plain add); the
/// registry provides the unified cross-layer view: enumeration,
/// snapshotting, and diffing between simulated timestamps. It keeps one
/// entry per name, whatever the metric's kind. A registry is used only on
/// the thread of the cluster that owns it (each TrialRunner trial builds
/// its own cluster), so it takes no lock.
class MetricsRegistry {
 public:
  /// Sorted by name; std::less<> gives string_view lookups and erasures.
  using Entries = std::map<std::string, Metric, std::less<>>;

  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration. Re-registering a name replaces its entry, whatever
  /// the old entry's kind (a restarted component re-registers its
  /// counters). Re-registering the identical (name, pointer) pair is an
  /// idempotent no-op — it neither changes the entry nor bumps version()
  /// — so a component registering twice in one window (e.g. a client
  /// restarted twice before the next telemetry sample) cannot churn
  /// consumers. The registry does not own the metric: the component must
  /// outlive it or call UnregisterPrefix first. The key is materialized
  /// only when the name is new, so callers can hand over literals or
  /// stack-composed names without an extra temporary per call.
  void RegisterCounter(std::string_view name, const sim::Counter* c) {
    Put(name, c);
  }
  void RegisterTimeWeightedGauge(std::string_view name,
                                 const sim::TimeWeightedGauge* g) {
    Put(name, g);
  }
  void RegisterHistogram(std::string_view name, const sim::Histogram* h) {
    Put(name, h);
  }
  void RegisterStreamingHistogram(std::string_view name,
                                  const sim::StreamingHistogram* h) {
    Put(name, h);
  }
  /// Registers a pull-style metric: `fn` is invoked at Snapshot time.
  /// For values with no component object to point at — e.g. the
  /// per-thread dlog::BytesCopied() copy tally. A callback cannot be
  /// compared, so re-registering one always replaces the entry.
  void RegisterCallback(std::string_view name, std::function<double()> fn) {
    Put(name, std::move(fn));
  }

  /// Drops every metric whose name starts with `prefix` (component
  /// teardown).
  void UnregisterPrefix(std::string_view prefix);

  /// Reads every registered metric at simulated time `now` (needed for
  /// time-weighted averages).
  MetricsSnapshot Snapshot(sim::Time now) const;

  /// Every registered metric. The entries, and the callbacks inside
  /// them, stay where they are until version() moves.
  const Entries& entries() const { return entries_; }

  /// Bumped by every registration change (registering a new name,
  /// replacing an entry with a different pointer or kind or with a
  /// callback, unregistering). Idempotent re-registration of the
  /// identical entry does not bump it. Consumers re-read entries() when
  /// the version moves; reading it at a quiescent engine point is
  /// deterministic (the count of changes is a pure function of the
  /// executed event set).
  uint64_t version() const { return version_; }

 private:
  /// Inserts or replaces `name`'s entry; see the Register* contract.
  void Put(std::string_view name, Metric metric);

  uint64_t version_ = 0;
  Entries entries_;
};

}  // namespace dlog::obs

#endif  // DLOG_OBS_METRICS_H_
