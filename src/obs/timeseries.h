#ifndef DLOG_OBS_TIMESERIES_H_
#define DLOG_OBS_TIMESERIES_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace dlog::obs {

struct TimeSeriesConfig {
  bool enabled = false;
  /// Sampling cadence in simulated time. Window k covers
  /// ((k-1)*interval, k*interval]; the harness samples with the engine
  /// quiescent at exactly k*interval, so every event at or before the
  /// window edge — and nothing after it — is reflected.
  sim::Duration interval = 250 * sim::kMillisecond;

  Status Validate() const;
};

/// How a series' per-window value was produced.
enum class SeriesKind {
  kRate,      // counter delta over the window (delta-encoded)
  kLevel,     // instantaneous reading at the window edge
  kQuantile,  // quantile of a streaming histogram's window delta
};

/// Samples every registered metric into bounded per-series rings on a
/// fixed simulated-time cadence — the *online* view of a run, where
/// MetricsRegistry::Snapshot is the post-hoc one. Counters are stored as
/// per-window deltas, time-weighted gauges and callbacks as window-edge
/// levels, streaming histograms as per-window quantiles of their
/// bucket-count deltas (exact sample-retaining histograms are end-of-run
/// artifacts and are skipped). Each series keeps its last 512 windows.
/// Every node's `*/log/force_latency_us` stream is also merged each
/// window into the cluster-wide
/// "cluster/log/force_latency_us/{p50,p99,count}" series. The health
/// rules read these series, and the exporters serialize them.
///
/// Series are sparse: a window where a counter didn't move, a level
/// didn't change, or a stream recorded nothing stores no value. Rate
/// and quantile series gap-fill with zeros (readers see the implicit
/// zero via At()'s fallback); level series are sample-and-hold — a
/// skipped window means "still the previous level", gap-fills repeat
/// it, and At() holds the last sampled level forward. Most of a large
/// fleet's metrics are idle in any given window (error and repair
/// counters, steady levels), and not materializing those values is
/// what keeps the per-window sampling cost proportional to activity,
/// not to registry size.
///
/// Determinism: Sample() must run with the engine quiescent at the
/// window edge. Every value is then a pure function of the executed
/// event set {e : time(e) <= edge}, so the exported series are
/// byte-identical across reruns and across TrialRunner thread counts.
/// The registry's entries are re-read only when its version moves (a
/// restart re-registering metrics); the steady-state sampling cost is a
/// pointer read per metric, no string maps.
class TimeSeriesCollector {
 public:
  TimeSeriesCollector(const TimeSeriesConfig& config,
                      MetricsRegistry* registry);

  TimeSeriesCollector(const TimeSeriesCollector&) = delete;
  TimeSeriesCollector& operator=(const TimeSeriesCollector&) = delete;

  sim::Duration interval() const { return config_.interval; }

  /// Closes window `windows() + 1`. The harness calls this with the
  /// engine quiescent at the window edge.
  void Sample();

  /// Windows sampled so far; the current window index is windows().
  uint64_t windows() const { return windows_; }

  struct SeriesData {
    SeriesKind kind = SeriesKind::kLevel;
    /// Window index (1-based) of the first sampled value.
    uint64_t first_window = 0;
    /// Total values sampled; only the last min(count, retention) are
    /// retained.
    uint64_t count = 0;
    /// Circular: the value for absolute position p (0-based from
    /// first_window) lives at values[p % retention].
    std::vector<double> values;
  };

  /// Name -> index into series_at(), in deterministic (sorted) order.
  /// Series storage is index-addressed (contiguous chunks, allocated in
  /// sampling order) with this side map only for named lookups, so the
  /// per-window push loops never touch scattered map nodes.
  const std::map<std::string, size_t, std::less<>>& series_index() const {
    return series_index_;
  }
  const SeriesData& series_at(size_t index) const {
    return series_store_[index];
  }

  /// The value of `key` at window `window`. Level series hold: a
  /// window past the last sampled change reads the held level. Rate and
  /// quantile series read the implicit zero as `fallback` (callers pass
  /// 0 or keep the default). `fallback` also covers series that do not
  /// exist, windows before the first sample, and evicted windows.
  double At(std::string_view key, uint64_t window,
            double fallback = 0.0) const;

  /// The most recent explicitly sampled value of `key`.
  double Latest(std::string_view key, double fallback = 0.0) const;

 private:
  struct StreamPrev {
    std::vector<uint32_t> buckets;
    uint64_t count = 0;
  };
  /// The cluster-wide merge of every node's force-latency stream.
  struct Aggregate {
    std::vector<uint32_t> buckets;
    uint64_t count = 0;
    /// Occupied range this window (union of contributing stream ranges).
    size_t lo = 0;
    size_t hi = 0;
    SeriesData* p50 = nullptr;
    SeriesData* p99 = nullptr;
    SeriesData* cnt = nullptr;
  };
  /// Hot slots, partitioned by metric kind at Rebuild so each
  /// per-window loop is tight and branch-free and streams the minimum
  /// of metadata (Sample is memory-bound at fleet scale: thousands of
  /// slots are walked every window against a cold cache). Sources live
  /// in components, callbacks in the registry's entries (valid until its
  /// version moves, and Sample rebuilds first whenever it has), outputs
  /// and prev state in index-stable deques.
  struct CounterSlot {
    const sim::Counter* src;
    double* prev;  // previous reading, for delta encoding
    SeriesData* out;
  };
  struct TwGaugeSlot {
    const sim::TimeWeightedGauge* src;
    double* prev;  // last pushed level, for the unchanged-skip
    SeriesData* out;
  };
  struct CallbackSlot {
    const std::function<double()>* fn;  // into the registry's entry
    double* prev;
    SeriesData* out;
  };
  struct StreamSlot {
    const sim::StreamingHistogram* src;
    StreamPrev* prev;
    SeriesData* p50;
    SeriesData* p99;
    SeriesData* cnt;
    bool aggregated;  // contributes to aggregate_
  };

  void Rebuild();
  SeriesData* EnsureSeries(const std::string& key, SeriesKind kind);
  double* EnsurePrevValue(const std::string& key);
  StreamPrev* EnsurePrevStream(const std::string& key);
  void PushTo(SeriesData* s, double value);
  void Append(SeriesData* s, double value);

  TimeSeriesConfig config_;
  MetricsRegistry* registry_;

  /// Rebuilt from the registry's entries when its version moves.
  std::vector<CounterSlot> counter_slots_;
  std::vector<TwGaugeSlot> tw_slots_;
  std::vector<CallbackSlot> callback_slots_;
  std::vector<StreamSlot> stream_slots_;
  uint64_t synced_version_ = UINT64_MAX;

  uint64_t windows_ = 0;

  /// Series and per-source prev state live in deques (stable addresses,
  /// contiguous chunks, allocated in sampling order) with name->index
  /// maps alongside. The names are what survive a rebuild: a
  /// restarted component's fresh counter resolves to the same prev slot,
  /// so the reset (value below the previous reading) is detected and
  /// the window delta clamps to the new counter's absolute value
  /// instead of a huge unsigned wraparound.
  std::map<std::string, size_t, std::less<>> series_index_;
  std::deque<SeriesData> series_store_;
  std::map<std::string, size_t, std::less<>> prev_value_index_;
  std::deque<double> prev_value_store_;
  std::map<std::string, size_t, std::less<>> prev_stream_index_;
  std::deque<StreamPrev> prev_stream_store_;

  /// Per-sample scratch (sized once): window bucket deltas. Invariant:
  /// all-zero between streams — each stream writes only its occupied
  /// bucket range and zeroes it back after use, so the per-window cost
  /// scales with occupied buckets, not the full bucket array.
  std::vector<uint32_t> delta_scratch_;
  Aggregate aggregate_;
};

/// Deterministic serialization of every series, for artifacts and the
/// byte-identity gates: {"interval_ns":..., "windows":...,
/// "series":{name:{"kind":...,"first_window":...,"values":[...]}}}.
std::string TimeSeriesJson(const TimeSeriesCollector& collector);

}  // namespace dlog::obs

#endif  // DLOG_OBS_TIMESERIES_H_
