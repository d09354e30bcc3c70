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
#include "obs/profiler.h"
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
  /// Windows retained per series (bounded ring; older values evicted).
  int retention_windows = 512;
  /// Streaming-histogram name *suffixes* additionally merged across all
  /// matching nodes into "cluster/<suffix>/{p50,p99,count}" each window
  /// — the cluster-wide ForceLog quantiles the SLO-burn rule watches.
  /// At most 32 suffixes (slots track membership in a bitmask).
  std::vector<std::string> aggregate_streaming = {"log/force_latency_us"};
  /// Registered names with these prefixes are not sampled. Default:
  /// "process/" — process-wide tallies (dlog::BytesCopied) are shared
  /// by every cluster in the process, so concurrent TrialRunner trials
  /// would bleed into each other's windows and break the byte-identity
  /// guarantee. They remain visible in end-of-run snapshots, which are
  /// taken when the process is quiescent.
  std::vector<std::string> exclude_prefixes = {"process/"};

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
/// per-window deltas, gauges/callbacks as window-edge levels, streaming
/// histograms as per-window quantiles of their bucket-count deltas
/// (exact sample-retaining histograms are end-of-run artifacts and are
/// skipped). Cross-node aggregation and the health rules read these
/// series, and the exporters serialize them.
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
/// The registry is re-enumerated only when its version
/// moves (a restart re-registering metrics); the steady-state sampling
/// cost is a pointer read per metric, no string maps.
class TimeSeriesCollector {
 public:
  TimeSeriesCollector(const TimeSeriesConfig& config,
                      MetricsRegistry* registry);

  TimeSeriesCollector(const TimeSeriesCollector&) = delete;
  TimeSeriesCollector& operator=(const TimeSeriesCollector&) = delete;

  /// Serial profiled runs only: additionally samples every profiler
  /// utilization timeline into "<resource>/util_exact" level series.
  void AttachProfiler(const Profiler* profiler) { profiler_ = profiler; }

  const TimeSeriesConfig& config() const { return config_; }
  sim::Duration interval() const { return config_.interval; }

  /// Closes window `windows() + 1` at simulated time `window_end`. The
  /// harness calls this with the engine quiescent at the window edge.
  void Sample(sim::Time window_end);

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
  size_t series_count() const { return series_store_.size(); }

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
  struct Aggregate {
    std::string suffix;
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
  /// slots are walked every window against a cold cache). All pointers
  /// stay valid across rebuilds: sources live in components, outputs
  /// and prev state in index-stable deques.
  struct CounterSlot {
    const sim::Counter* src;
    double* prev;  // previous reading, for delta encoding
    SeriesData* out;
  };
  struct GaugeSlot {
    const sim::Gauge* src;
    double* prev;  // last pushed level, for the unchanged-skip
    SeriesData* out;
  };
  struct TwGaugeSlot {
    const sim::TimeWeightedGauge* src;
    double* prev;
    SeriesData* out;
  };
  struct CallbackSlot {
    const std::function<double()>* fn;  // into refs_, rebuilt together
    double* prev;
    SeriesData* out;
  };
  struct StreamSlot {
    const sim::StreamingHistogram* src;
    StreamPrev* prev;
    SeriesData* p50;
    SeriesData* p99;
    SeriesData* cnt;
    uint32_t agg_mask;  // bit a: contributes to aggregates_[a]
  };

  void Rebuild();
  SeriesData* EnsureSeries(const std::string& key, SeriesKind kind);
  double* EnsurePrevValue(const std::string& key);
  StreamPrev* EnsurePrevStream(const std::string& key);
  void Push(const std::string& key, SeriesKind kind, double value);
  void PushTo(SeriesData* s, double value);
  void Append(SeriesData* s, double value);

  TimeSeriesConfig config_;
  MetricsRegistry* registry_;
  const Profiler* profiler_ = nullptr;

  /// Cached registry enumeration (owns the callback functors the
  /// callback slots point into), rebuilt when the version moves.
  std::vector<MetricRef> refs_;
  std::vector<CounterSlot> counter_slots_;
  std::vector<GaugeSlot> gauge_slots_;
  std::vector<TwGaugeSlot> tw_slots_;
  std::vector<CallbackSlot> callback_slots_;
  std::vector<StreamSlot> stream_slots_;
  uint64_t synced_version_ = UINT64_MAX;

  uint64_t windows_ = 0;
  sim::Time last_sample_time_ = 0;

  /// Series and per-source prev state live in deques (stable addresses,
  /// contiguous chunks, allocated in sampling order) with name->index
  /// maps alongside. The names are what survive re-enumeration: a
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
  std::vector<Aggregate> aggregates_;
};

/// Deterministic serializations of every series, for artifacts and the
/// byte-identity gates. JSON: {"interval_ns":..., "windows":...,
/// "series":{name:{"kind":...,"first_window":...,"values":[...]}}}.
/// CSV: "window,key,value" rows, keys sorted, retained windows only.
std::string TimeSeriesJson(const TimeSeriesCollector& collector);
std::string TimeSeriesCsv(const TimeSeriesCollector& collector);

}  // namespace dlog::obs

#endif  // DLOG_OBS_TIMESERIES_H_
