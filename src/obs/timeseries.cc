#include "obs/timeseries.h"

#include <algorithm>
#include <cinttypes>
#include <utility>

#include "obs/text.h"

namespace dlog::obs {

Status TimeSeriesConfig::Validate() const {
  if (!enabled) return Status::OK();
  if (interval <= 0) {
    return Status::InvalidArgument("telemetry interval must be > 0");
  }
  return Status::OK();
}

namespace {

/// Windows retained per series (bounded ring; older values evicted).
constexpr size_t kRetentionWindows = 512;

/// The streaming-histogram name suffix merged across every node into the
/// cluster-wide "cluster/log/force_latency_us/{p50,p99,count}" series.
constexpr std::string_view kAggregatedSuffix = "log/force_latency_us";

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace

TimeSeriesCollector::TimeSeriesCollector(const TimeSeriesConfig& config,
                                         MetricsRegistry* registry)
    : config_(config), registry_(registry) {
  DLOG_CHECK_OK(config.Validate());
  const std::string base = "cluster/" + std::string(kAggregatedSuffix);
  aggregate_.p50 = EnsureSeries(base + "/p50", SeriesKind::kQuantile);
  aggregate_.p99 = EnsureSeries(base + "/p99", SeriesKind::kQuantile);
  aggregate_.cnt = EnsureSeries(base + "/count", SeriesKind::kRate);
}

void TimeSeriesCollector::PushTo(SeriesData* s, double value) {
  if (s->count == 0) s->first_window = windows_;
  // Gap-fill every window the source skipped (idle windows are not
  // pushed; see the class comment on sparsity): rates/quantiles with
  // zeros, levels with the held previous level.
  if (s->first_window + s->count < windows_) {
    const double gap =
        s->kind == SeriesKind::kLevel && s->count > 0
            ? s->values[(s->count - 1) % kRetentionWindows]
            : 0.0;
    while (s->first_window + s->count < windows_) Append(s, gap);
  }
  Append(s, value);
}

void TimeSeriesCollector::Append(SeriesData* s, double value) {
  if (s->values.size() < kRetentionWindows) {
    s->values.push_back(value);
  } else {
    s->values[s->count % kRetentionWindows] = value;
  }
  ++s->count;
}

TimeSeriesCollector::SeriesData* TimeSeriesCollector::EnsureSeries(
    const std::string& key, SeriesKind kind) {
  auto [it, inserted] = series_index_.try_emplace(key, series_store_.size());
  if (inserted) series_store_.emplace_back();
  SeriesData& s = series_store_[it->second];
  if (s.count == 0) s.kind = kind;
  return &s;
}

double* TimeSeriesCollector::EnsurePrevValue(const std::string& key) {
  auto [it, inserted] =
      prev_value_index_.try_emplace(key, prev_value_store_.size());
  if (inserted) prev_value_store_.push_back(0.0);
  return &prev_value_store_[it->second];
}

TimeSeriesCollector::StreamPrev* TimeSeriesCollector::EnsurePrevStream(
    const std::string& key) {
  auto [it, inserted] =
      prev_stream_index_.try_emplace(key, prev_stream_store_.size());
  if (inserted) prev_stream_store_.emplace_back();
  return &prev_stream_store_[it->second];
}

void TimeSeriesCollector::Rebuild() {
  counter_slots_.clear();
  tw_slots_.clear();
  callback_slots_.clear();
  stream_slots_.clear();
  // The copy tally (dlog::BytesCopied) counts per thread, not per
  // cluster: E17 interleaves two fleets on one thread, so a fleet's
  // windows would count the other fleet's copies too, and its series
  // would depend on how the fleets interleave. `process/` metrics are not
  // sampled; end-of-run snapshots still show them.
  constexpr std::string_view kUnsampledPrefix = "process/";
  for (const auto& [name, metric] : registry_->entries()) {
    if (name.starts_with(kUnsampledPrefix)) continue;
    if (const auto* c = std::get_if<const sim::Counter*>(&metric)) {
      counter_slots_.push_back({*c, EnsurePrevValue(name),
                                EnsureSeries(name, SeriesKind::kRate)});
    } else if (const auto* g =
                   std::get_if<const sim::TimeWeightedGauge*>(&metric)) {
      tw_slots_.push_back({*g, EnsurePrevValue(name),
                           EnsureSeries(name, SeriesKind::kLevel)});
    } else if (const auto* fn =
                   std::get_if<std::function<double()>>(&metric)) {
      callback_slots_.push_back({fn, EnsurePrevValue(name),
                                 EnsureSeries(name, SeriesKind::kLevel)});
    } else if (const auto* h =
                   std::get_if<const sim::StreamingHistogram*>(&metric)) {
      StreamSlot slot;
      slot.src = *h;
      slot.prev = EnsurePrevStream(name);
      slot.p50 = EnsureSeries(name + "/p50", SeriesKind::kQuantile);
      slot.p99 = EnsureSeries(name + "/p99", SeriesKind::kQuantile);
      slot.cnt = EnsureSeries(name + "/count", SeriesKind::kRate);
      slot.aggregated = EndsWith(name, kAggregatedSuffix);
      stream_slots_.push_back(slot);
    }
    // Exact sample-retaining histograms are end-of-run artifacts; their
    // windowed counterpart is the streaming histogram.
  }
}

void TimeSeriesCollector::Sample() {
  ++windows_;
  const uint64_t version = registry_->version();
  if (version != synced_version_) {
    Rebuild();
    synced_version_ = version;
  }
  const size_t n = sim::StreamingHistogram::kNumBuckets;
  Aggregate& agg = aggregate_;
  if (agg.buckets.size() != n) {
    agg.buckets.assign(n, 0);
  } else {
    // Only last window's occupied range is dirty.
    for (size_t b = agg.lo; b <= agg.hi && b < n; ++b) agg.buckets[b] = 0;
  }
  agg.count = 0;
  agg.lo = n;
  agg.hi = 0;
  for (CounterSlot& slot : counter_slots_) {
    const double v = static_cast<double>(slot.src->value());
    // Unchanged counter: the window delta is zero, which is exactly
    // what a skipped window gap-fills, so don't push at all.
    if (v == *slot.prev) continue;
    // A freshly restarted component re-registers a zeroed counter under
    // the same name; a reading below the previous one means reset, and
    // the window delta is the new absolute value.
    const double delta = v >= *slot.prev ? v - *slot.prev : v;
    *slot.prev = v;
    PushTo(slot.out, delta);
  }
  // Levels are sample-and-hold: an unchanged reading means "still the
  // previous level", exactly what the gap-fill reconstructs, so only
  // changes are pushed.
  for (TwGaugeSlot& slot : tw_slots_) {
    const double v = slot.src->value();
    if (v == *slot.prev) continue;
    *slot.prev = v;
    PushTo(slot.out, v);
  }
  for (CallbackSlot& slot : callback_slots_) {
    const double v = (*slot.fn)();
    if (v == *slot.prev) continue;
    *slot.prev = v;
    PushTo(slot.out, v);
  }
  for (StreamSlot& slot : stream_slots_) {
    const uint64_t ccount = slot.src->count();
    StreamPrev& prev = *slot.prev;
    // Untouched stream: count (and so every bucket) matches the
    // previous snapshot — the window's distribution is empty, and the
    // p50/p99/count pushes would all be the gap-fill zero.
    if (ccount == prev.count) continue;
    const std::vector<uint32_t>& cur = slot.src->buckets();
    // Occupied range: within one life, counts only grow, so the
    // previous snapshot's occupied range is contained in this one —
    // scanning [lo, hi] covers every bucket that can have a delta.
    const size_t lo = slot.src->bucket_lo();
    const size_t hi = slot.src->bucket_hi();
    if (delta_scratch_.size() != n) delta_scratch_.assign(n, 0);
    if (prev.buckets.size() != n) prev.buckets.assign(n, 0);
    // Reset (restart): the whole current contents are this window, and
    // the stale previous snapshot is replaced outright — a leftover count
    // outside the new life's range would otherwise distort deltas if the
    // new histogram grows into it.
    const bool reset = ccount < prev.count;
    const uint64_t dcount = reset ? ccount : ccount - prev.count;
    if (reset) std::fill(prev.buckets.begin(), prev.buckets.end(), 0);
    // One pass takes the window's delta and the new snapshot.
    for (size_t b = lo; b <= hi; ++b) {
      delta_scratch_[b] = cur[b] - prev.buckets[b];
      prev.buckets[b] = cur[b];
    }
    prev.count = ccount;
    PushTo(slot.p50,
           sim::StreamingHistogram::PercentileFromCounts(
               delta_scratch_.data(), n, dcount, 0.5, lo));
    PushTo(slot.p99,
           sim::StreamingHistogram::PercentileFromCounts(
               delta_scratch_.data(), n, dcount, 0.99, lo));
    PushTo(slot.cnt, static_cast<double>(dcount));
    if (slot.aggregated) {
      for (size_t b = lo; b <= hi; ++b) {
        const uint64_t sum =
            static_cast<uint64_t>(agg.buckets[b]) + delta_scratch_[b];
        agg.buckets[b] =
            sum > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(sum);
      }
      agg.count += dcount;
      if (lo < agg.lo) agg.lo = lo;
      if (hi > agg.hi && lo <= hi) agg.hi = hi;
    }
    // Restore the all-zero scratch invariant for the next stream.
    for (size_t b = lo; b <= hi; ++b) delta_scratch_[b] = 0;
  }
  // The cluster aggregate stays dense (pushed every window, active or
  // not).
  PushTo(agg.p50, sim::StreamingHistogram::PercentileFromCounts(
                      agg.buckets.data(), n, agg.count, 0.5, agg.lo));
  PushTo(agg.p99, sim::StreamingHistogram::PercentileFromCounts(
                      agg.buckets.data(), n, agg.count, 0.99, agg.lo));
  PushTo(agg.cnt, static_cast<double>(agg.count));
}

double TimeSeriesCollector::At(std::string_view key, uint64_t window,
                               double fallback) const {
  auto it = series_index_.find(key);
  if (it == series_index_.end()) return fallback;
  const SeriesData& s = series_store_[it->second];
  if (s.count == 0 || window < s.first_window) return fallback;
  uint64_t p = window - s.first_window;
  if (p >= s.count) {
    // Past the last sampled change: levels hold, rates/quantiles were
    // skipped as implicit zeros.
    if (s.kind != SeriesKind::kLevel) return fallback;
    p = s.count - 1;
  }
  if (s.count > kRetentionWindows && p < s.count - kRetentionWindows) {
    return fallback;
  }
  return s.values[p % kRetentionWindows];
}

double TimeSeriesCollector::Latest(std::string_view key,
                                   double fallback) const {
  auto it = series_index_.find(key);
  if (it == series_index_.end()) return fallback;
  const SeriesData& s = series_store_[it->second];
  if (s.count == 0) return fallback;
  return At(key, s.first_window + s.count - 1, fallback);
}

namespace {

const char* KindName(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kRate:
      return "rate";
    case SeriesKind::kLevel:
      return "level";
    case SeriesKind::kQuantile:
      return "quantile";
  }
  return "?";
}

}  // namespace

std::string TimeSeriesJson(const TimeSeriesCollector& collector) {
  std::string out;
  AppendF(&out,
          "{\"interval_ns\":%" PRIu64 ",\"windows\":%" PRIu64
          ",\"series\":{",
          collector.interval(), collector.windows());
  bool first = true;
  for (const auto& [name, index] : collector.series_index()) {
    const TimeSeriesCollector::SeriesData& s = collector.series_at(index);
    if (s.count == 0) continue;
    if (!first) out.push_back(',');
    first = false;
    JsonQuote(&out, name);
    const uint64_t retained =
        s.count < kRetentionWindows ? s.count : kRetentionWindows;
    const uint64_t start = s.count - retained;  // 0-based position
    AppendF(&out,
            ":{\"kind\":\"%s\",\"first_window\":%" PRIu64 ",\"values\":[",
            KindName(s.kind), s.first_window + start);
    for (uint64_t p = start; p < s.count; ++p) {
      if (p > start) out.push_back(',');
      AppendF(&out, "%.9g", s.values[p % kRetentionWindows]);
    }
    out += "]}";
  }
  out += "}}\n";
  return out;
}

}  // namespace dlog::obs
