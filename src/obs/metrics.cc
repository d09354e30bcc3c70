#include "obs/metrics.h"

#include <algorithm>

namespace dlog::obs {

namespace {

// Erases [prefix...] keys from one typed map. Returns whether anything
// was erased.
template <typename Map>
bool ErasePrefix(Map* map, std::string_view prefix) {
  bool erased = false;
  for (auto it = map->lower_bound(prefix); it != map->end();) {
    if (std::string_view(it->first).substr(0, prefix.size()) != prefix) {
      break;
    }
    it = map->erase(it);
    erased = true;
  }
  return erased;
}

// A name may move between metric kinds on re-registration; drop it from
// every map first. Transparent find: no temporary key string. Returns
// whether the name was present.
template <typename Map>
bool EraseName(Map* map, std::string_view name) {
  auto it = map->find(name);
  if (it == map->end()) return false;
  map->erase(it);
  return true;
}

// Re-registering the identical entry must be a no-op (idempotence);
// pointers compare by identity, callbacks are incomparable and always
// count as new.
template <typename V>
bool SameEntry(const V* a, const V* b) {
  return a == b;
}
inline bool SameEntry(const std::function<double()>&,
                      const std::function<double()>&) {
  return false;
}

// Transparent insert-or-assign: materializes the key only when the name
// is genuinely new. Returns whether the map changed.
template <typename Map, typename V>
bool Assign(Map* map, std::string_view name, V value) {
  auto it = map->find(name);
  if (it != map->end()) {
    if (SameEntry(it->second, value)) return false;
    it->second = std::move(value);
    return true;
  }
  map->emplace(std::string(name), std::move(value));
  return true;
}

}  // namespace

void MetricsRegistry::RegisterCounter(std::string_view name,
                                      const sim::Counter* c) {
  std::lock_guard<std::mutex> lock(mu_);
  bool changed = EraseName(&tw_gauges_, name);
  changed |= EraseName(&histograms_, name);
  changed |= EraseName(&streaming_, name);
  changed |= EraseName(&callbacks_, name);
  changed |= Assign(&counters_, name, c);
  if (changed) ++version_;
}

void MetricsRegistry::RegisterTimeWeightedGauge(
    std::string_view name, const sim::TimeWeightedGauge* g) {
  std::lock_guard<std::mutex> lock(mu_);
  bool changed = EraseName(&counters_, name);
  changed |= EraseName(&histograms_, name);
  changed |= EraseName(&streaming_, name);
  changed |= EraseName(&callbacks_, name);
  changed |= Assign(&tw_gauges_, name, g);
  if (changed) ++version_;
}

void MetricsRegistry::RegisterHistogram(std::string_view name,
                                        const sim::Histogram* h) {
  std::lock_guard<std::mutex> lock(mu_);
  bool changed = EraseName(&counters_, name);
  changed |= EraseName(&tw_gauges_, name);
  changed |= EraseName(&streaming_, name);
  changed |= EraseName(&callbacks_, name);
  changed |= Assign(&histograms_, name, h);
  if (changed) ++version_;
}

void MetricsRegistry::RegisterStreamingHistogram(
    std::string_view name, const sim::StreamingHistogram* h) {
  std::lock_guard<std::mutex> lock(mu_);
  bool changed = EraseName(&counters_, name);
  changed |= EraseName(&tw_gauges_, name);
  changed |= EraseName(&histograms_, name);
  changed |= EraseName(&callbacks_, name);
  changed |= Assign(&streaming_, name, h);
  if (changed) ++version_;
}

void MetricsRegistry::RegisterCallback(std::string_view name,
                                       std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  bool changed = EraseName(&counters_, name);
  changed |= EraseName(&tw_gauges_, name);
  changed |= EraseName(&histograms_, name);
  changed |= EraseName(&streaming_, name);
  changed |= Assign(&callbacks_, name, std::move(fn));
  if (changed) ++version_;
}

void MetricsRegistry::UnregisterPrefix(std::string_view prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  bool changed = ErasePrefix(&counters_, prefix);
  changed |= ErasePrefix(&tw_gauges_, prefix);
  changed |= ErasePrefix(&histograms_, prefix);
  changed |= ErasePrefix(&streaming_, prefix);
  changed |= ErasePrefix(&callbacks_, prefix);
  if (changed) ++version_;
}

MetricsSnapshot MetricsRegistry::Snapshot(sim::Time now) const {
  MetricsSnapshot snap;
  snap.at = now;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    snap.values[name] = static_cast<double>(c->value());
  }
  for (const auto& [name, g] : tw_gauges_) {
    snap.values[name] = g->value();
    snap.values[name + "/avg"] = g->Average(now);
    snap.values[name + "/max"] = g->max();
  }
  for (const auto& [name, h] : histograms_) {
    snap.values[name + "/count"] = static_cast<double>(h->count());
    snap.values[name + "/mean"] = h->Mean();
    snap.values[name + "/p50"] = h->Percentile(0.5);
    snap.values[name + "/p95"] = h->Percentile(0.95);
    snap.values[name + "/p99"] = h->Percentile(0.99);
    snap.values[name + "/max"] = h->Max();
  }
  for (const auto& [name, h] : streaming_) {
    snap.values[name + "/count"] = static_cast<double>(h->count());
    snap.values[name + "/p50"] = h->Percentile(0.5);
    snap.values[name + "/p95"] = h->Percentile(0.95);
    snap.values[name + "/p99"] = h->Percentile(0.99);
    snap.values[name + "/max"] = static_cast<double>(h->max());
  }
  for (const auto& [name, fn] : callbacks_) {
    snap.values[name] = fn();
  }
  return snap;
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) names.push_back(name);
  for (const auto& [name, g] : tw_gauges_) names.push_back(name);
  for (const auto& [name, h] : histograms_) names.push_back(name);
  for (const auto& [name, h] : streaming_) names.push_back(name);
  for (const auto& [name, fn] : callbacks_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<MetricRef> MetricsRegistry::Enumerate() const {
  std::vector<MetricRef> refs;
  std::lock_guard<std::mutex> lock(mu_);
  refs.reserve(counters_.size() + tw_gauges_.size() + histograms_.size() +
               streaming_.size() + callbacks_.size());
  for (const auto& [name, c] : counters_) {
    MetricRef ref;
    ref.name = name;
    ref.kind = MetricKind::kCounter;
    ref.counter = c;
    refs.push_back(std::move(ref));
  }
  for (const auto& [name, g] : tw_gauges_) {
    MetricRef ref;
    ref.name = name;
    ref.kind = MetricKind::kTimeWeightedGauge;
    ref.tw_gauge = g;
    refs.push_back(std::move(ref));
  }
  for (const auto& [name, h] : histograms_) {
    MetricRef ref;
    ref.name = name;
    ref.kind = MetricKind::kHistogram;
    ref.histogram = h;
    refs.push_back(std::move(ref));
  }
  for (const auto& [name, h] : streaming_) {
    MetricRef ref;
    ref.name = name;
    ref.kind = MetricKind::kStreamingHistogram;
    ref.streaming = h;
    refs.push_back(std::move(ref));
  }
  for (const auto& [name, fn] : callbacks_) {
    MetricRef ref;
    ref.name = name;
    ref.kind = MetricKind::kCallback;
    ref.callback = fn;
    refs.push_back(std::move(ref));
  }
  std::sort(refs.begin(), refs.end(),
            [](const MetricRef& a, const MetricRef& b) {
              return a.name < b.name;
            });
  return refs;
}

}  // namespace dlog::obs
