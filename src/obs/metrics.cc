#include "obs/metrics.h"

#include <type_traits>

namespace dlog::obs {

namespace {

// Pointers compare by identity; callbacks are incomparable and always
// count as new.
bool SameEntry(const Metric& a, const Metric& b) {
  if (a.index() != b.index()) return false;
  return std::visit(
      [&b](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_pointer_v<T>) {
          return x == std::get<T>(b);
        } else {
          return false;
        }
      },
      a);
}

}  // namespace

void MetricsRegistry::Put(std::string_view name, Metric metric) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    entries_.emplace(std::string(name), std::move(metric));
  } else if (SameEntry(it->second, metric)) {
    return;
  } else {
    it->second = std::move(metric);
  }
  ++version_;
}

void MetricsRegistry::UnregisterPrefix(std::string_view prefix) {
  const auto first = entries_.lower_bound(prefix);
  auto last = first;
  while (last != entries_.end() &&
         std::string_view(last->first).starts_with(prefix)) {
    ++last;
  }
  if (first == last) return;
  entries_.erase(first, last);
  ++version_;
}

MetricsSnapshot MetricsRegistry::Snapshot(sim::Time now) const {
  MetricsSnapshot snap;
  snap.at = now;
  std::map<std::string, double>& v = snap.values;
  for (const auto& [name, metric] : entries_) {
    if (const auto* c = std::get_if<const sim::Counter*>(&metric)) {
      v[name] = static_cast<double>((*c)->value());
    } else if (const auto* g =
                   std::get_if<const sim::TimeWeightedGauge*>(&metric)) {
      v[name] = (*g)->value();
      v[name + "/avg"] = (*g)->Average(now);
      v[name + "/max"] = (*g)->max();
    } else if (const auto* h = std::get_if<const sim::Histogram*>(&metric)) {
      v[name + "/count"] = static_cast<double>((*h)->count());
      v[name + "/mean"] = (*h)->Mean();
      v[name + "/p50"] = (*h)->Percentile(0.5);
      v[name + "/p95"] = (*h)->Percentile(0.95);
      v[name + "/p99"] = (*h)->Percentile(0.99);
      v[name + "/max"] = (*h)->Max();
    } else if (const auto* s =
                   std::get_if<const sim::StreamingHistogram*>(&metric)) {
      v[name + "/count"] = static_cast<double>((*s)->count());
      v[name + "/p50"] = (*s)->Percentile(0.5);
      v[name + "/p95"] = (*s)->Percentile(0.95);
      v[name + "/p99"] = (*s)->Percentile(0.99);
      v[name + "/max"] = static_cast<double>((*s)->max());
    } else {
      v[name] = std::get<std::function<double()>>(metric)();
    }
  }
  return snap;
}

}  // namespace dlog::obs
