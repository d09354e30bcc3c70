#include "obs/flight.h"

#include <cinttypes>
#include <utility>

#include "obs/text.h"

namespace dlog::obs {

namespace {

/// Completed spans retained per node.
constexpr size_t kRingSpans = 256;

}  // namespace

void FlightRecorder::Record(Span span) {
  auto it = rings_.find(std::string_view(span.node));
  if (it == rings_.end()) {
    it = rings_.emplace(span.node, Ring{}).first;
  }
  Ring& ring = it->second;
  ++ring.recorded;
  if (ring.slots.size() < kRingSpans) {
    ring.slots.push_back(std::move(span));
    ring.next = ring.slots.size() % kRingSpans;
    return;
  }
  ring.slots[ring.next] = std::move(span);
  ring.next = (ring.next + 1) % kRingSpans;
}

void FlightRecorder::Dump(std::string_view node, sim::Time at,
                          std::string_view reason) {
  DumpRecord dump;
  dump.at = at;
  dump.node = std::string(node);
  dump.reason = std::string(reason);
  auto it = rings_.find(node);
  if (it != rings_.end()) {
    const Ring& ring = it->second;
    dump.spans_recorded = ring.recorded;
    dump.spans.reserve(ring.slots.size());
    // Chronological replay of the circular buffer: the slot at `next` is
    // the oldest once the ring has wrapped.
    const size_t n = ring.slots.size();
    const size_t start = n < kRingSpans ? 0 : ring.next;
    for (size_t i = 0; i < n; ++i) {
      dump.spans.push_back(ring.slots[(start + i) % n]);
    }
  }
  dumps_.push_back(std::move(dump));
}

size_t FlightRecorder::RingSize(std::string_view node) const {
  auto it = rings_.find(node);
  return it == rings_.end() ? 0 : it->second.slots.size();
}

namespace {

void AppendSpanJson(std::string* out, const Span& span) {
  AppendF(out,
          "{\"trace\":%" PRIu64 ",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
          ",\"name\":",
          span.trace, span.id, span.parent);
  JsonQuote(out, span.name);
  *out += ",\"node\":";
  JsonQuote(out, span.node);
  AppendF(out,
          ",\"start\":%" PRIu64 ",\"end\":%" PRIu64
          ",\"open\":%s,\"args\":[",
          span.start, span.end, span.open ? "true" : "false");
  for (size_t i = 0; i < span.args.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->push_back('[');
    JsonQuote(out, span.args[i].first);
    AppendF(out, ",%" PRIu64 "]", span.args[i].second);
  }
  *out += "]}";
}

}  // namespace

std::string FlightDumpsJson(const FlightRecorder& recorder) {
  std::string out = "{\"dumps\":[";
  bool first_dump = true;
  for (const FlightRecorder::DumpRecord& dump : recorder.dumps()) {
    if (!first_dump) out.push_back(',');
    first_dump = false;
    AppendF(&out, "{\"at\":%" PRIu64 ",\"node\":", dump.at);
    JsonQuote(&out, dump.node);
    out += ",\"reason\":";
    JsonQuote(&out, dump.reason);
    AppendF(&out, ",\"spans_recorded\":%" PRIu64 ",\"spans\":[",
            dump.spans_recorded);
    for (size_t i = 0; i < dump.spans.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendSpanJson(&out, dump.spans[i]);
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

}  // namespace dlog::obs
