#include "obs/trace.h"

#include "obs/flight.h"

namespace dlog::obs {

void Tracer::SetFlightRecorder(FlightRecorder* recorder) {
  recorder_ = recorder;
}

SpanContext Tracer::Admit(Span span) {
  const SpanContext ctx{span.trace, span.id};
  if (enabled_) {
    spans_.push_back(std::move(span));
    return ctx;
  }
  // Ring mode: hold the open span aside until EndSpan routes it into the
  // recorder. Evict the oldest past the bound — a span whose packet the
  // network dropped never closes and must not leak.
  constexpr size_t kMaxOpenSpans = 1024;
  if (open_spans_.size() >= kMaxOpenSpans) {
    open_spans_.erase(open_spans_.begin());
  }
  open_spans_.emplace(ctx.span, std::move(span));
  return ctx;
}

SpanContext Tracer::StartTrace(std::string_view name,
                               std::string_view node) {
  if (!active()) return {};
  Span span;
  span.trace = next_trace_++;
  span.id = next_span_++;
  span.name = std::string(name);
  span.node = std::string(node);
  span.start = sim_->Now();
  return Admit(std::move(span));
}

SpanContext Tracer::StartSpan(std::string_view name,
                              std::string_view node, SpanContext parent) {
  if (!active() || !parent.valid()) return {};
  Span span;
  span.trace = parent.trace;
  span.id = next_span_++;
  span.parent = parent.span;
  span.name = std::string(name);
  span.node = std::string(node);
  span.start = sim_->Now();
  return Admit(std::move(span));
}

SpanContext Tracer::Instant(std::string_view name, std::string_view node,
                            SpanContext parent) {
  SpanContext ctx = StartSpan(name, node, parent);
  EndSpan(ctx);
  return ctx;
}

void Tracer::AddArg(SpanContext ctx, std::string_view key,
                    uint64_t value) {
  if (!ctx.valid()) return;
  if (enabled_) {
    if (Find(ctx.span) != nullptr) {
      spans_[ctx.span - 1].args.emplace_back(key, value);
    }
    return;
  }
  auto it = open_spans_.find(ctx.span);
  if (it != open_spans_.end()) it->second.args.emplace_back(key, value);
}

void Tracer::EndSpan(SpanContext ctx) {
  if (!ctx.valid()) return;
  if (enabled_) {
    if (Find(ctx.span) == nullptr) return;
    Span& span = spans_[ctx.span - 1];
    if (!span.open) return;
    span.end = sim_->Now();
    span.open = false;
    // Full tracing with a recorder attached still feeds the rings, so
    // crash dumps work in traced runs too.
    if (recorder_ != nullptr) recorder_->Record(span);
    return;
  }
  auto it = open_spans_.find(ctx.span);
  if (it == open_spans_.end()) return;  // closed already, or evicted
  Span span = std::move(it->second);
  open_spans_.erase(it);
  span.end = sim_->Now();
  span.open = false;
  recorder_->Record(std::move(span));
}

}  // namespace dlog::obs
