#ifndef DLOG_OBS_TRACE_H_
#define DLOG_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/scheduler.h"
#include "sim/time.h"

namespace dlog::obs {

class FlightRecorder;

/// Identifies one causal tree of spans (normally: one transaction).
using TraceId = uint64_t;
/// Identifies one timed stage within a trace.
using SpanId = uint64_t;

constexpr TraceId kNoTrace = 0;
constexpr SpanId kNoSpan = 0;

/// The pair that travels with work as it moves between components (and,
/// for the record stream, across the wire inside message metadata).
struct SpanContext {
  TraceId trace = kNoTrace;
  SpanId span = kNoSpan;

  bool valid() const { return trace != kNoTrace; }
};

/// One timed stage of a trace. `end == start` with `open == false` marks
/// an instant event (a point in time rather than an interval).
struct Span {
  TraceId trace = kNoTrace;
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;  // kNoSpan for trace roots
  std::string name;         // stage name: "txn", "ForceLog", "wire.send", ...
  std::string node;         // emitting node: "client-1", "server-2", ...
  sim::Time start = 0;
  sim::Time end = 0;
  bool open = true;
  /// Deterministically ordered key/value annotations (lsn, upto, ...).
  std::vector<std::pair<std::string, uint64_t>> args;
};

/// Records causal spans against simulated time. Because the simulation is
/// a single-threaded deterministic DES, span ids are simple sequence
/// numbers and a (config, seed) pair always produces the identical span
/// stream — traces are byte-for-byte reproducible.
///
/// Components hold a `Tracer*` that may be null (tracing compiled out of
/// a run); every entry point tolerates null. Context propagation into
/// callees that take no context parameter (e.g. TxnLogger::Force) uses an
/// explicit stack of "current" contexts, scoped via Tracer::Scope.
class Tracer {
 public:
  explicit Tracer(sim::Scheduler* sim) : sim_(sim) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// When disabled, every Start*/Instant returns an invalid context and
  /// records nothing (cheap no-op for long bulk runs).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Attaches a flight recorder. Completed spans are forwarded to it;
  /// with tracing otherwise *disabled* the tracer runs in "ring mode":
  /// spans are recorded and routed to the recorder but never retained in
  /// spans_ — memory stays bounded by the recorder's rings however long
  /// the run. Open spans wait in a bounded side map until they close
  /// (kept per Span::node count-agnostic; the oldest are evicted past a
  /// fixed bound, see Admit). Only flipped while quiescent,
  /// like set_enabled.
  void SetFlightRecorder(FlightRecorder* recorder);

  /// Recording anything at all (fully or into flight rings)?
  bool active() const { return enabled_ || recorder_ != nullptr; }

  // Names and nodes pass as string_views: a call site handing over a
  // literal (or a cached per-node name) materializes a std::string only
  // inside an *enabled* tracer — the disabled hot path allocates
  // nothing, which matters at every-event call frequency.

  /// Opens a new root span, minting a fresh trace id.
  SpanContext StartTrace(std::string_view name, std::string_view node);

  /// Opens a child span of `parent`. An invalid parent yields an invalid
  /// context (the whole subtree is dropped).
  SpanContext StartSpan(std::string_view name, std::string_view node,
                        SpanContext parent);

  /// Records a zero-length event under `parent`.
  SpanContext Instant(std::string_view name, std::string_view node,
                      SpanContext parent);

  /// Attaches a key/value annotation to an open span.
  void AddArg(SpanContext ctx, std::string_view key, uint64_t value);

  /// Closes a span at the current simulated time. Closing an already
  /// closed or invalid span is a no-op (lost-message tolerance: a
  /// wire.send span whose packet the network dropped is simply never
  /// closed and exports as an open span).
  void EndSpan(SpanContext ctx);

  // --- Context stack (single-threaded scoped propagation) ---
  // Inactive, these are no-ops rather than pushes of the invalid context
  // Start* returned: Current() reads identically (invalid either way),
  // and a disabled tracer's hot path never touches the stack. Toggling
  // set_enabled() with scopes open would unbalance the stack; it is only
  // flipped while quiescent (cluster construction).
  void PushContext(SpanContext ctx) {
    if (active()) context_stack_.push_back(ctx);
  }
  void PopContext() {
    if (active() && !context_stack_.empty()) context_stack_.pop_back();
  }
  /// The innermost pushed context; invalid when the stack is empty.
  SpanContext Current() const {
    return context_stack_.empty() ? SpanContext{} : context_stack_.back();
  }

  /// RAII context scope, tolerant of a null tracer.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanContext ctx) : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->PushContext(ctx);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->PopContext();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  /// All spans recorded so far, in id (creation) order; open spans
  /// included.
  const std::vector<Span>& spans() const { return spans_; }
  size_t span_count() const { return spans_.size(); }

  /// The recorded span with id `id`, or null (kNoSpan, an id not minted
  /// yet, or ring mode, which records nothing here). Span ids are minted
  /// only when a span is recorded, so id k sits at spans()[k - 1].
  const Span* Find(SpanId id) const {
    return id == kNoSpan || id > spans_.size() ? nullptr : &spans_[id - 1];
  }

 private:
  /// Files a freshly started span in spans_ (enabled) or the open-span
  /// side map (ring mode), returning its context.
  SpanContext Admit(Span span);

  sim::Scheduler* sim_;
  bool enabled_ = true;
  FlightRecorder* recorder_ = nullptr;
  TraceId next_trace_ = 1;
  SpanId next_span_ = 1;
  std::vector<Span> spans_;
  /// Ring mode only: spans started but not yet ended, keyed by id.
  /// Ordered map: ids are minted monotonically, so begin() is always the
  /// oldest — eviction past the bound is deterministic.
  std::map<SpanId, Span> open_spans_;
  std::vector<SpanContext> context_stack_;
};

}  // namespace dlog::obs

#endif  // DLOG_OBS_TRACE_H_
