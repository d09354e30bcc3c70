#ifndef DLOG_OBS_FLIGHT_H_
#define DLOG_OBS_FLIGHT_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "sim/time.h"

namespace dlog::obs {

/// A per-node bounded ring of recently *completed* spans, fed by the
/// Tracer (see Tracer::SetFlightRecorder). Unlike full tracing, memory is
/// bounded however long the run: each node keeps only its last 256
/// spans, overwriting older ones. Chaos crash faults call Dump() at the
/// instant of the fault, freezing the victim's recent history for
/// post-mortem — the "what was this node doing when it died" view an
/// E17-scale run cannot afford full tracing for.
///
/// Ring contents follow span completion order, a pure function of the
/// simulated schedule, so a dump is byte-identical across reruns.
class FlightRecorder {
 public:
  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends a completed span to its node's ring.
  void Record(Span span);

  /// Freezes `node`'s current ring contents (oldest first) as a dump.
  /// Dumping a node with no recorded spans still records the (empty)
  /// dump: "this node died having done nothing traced" is itself signal.
  void Dump(std::string_view node, sim::Time at, std::string_view reason);

  struct DumpRecord {
    sim::Time at = 0;
    std::string node;
    std::string reason;
    /// Lifetime total of spans this node had completed at dump time
    /// (>= spans.size(): the ring forgets, the count does not).
    uint64_t spans_recorded = 0;
    std::vector<Span> spans;  // chronological (completion order)
  };

  const std::vector<DumpRecord>& dumps() const { return dumps_; }

  /// Spans currently retained for `node` (0 when unknown).
  size_t RingSize(std::string_view node) const;

 private:
  struct Ring {
    std::vector<Span> slots;
    size_t next = 0;          // overwrite cursor once full
    uint64_t recorded = 0;    // lifetime completions
  };

  std::map<std::string, Ring, std::less<>> rings_;
  std::vector<DumpRecord> dumps_;
};

/// Deterministic serialization of every dump, for bench artifacts.
std::string FlightDumpsJson(const FlightRecorder& recorder);

}  // namespace dlog::obs

#endif  // DLOG_OBS_FLIGHT_H_
