#ifndef DLOG_OBS_PROFILER_H_
#define DLOG_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace dlog::obs {

/// One busy interval of a serially-served resource.
struct BusyInterval {
  sim::Time start = 0;
  sim::Time end = 0;
};

/// Exact busy/idle timeline of one resource (a node CPU, a LAN medium, a
/// disk arm). Fed from the components' busy probes, which report
/// non-overlapping intervals in non-decreasing start order — so this is
/// bookkeeping, not sampling: Utilization() is exact over any window.
class UtilizationTimeline {
 public:
  /// Appends a busy interval; contiguous intervals are merged.
  void AddBusy(sim::Time start, sim::Time end);

  const std::vector<BusyInterval>& intervals() const { return intervals_; }

  /// Busy fraction over [from, to), clipping intervals at the window
  /// edges. Returns 0 for an empty window.
  double Utilization(sim::Time from, sim::Time to) const;

  /// Total busy time inside [from, to).
  sim::Duration BusyTime(sim::Time from, sim::Time to) const;

 private:
  std::vector<BusyInterval> intervals_;
};

/// Step timeline of an instantaneous level (NVRAM buffer occupancy in
/// bytes): the level holds from each point until the next.
class LevelTimeline {
 public:
  void Set(sim::Time now, double level);

  const std::vector<std::pair<sim::Time, double>>& points() const {
    return points_;
  }

  /// Time-weighted mean level over [from, to).
  double Average(sim::Time from, sim::Time to) const;
  double Max() const { return max_; }

 private:
  std::vector<std::pair<sim::Time, double>> points_;
  double max_ = 0;
};

/// Per-delivery packet timing, as reported by the network's packet probe
/// (mirrors net::Network::PacketTiming without the net dependency —
/// obs stays a leaf layer over sim).
struct PacketEvent {
  uint64_t trace = 0;
  uint64_t span = 0;
  uint32_t src = 0;
  uint32_t dst = 0;
  size_t wire_bytes = 0;
  sim::Time enqueue = 0;
  sim::Time tx_start = 0;
  sim::Time tx_end = 0;
  sim::Time arrival = 0;
  bool delivered = false;
};

/// Per-request disk timing, as reported by the disk's request probe
/// (mirrors storage::SimDisk::RequestTiming).
struct DiskEvent {
  uint64_t track = 0;
  bool is_write = false;
  sim::Time submitted = 0;
  sim::Time start = 0;
  sim::Duration seek = 0;
  sim::Duration rotation = 0;
  sim::Duration transfer = 0;
  sim::Time end = 0;
};

/// The named latency components a ForceLog decomposes into, in causal
/// order. Components always sum exactly to the end-to-end duration.
inline const std::vector<std::string>& AttributionComponents() {
  static const std::vector<std::string> kComponents = {
      "client.cpu",  "net.queue",     "net.transmit", "server.cpu",
      "buffer.wait", "rotation.wait", "media.write",  "ack.return"};
  return kComponents;
}

/// The resource-attribution layer: collects probe feeds from the
/// simulated hardware (CPUs, LANs, disk arms, NVRAM buffers) during a
/// run, then — against the causal span forest — decomposes each traced
/// ForceLog into named latency components and reports exact per-resource
/// utilizations. All inputs arrive in deterministic simulator order, so
/// every derived artifact is byte-identical per (config, seed).
///
/// Wiring (done by harness::Cluster when `profiling` is on):
///   cpu.SetBusyProbe      -> RecordBusy("server-2/cpu", ...)
///   network.SetBusyProbe  -> RecordBusy("net-0", ...)
///   network.SetPacketProbe-> RecordPacket(...)
///   disk.SetRequestProbe  -> RecordDisk("server-2/disk", ...)
///   nvram.SetOccupancyProbe -> RecordLevel("server-2/nvram", bytes)
class Profiler {
 public:
  Profiler() = default;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  // --- probe feeds ---
  void RecordBusy(const std::string& resource, sim::Time start,
                  sim::Time end);
  void RecordLevel(const std::string& resource, sim::Time now,
                   double level);
  void RecordPacket(const PacketEvent& event) {
    packets_.push_back(event);
  }
  /// Records one disk request; also feeds `resource`'s busy timeline
  /// (the arm is serially busy over [event.start, event.end)).
  void RecordDisk(const std::string& resource, const DiskEvent& event);

  /// Maps a network node id to its span-node name ("server-2"), so packet
  /// deliveries can be matched to the force.ack instants they produced.
  void SetNodeName(uint32_t id, const std::string& name) {
    node_names_[id] = name;
  }

  // --- timelines ---
  const std::map<std::string, LevelTimeline>& levels() const {
    return levels_;
  }
  /// Busy fraction of `resource` over [from, to); 0 if unknown.
  double Utilization(const std::string& resource, sim::Time from,
                     sim::Time to) const;

  /// Text table of every resource's utilization (and NVRAM mean/max
  /// occupancy) over [from, to). Deterministic.
  std::string UtilizationText(sim::Time from, sim::Time to) const;

  // --- latency attribution ---
  struct Attribution {
    TraceId trace = kNoTrace;
    SpanId span = kNoSpan;  // the decomposed ForceLog span
    std::string node;       // issuing client
    sim::Time start = 0;
    sim::Time end = 0;
    /// One entry per AttributionComponents() name, in that order; values
    /// sum exactly to end - start.
    std::vector<std::pair<std::string, sim::Duration>> components;
  };

  /// Decomposes every closed "ForceLog" span in the trace into the named
  /// components by walking its subtree: the critical force.ack instant
  /// identifies the wire.send span and packet delivery that carried the
  /// deciding copy, whose checkpoints (enqueue, tx start, arrival,
  /// processing end, ack) cut [start, end] into ordered segments; the
  /// buffered segment is further split against the server's disk request
  /// timeline (rotation wait / media write) when the ack waited for the
  /// disk. Checkpoints are clamped monotonically, so the pieces always
  /// sum exactly to the span duration.
  std::vector<Attribution> AttributeForces(const Tracer& tracer) const;

  /// Runs AttributeForces and fills per-component latency histograms
  /// (milliseconds), retrievable below or via RegisterMetrics.
  void UpdateAttributionMetrics(const Tracer& tracer);

  /// Per-component histogram ("client.cpu", ...); created on first use.
  sim::Histogram& ComponentHistogram(const std::string& component) {
    return attr_ms_[component];
  }

  /// Registers the per-component histograms under
  /// "profiler/attr/<component>" (ms, filled by
  /// UpdateAttributionMetrics), a callback utilization metric
  /// "profiler/util/<resource>" per busy timeline, and
  /// "profiler/occupancy/<resource>" per level timeline. Resources first
  /// seen after this call register themselves on arrival, so call order
  /// does not matter. `now_fn` supplies the snapshot-window end
  /// (normally the simulator clock).
  void RegisterMetrics(MetricsRegistry* registry,
                       std::function<sim::Time()> now_fn);

  const std::vector<PacketEvent>& packets() const { return packets_; }

 private:
  void RegisterUtilization(const std::string& resource);
  void RegisterOccupancy(const std::string& resource);

  std::map<std::string, UtilizationTimeline> timelines_;
  std::map<std::string, LevelTimeline> levels_;
  std::map<std::string, std::vector<DiskEvent>> disk_events_;
  std::vector<PacketEvent> packets_;
  std::map<uint32_t, std::string> node_names_;
  std::map<std::string, sim::Histogram> attr_ms_;
  MetricsRegistry* registry_ = nullptr;
  std::function<sim::Time()> now_fn_;
};

}  // namespace dlog::obs

#endif  // DLOG_OBS_PROFILER_H_
